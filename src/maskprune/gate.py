"""Threshold gates for prunable entities.

Each prunable entity (a weight, a node, a filter, or a whole subnetwork)
carries a trainable scaling-factor vector ``alpha``.  The forward pass scales
the entity's output by ``alpha * I(alpha)`` where ``I`` is the hard mask

    I(a) = 1 if |a| > t else 0,

so an entity whose scaling factor has been driven under the threshold is
*exactly* zeroed.  The hard mask has zero derivative almost everywhere, so
the backward pass substitutes a smooth surrogate built from the first
derivative of the foothill function,

    f(x, beta) = tanh(beta*x/2) + (beta*x/2) * sech(beta*x/2)^2,

shifted to the threshold: m~(a) = (f(|a| - t, beta) + 1) / 2.  The surrogate
has two entry points: ``foothill`` returns f and f', and ``surrogate_terms``
m~, m~' and m~ + alpha m~' from them.  The surrogate keeps gradient flowing
to scaling factors on both sides of the threshold, which is what lets a
pruned entity rejuvenate during training.  That needs
the gated output to reach the loss through a nonzero derivative at the
masked, exactly-zero value, so a gate never sits just before a ReLU: conv
units gate after theirs.

A gate's d components meet a tensor under one membership mode (``AXIS0``,
``AXIS1``, ``WHOLE``, ``ELEMENTWISE``).  ``broadcast_mask`` is the one rule
that turns a per-component vector into a view over the tensor: the forward
ops, the masked-l2 term and the prune accounting all go through it.  (An
LSTM layer's sequence node meets its [b, 4h] gate block of each timestep
under ``AXIS1`` by plain row broadcasting, and a conv unit's epilogue node
its filters as the rows of batch-innermost [c, H*W*b] memory, the layout
that gives the conv's kernel-offset copies their longest runs.)

A gate is evaluated once per tape, as once per step in the paper.
``evaluation(tape, gate, alpha)`` makes its ``GateEval`` record on first use
and keeps it in ``tape.gate_evals``: the alpha node, the hard mask, computed
at forward time, and the surrogate terms m~, m~' and m~ + alpha m~',
computed on their first (backward) use by one ``surrogate_terms`` pass, so
an eval forward never computes them.  The record refers to its node, never
the node to the record, so the step's records go with its tape.  This is
the one place a gate meets its node: each gated block calls it once after
binding its parameters, and the training step, once per gate declaration,
gets the block's record back.  Every consumer takes the record alone, as its
gate: the gated ops, the gated ``Linear``'s one node (``layers.linear``), the
conv units' epilogue node (``layers.batchnorm``, which applies a filter gate
after batch norm and ReLU) and live filters, the LSTM layer's sequence node,
the residual skip and the masked-l2 and hinge terms.  They read the mask and
terms from it and hang their alpha gradient on ``node``.  The optimizer
updates alpha in place after the step.  The records keep the masks the
step's forward ran under, and the training step hands them to
``PruneManager.log_flips``, which logs each flip at the step it first shows
in; the epoch-end prune snapshot computes its masks from the updated alphas.
``GateEval.coeff`` is the one statement of the straight-through alpha
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import ShapeError, Tape, Tensor, _unbroadcast, custom_grad

DEFAULT_BETA = 5.0
# one entry per granularity; subnetwork gates use a coarser threshold
DEFAULT_THRESHOLD = {"weight": 1e-4, "node": 1e-4, "filter": 1e-4, "subnetwork": 1e-3}
DEFAULT_ALPHA_INIT = 1.0


def hard_mask(alpha, t: float):
    """Indicator of |alpha| > t, elementwise, as booleans.

    Booleans multiply a float array as exact 0.0 and 1.0; they take an eighth
    of float64's memory for the tape that keeps a gate's mask (``GateEval``).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.abs(alpha) > t


def _sech2(u):
    # 1/cosh^2 without overflow: sech(u) = 2 e^{-|u|} / (1 + e^{-2|u|}),
    # as 2.0 * e / (1.0 + e * e) squared, in two buffers
    e = np.abs(u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.multiply(e, e)
    d += 1.0
    e *= 2.0
    e /= d
    e *= e
    return e


def foothill(x, beta: float):
    """(f, f') at x: f the first derivative of the foothill function with
    unit shape parameter, f' its derivative in x, from one tanh u and one
    sech^2 u (u = beta*x/2).

    f is odd in x, asymptotically +-1, with a mild overshoot (max ~1.1996
    near u ~ 1.2) before settling to the asymptote; f' = (beta/2) sech^2(u)
    (2 - 2u tanh u) is even.
    """
    # th + u * s2 and 0.5 * beta * s2 * (2.0 - 2.0 * u * th), operation for
    # operation, in buffers of its own: the input is never written
    u = np.multiply(np.asarray(x, dtype=np.float64).reshape(-1), 0.5 * beta)
    th, s2 = np.tanh(u), _sech2(u)
    f = np.multiply(u, s2)
    f += th
    u *= 2.0
    u *= th
    np.subtract(2.0, u, out=u)
    s2 *= 0.5 * beta
    s2 *= u
    return _shaped(f, np.shape(x)), _shaped(s2, np.shape(x))


def _shaped(a: np.ndarray, shape: tuple):
    """``a`` in ``shape``: a numpy scalar for a scalar input, as numpy's own
    operations return one."""
    return a.reshape(shape)[()]


class Surrogate(NamedTuple):
    """The surrogate terms of a gate's alpha, elementwise."""

    m: np.ndarray        # m~(alpha)
    dm: np.ndarray       # m~'(alpha)
    coeff: np.ndarray    # m~ + alpha * m~', the scaled straight-through factor


def surrogate_terms(alpha, t: float, beta: float) -> Surrogate:
    """m~, m~' and m~ + alpha * m~' of alpha, in one pass.

    m~(a) = (f(|a| - t, beta) + 1) / 2 is the smooth stand-in for the hard
    mask: 0.5 at |a| = t, -> 1 far above.  Its derivative m~' is odd in a and
    0 at a = 0.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    a = alpha.reshape(-1)
    # 0.5 * (f + 1.0), 0.5 * df * sign(alpha) and m + alpha * dm, in place on
    # foothill's two results and one buffer
    x = np.abs(a)
    x -= t
    f, df = foothill(x, beta)
    m = f
    m += 1.0
    m *= 0.5
    dm = df
    dm *= 0.5
    dm *= np.sign(a, out=x)
    coeff = np.multiply(a, dm, out=x)
    coeff += m
    return Surrogate(*(_shaped(v, alpha.shape) for v in (m, dm, coeff)))


@dataclass
class GateParam:
    """Scaling factor, threshold and surrogate sharpness for one entity.

    ``alpha`` has one component per prunable sub-entity (d = 1 for a whole
    subnetwork).  The gate keeps no mask: a pass reads its record on the
    pass's tape (``evaluation``), and ``mask`` computes the hard mask from the
    current ``alpha``, so there is no stale mask state to invalidate.
    """

    alpha: np.ndarray
    threshold: float
    beta: float
    name: str = ""

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @classmethod
    def create(cls, granularity: str, dim: int, threshold: float | None = None,
               beta: float = DEFAULT_BETA, alpha_init: float = DEFAULT_ALPHA_INIT,
               name: str = "") -> "GateParam":
        if granularity not in DEFAULT_THRESHOLD:
            raise ValueError(f"unknown granularity {granularity!r}")
        if threshold is None:
            threshold = DEFAULT_THRESHOLD[granularity]
        return cls(np.full(dim, alpha_init), threshold, beta, name)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def mask(self) -> np.ndarray:
        return hard_mask(self.alpha, self.threshold)


# membership: how the d components of a gate meet a tensor's entries
AXIS0 = "axis0"              # component i <-> slice i along axis 0
AXIS1 = "axis1"              # component i <-> slice i along axis 1
WHOLE = "whole"              # d == 1: the one component covers the whole tensor
ELEMENTWISE = "elementwise"  # d == size: component i <-> entry i in C order


def broadcast_mask(m: np.ndarray, shape: tuple, mode: str) -> np.ndarray:
    """View of the per-component vector ``m`` that broadcasts over ``shape``.

    Raises ``ShapeError`` when the tensor's extent under ``mode`` does not
    match ``len(m)``, and ``ValueError`` for an unknown mode.
    """
    dim = m.shape[0]
    if mode in (AXIS0, AXIS1):
        axis = 0 if mode == AXIS0 else 1
        if len(shape) <= axis or shape[axis] != dim:
            raise ShapeError(f"{mode} membership: shape {shape} does not have "
                             f"size {dim} on axis {axis}")
        return m.reshape((1,) * axis + (dim,) + (1,) * (len(shape) - axis - 1))
    if mode == WHOLE:
        if dim != 1:
            raise ShapeError(f"whole-tensor membership needs a scalar gate, "
                             f"got dim {dim}")
        return m.reshape(())
    if mode == ELEMENTWISE:
        if int(np.prod(shape)) != dim:
            raise ShapeError(f"elementwise membership: shape {shape} != gate dim {dim}")
        return m.reshape(shape)
    raise ValueError(f"unknown membership mode {mode!r}")


class GateEval:
    """One gate's values on one tape; ``evaluation`` makes and keeps it.

    ``node`` is the tape node carrying ``gate.alpha``, where a consumer's
    alpha gradient lands, and ``alpha`` its data.  ``mask`` is the hard mask
    of ``alpha``, computed when the record is made.  ``terms`` are the
    surrogate terms, from one ``surrogate_terms`` pass on first use.
    """

    __slots__ = ("gate", "node", "alpha", "mask", "_terms")

    def __init__(self, gate: GateParam, node: Tensor):
        self.gate, self.node, self.alpha = gate, node, node.data
        self.mask = hard_mask(self.alpha, gate.threshold)
        self._terms: Surrogate | None = None

    @property
    def terms(self) -> Surrogate:
        if self._terms is None:
            self._terms = surrogate_terms(self.alpha, self.gate.threshold, self.gate.beta)
        return self._terms

    def coeff(self, scaled: bool) -> np.ndarray:
        """Per-component factor of the straight-through alpha gradient.

        The backward treats the hard factor ``alpha * I(alpha)`` (``scaled``)
        or ``I(alpha)`` as the smooth ``alpha * m~(alpha)`` or ``m~(alpha)``,
        so the gradient on alpha is the upstream-times-input sum over each
        component's entries times this derivative: ``m~ + alpha * m~'`` when
        ``scaled``, else ``m~'``.  Every gated op takes its alpha gradient
        from here.
        """
        return self.terms.coeff if scaled else self.terms.dm

    def live(self) -> np.ndarray | None:
        """Indices of the live components; None when every one is live."""
        return None if self.mask.all() else np.flatnonzero(self.mask)


def evaluation(tape: Tape, gate: GateParam, alpha: Tensor) -> GateEval:
    """The ``GateEval`` of ``gate`` on ``tape``, made on first use.

    ``alpha`` is the tape node carrying ``gate.alpha``, the node returned by
    ``tape.param`` so that gradients land in the registry.  The record lives
    in ``tape.gate_evals`` under ``id(gate)`` (``GateParam`` is unhashable),
    so every reader of the gate on this tape shares it; another alpha node
    for the gate on the same tape raises ``ValueError``.
    """
    ev = tape.gate_evals.get(id(gate))
    if ev is None:
        if alpha.shape != (gate.dim,):
            raise ShapeError(f"alpha node shape {alpha.shape} != gate dim ({gate.dim},)")
        ev = tape.gate_evals[id(gate)] = GateEval(gate, alpha)
    elif ev.node is not alpha:
        raise ValueError(f"gate {gate.name!r} has another alpha node on this tape")
    return ev


def apply_gate(x: Tensor, ev: GateEval, mode: str) -> Tensor:
    """Scale ``x`` by ``alpha * I(alpha)``, component to entries by ``mode``.

    Forward is the exact hard product, so a masked component's output is
    exactly zero and an active one is exactly ``alpha * x``.  Backward treats
    the gated factor as the smooth ``alpha * m~(alpha)``: the gradient on
    alpha is ``m~ + alpha * m~'`` times the upstream-times-input sum over the
    component's entries, which stays nonzero below the threshold
    (rejuvenation).  The gradient on ``x`` uses the exact forward scale.

    ``ev`` is the gate's record on this tape (``evaluation``); the alpha
    gradient lands on its ``node``.  ``mode`` is one of the membership modes
    above, as ``broadcast_mask`` reads it.
    """
    return _gated(x, ev, mode, scaled=True, op="apply_gate")


def apply_mask(x: Tensor, ev: GateEval, mode: str) -> Tensor:
    """Multiply ``x`` by the hard mask alone, with the surrogate backward.

    For where the scaling factor enters elsewhere: an LSTM recurrence gate
    scales its pre-activation by alpha and masks its post-activation, which
    ``layers.LstmCell`` does inside its one node for the whole sequence, by
    the same rule.
    ``ev`` and ``mode`` are as in ``apply_gate``.  Gradient on ``x`` is the
    exact mask; gradient on alpha is ``m~'(alpha)`` times the
    upstream-times-input sum.
    """
    return _gated(x, ev, mode, scaled=False, op="apply_mask")


def _gated(x: Tensor, ev: GateEval, mode: str, scaled: bool, op: str) -> Tensor:
    """Shared body: forward scale ``alpha * I`` (``scaled``) or ``I``."""
    s = ev.alpha * ev.mask if scaled else ev.mask
    xd = x.data
    s_b = broadcast_mask(s, xd.shape, mode)

    def rule(g):
        # with every component masked, x's gradient is all zero: pass none, so
        # the backward of whatever computed x is skipped
        gx = g * s_b if s.any() else None
        ga = _unbroadcast(np.multiply(g, xd), s_b.shape).reshape(ev.gate.dim)
        ga *= ev.coeff(scaled)
        return gx, ga

    return custom_grad(s_b * xd, (x, ev.node), rule, op=op)

"""Finite-difference verification of every backward rule with a true derivative.

Each check compares the tape's gradients of a scalar loss, built from seeded
random inputs, with central differences computed by re-running the forward as
a pure function of the perturbed arrays.  ``test_gradcheck`` runs each check
in ``CHECKS`` as its own test id, on a fresh ``default_rng(0)``, and holds its
worst relative error below ``TOLERANCE`` (tighter for the closed-form pair).

Every check but the closed-form pair is a case table.  A generator draws
``(op, arrays[, ref])`` cases, and ``_projected`` runs each one: it registers
every array on the tape under its key and checks the loss
``sum(op(*arrays) * proj)``, with a random ``proj`` of the output's shape, so
each output entry counts with its own weight.  A check reports its worst
case.  The conv epilogue node ``batchnorm`` is checked in train mode alone:
in eval it returns a leaf, as eval takes no gradient.  The ``conv2d`` check
also runs the conv chained into that node, as a conv unit trains.  The
surrogate pair (``foothill``, ``surrogate-mask``) is closed-form;
``_closed_form`` checks each derivative against central differences of the
function itself.

The straight-through rules (the alpha gradients of ``apply_gate``,
``apply_mask``, the conv epilogue node ``batchnorm``, the LSTM layer's
sequence node and ``ratio_hinge``) are not derivatives of their hard forward
pass.  Their checks difference the forward pass they stand in for instead:
the same computation with every hard mask I(.) replaced by the surrogate
m~(.), at alphas on both sides of the threshold and clear of 0.  That is the
defining property of the estimator (Bengio et al., 2013, arXiv:1308.3432).
That smooth forward is the case's ``ref``.  Where the loss is not linear in
the masked output (the LSTM cell), m~ is shifted by a constant to equal I at
the checked alphas, so the values downstream of each mask stay the hard ones.

Two negative controls show that every check can fail: each tape check fails
when the tape's gradients are off by a thousandth, and each straight-through
check fails without the surrogate's derivative.

The op checks leave the wiring unchecked: which alpha each node reads, the
conv gate after the ReLU, the residual skip, the LSTM's two uses of alpha.
``test_whole_model_gradients_match_the_straight_through_forward`` checks a
training step's task-loss gradients on a tiny model of every (arch,
granularity) pair.  It differences the whole forward with each gate's hard
factor replaced by one that equals it at the drawn alphas a0 and has the
straight-through derivative, so masked alphas and the LSTM's alphas are
checked too: a * I(a) -> a0 * I(a0) + a * m~(a) - a0 * m~(a0), and an LSTM
gate's mask I(a) -> I(a0) + m~(a) - m~(a0).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

import numpy as np
import pytest

from maskprune import gate as gate_mod
from maskprune import layers, objective
from maskprune.config import (GRANULARITY_FOR_ARCH, build_datasets, build_model,
                              validate_config)
from maskprune.gate import AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateParam, broadcast_mask
from maskprune.tensor import (Tape, Tensor, absolute, add, concat_cols, matmul, mul,
                              relu, reshape, scale, sigmoid, sum_all, tanh, transpose)

DEFAULT_STEP = 1e-5
REL_ERROR_FLOOR = 1e-6       # rel_error's denominator never drops below this


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a) + np.abs(b), REL_ERROR_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numeric_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                 step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def _away_from_zero(rng, shape, margin=0.05):
    # keep inputs clear of the relu/abs kinks so finite differences are valid
    x = rng.normal(size=shape)
    return x + np.where(x >= 0, margin, -margin)


def _projected(rng: np.random.Generator, op: Callable[..., Tensor],
               arrays: dict[str, np.ndarray], ref: Callable[..., Tensor] | None = None
               ) -> float:
    """Max relative error, over every array, between the tape's gradients of
    ``sum(op(*nodes) * proj)``, one tape node per array, and central
    differences; the runner of every tape check.

    ``proj`` is drawn with the shape of ``op``'s output, which one extra call
    on plain tensors finds.  A train-mode batchnorm updates its running
    statistics on that call, as on every finite-difference call; its output
    reads the batch statistics only, so no loss changes.  The finite
    differences are of ``sum(op(*arrays) * proj)`` in numpy, or with ``ref``
    of ``sum(ref(*arrays) * proj)``, ``ref`` being the computation ``op``
    stands in for: the forward with I -> m~ for a straight-through rule.
    """
    proj = rng.normal(size=op(*map(Tensor, arrays.values())).shape)
    tape = Tape()
    out = op(*(tape.param(name, a) for name, a in arrays.items()))
    grads = tape.backward(sum_all(mul(out, Tensor(proj))))
    fwd = ref or op

    def loss(_x):
        return float(np.sum(fwd(*map(Tensor, arrays.values())).data * proj))

    return max(rel_error(grads[name], numeric_grad(loss, a)) for name, a in arrays.items())


def _record(gate: GateParam | None, alpha: Tensor | None = None):
    """``gate``'s record on ``alpha``, or on a constant node of its own alpha
    (no gradient), on a tape of its own; None for no gate."""
    if gate is None:
        return None
    return gate_mod.evaluation(Tape(), gate, Tensor(gate.alpha) if alpha is None else alpha)


def _cases(draw: Callable[[np.random.Generator], Iterable[tuple]]):
    """The check that runs ``_projected`` on every (op, arrays[, ref]) case
    ``draw`` yields."""
    return lambda rng: max(_projected(rng, *case) for case in draw(rng))


def _elementwise(op: Callable, arity: int = 1):
    return _cases(lambda rng: [(op, {k: _away_from_zero(rng, shape) for k in "ab"[:arity]})
                               for shape in [(3,), (2, 4), (2, 3, 2)]])


def _broadcast_cases(rng):
    for big, small in [((4, 3), (3,)), ((2, 3, 4), (4,)), ((2, 3, 4), (3, 1))]:
        yield add, {"a": rng.normal(size=big), "b": rng.normal(size=small)}


def _matmul_cases(rng):
    for m, k, n in [(3, 4, 2), (1, 5, 3), (4, 2, 4)]:
        yield matmul, {"a": rng.normal(size=(m, k)), "b": rng.normal(size=(k, n))}


def _structural_cases(rng):
    def op(a, b):
        return reshape(reshape(transpose(concat_cols(a, b)), (6, 3)), (3, 6))

    yield op, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 2))}


def _conv_cases(rng):
    # the last three: non-square, then even sides under floor geometry, where
    # the 3x3/s2 conv never reads its trailing pad row and the 1x1/s2 one the
    # last input row
    for (b, n, m, (h, w), k, stride, pad) in [(2, 3, 4, (8, 8), 3, 1, 1),
                                              (1, 2, 3, (7, 7), 3, 2, 1),
                                              (2, 1, 2, (6, 6), 1, 1, 0),
                                              (2, 2, 3, (7, 5), 3, 1, 0),
                                              (2, 2, 3, (6, 8), 3, 2, 1),
                                              (2, 2, 3, (8, 6), 1, 2, 0)]:
        yield (partial(layers.conv2d, stride=stride, padding=pad),
               {"x": rng.normal(size=(b, n, h, w)), "w": rng.normal(size=(m, n, k, k))})
    # skipped zeros: the input is 0 outside the live channels, as a masked
    # unit's output is, and the output rows outside the live filters are
    # zeroed, so their upstream gradient is 0 and their backward skipped
    for (b, n, m, (h, w), k, stride, pad), chans, filters in [
            ((2, 3, 4, (6, 6), 3, 1, 1), [0, 2], [1, 2]),
            ((2, 3, 4, (6, 6), 3, 1, 1), [1], [0, 3]),
            ((1, 4, 3, (7, 6), 3, 2, 1), [0, 1, 3], [2]),
            ((2, 3, 3, (5, 5), 1, 2, 0), [], [0, 1])]:
        x = rng.normal(size=(b, n, h, w))
        x[:, np.setdiff1d(np.arange(n), chans)] = 0.0
        keep = np.zeros((1, m, 1, 1))
        keep[:, filters] = 1.0
        yield (lambda x, w, stride=stride, pad=pad, keep=keep:
               mul(layers.conv2d(x, w, stride, pad), Tensor(keep)),
               {"x": x, "w": rng.normal(size=(m, n, k, k))})
    # chained into the epilogue node, as a conv unit trains: batch-innermost
    # memory passes between the two nodes, and the gate's masked filter gets
    # no conv backward, as the epilogue passes it no gradient
    for (b, n, m, hw, stride), gated in [((2, 3, 4, 6, 1), True), ((3, 2, 3, 7, 2), False)]:
        gate = None
        if gated:
            gate = GateParam.create("filter", m, threshold=0.2)
            gate.alpha[:] = rng.uniform(0.5, 1.5, size=m)
            gate.alpha[1] = 0.05                          # masked

        def unit(x, w, gamma, beta, stride=stride, gate=gate,
                 state=layers.BnState.create(m)):
            return layers.batchnorm(layers.conv2d(x, w, stride, 1), gamma, beta, state,
                                    relu=True, gate=_record(gate))

        yield unit, {"x": rng.normal(size=(b, n, hw, hw)), "w": rng.normal(size=(m, n, 3, 3)),
                     "gamma": rng.normal(size=m) + 1.5, "beta": rng.normal(size=m)}


def _batchnorm_cases(rng):
    """The conv epilogue node in train mode (eval takes no gradient) with and
    without ReLU and a filter gate, one of whose filters is masked: the
    hard-forward gradients of x, gamma and beta (``batchnorm-alpha`` checks
    the gate's alpha)."""
    for (b, c, hw) in [(3, 2, 4), (2, 3, 3)]:
        for relu, gated in [(False, False), (True, False), (False, True), (True, True)]:
            state = layers.BnState(rng.normal(size=c) * 0.1, rng.random(size=c) + 0.5)
            gate = None
            if gated:
                gate = GateParam.create("filter", c, threshold=0.2)
                gate.alpha[:] = rng.uniform(0.5, 1.5, size=c)
                gate.alpha[c - 1] = 0.05          # masked
            yield (partial(layers.batchnorm, state=state, relu=relu, gate=_record(gate)),
                   {"x": rng.normal(size=(b, c, hw, hw)),
                    "gamma": rng.normal(size=c) + 1.5, "beta": rng.normal(size=c)})


def _linear_cases(rng):
    yield layers.linear, {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(5, 3)),
                          "b": rng.normal(size=5)}


def _pool_embed_cases(rng):
    yield layers.avg_pool_full, {"x": rng.normal(size=(2, 3, 4, 4))}
    yield (partial(layers.embedding, ids=rng.integers(0, 7, size=5)),
           {"table": rng.normal(size=(7, 3))})


def _cross_entropy_cases(rng):
    yield (partial(objective.cross_entropy, labels=rng.integers(0, 4, size=6)),
           {"logits": rng.normal(size=(6, 4))})


def _masked_l2_cases(rng):
    gate = GateParam.create("filter", 3)
    gate.alpha[:] = [1.0, 1e-6, -0.7]   # middle entity pruned
    yield (lambda w: objective.masked_l2([(_record(gate), [(w, AXIS0)])]),
           {"w": rng.normal(size=(3, 2, 2))})


# the granularity whose gates meet their tensor under each membership mode
_GRANULARITY = {AXIS0: "filter", AXIS1: "filter", WHOLE: "subnetwork",
                ELEMENTWISE: "weight"}


def _apply_gate_x_cases(rng):
    """Gradient w.r.t. the gated input uses the exact forward scale."""
    for mode, shape, d in [(AXIS0, (4, 3), 4), (AXIS1, (2, 5, 3), 5), (WHOLE, (6,), 1),
                           (ELEMENTWISE, (3, 4), 12)]:
        gate = GateParam.create(_GRANULARITY[mode], d)
        gate.alpha[:] = rng.normal(size=d) * 0.8
        yield (partial(gate_mod.apply_gate, ev=_record(gate), mode=mode),
               {"x": rng.normal(size=shape)})


# (mode, input shape, alphas) around a 0.2 threshold, clear of the |alpha| kink
_ALPHA_CASES = [(AXIS0, (5, 3), [0.6, -0.35, 0.12, -0.07, 1.1]),
                (AXIS1, (2, 4, 3), [-0.5, 0.09, 0.3, -0.15]),
                (WHOLE, (6,), [0.12]),
                (WHOLE, (2, 3), [-0.45]),
                (ELEMENTWISE, (3, 4), [0.6, -0.35, 0.12, -0.07, 1.1, -0.5,
                                       0.09, 0.3, -0.15, 0.25, -0.9, 0.16])]


def _smooth(gate: GateParam, alpha: np.ndarray, scaled: bool) -> np.ndarray:
    """The smooth stand-in for the hard factor: ``alpha * m~(alpha)`` when
    ``scaled``, else ``m~(alpha)``."""
    m = gate_mod.surrogate_terms(alpha, gate.threshold, gate.beta).m
    return alpha * m if scaled else m


def _gate_alpha_cases(apply: Callable, scaled: bool):
    """Alpha gradient of ``apply`` (``apply_gate`` when ``scaled``, else
    ``apply_mask``) against its forward with I -> m~."""

    def draw(rng):
        for mode, shape, alphas in _ALPHA_CASES:
            gate = GateParam.create(_GRANULARITY[mode], len(alphas), threshold=0.2)
            x = rng.normal(size=shape)
            yield (lambda alpha, x=x, gate=gate, mode=mode:
                   apply(Tensor(x), _record(gate, alpha), mode),
                   {"alpha": np.array(alphas)},
                   lambda alpha, x=x, gate=gate, mode=mode: Tensor(
                       broadcast_mask(_smooth(gate, alpha.data, scaled), x.shape, mode) * x))

    return draw


def _batchnorm_alpha_cases(rng):
    """Alpha gradient of the gated conv epilogue against its forward with I -> m~.

    Train mode, where the node computes every filter, with and without ReLU.
    The loss is linear in the gated output, so the smooth forward may scale
    the pre-gate output, the ungated node's, by ``alpha * m~(alpha)``.
    """
    alphas = next(a for mode, _, a in _ALPHA_CASES if mode == AXIS1)
    c = len(alphas)
    gate = GateParam.create("filter", c, threshold=0.2)
    shape = (2, c, 3, 3)
    for relu in (True, False):
        x = Tensor(rng.normal(size=shape))
        gamma, beta = Tensor(rng.normal(size=c) + 1.5), Tensor(rng.normal(size=c))
        bn = partial(layers.batchnorm, x, gamma, beta, relu=relu)
        yield (lambda alpha, bn=bn: bn(layers.BnState.create(c), gate=_record(gate, alpha)),
               {"alpha": np.array(alphas)},
               lambda alpha, bn=bn: mul(bn(layers.BnState.create(c)), Tensor(
                   broadcast_mask(_smooth(gate, alpha.data, True), shape, AXIS1))))


def _ratio_hinge_alpha_cases(rng):
    """Hinge alpha gradient against the hinge of the surrogate count."""
    gates = [GateParam.create("node", 4, threshold=0.2, name="g0"),
             GateParam.create("node", 3, threshold=0.2, name="g1")]
    gates[0].alpha[:] = [0.6, -0.35, 0.12, -0.07]
    gates[1].alpha[:] = [1.1, -0.5, 0.3]
    c = 0.25      # 5 of 7 active: hard and surrogate fractions both exceed c

    def ref(*alphas):
        active = sum(np.sum(_smooth(g, a.data, False)) for g, a in zip(gates, alphas))
        return Tensor(max(0.0, active / 7 - c))

    yield (lambda *alphas: objective.ratio_hinge(list(map(_record, gates, alphas)), c),
           {g.name: g.alpha for g in gates}, ref)


def _lstm_leaves(rng, b: int, T: int, e: int, h: int) -> dict[str, np.ndarray]:
    """Inputs ``xs`` [b, T, e], then a layer's ``W_k`` and ``b_k`` by ``_PACKED``."""
    arrays = {"xs": rng.normal(size=(b, T, e))}
    arrays.update({f"W_{k}": rng.normal(size=(h, h + e)) * 0.5 for k in layers._PACKED})
    arrays.update({f"b_{k}": rng.normal(size=h) * 0.1 for k in layers._PACKED})
    return arrays


def _lstm_node(gates: list[GateParam] | None, xs: Tensor, *leaves: Tensor) -> Tensor:
    """The LSTM layer's sequence node on ``xs`` and the packed ``W``, ``b``
    and alpha leaves; without alpha leaves, ``gates`` scale by their own
    alphas as constants.  The cases call the node, not ``LstmCell.step``:
    ``step`` registers the layer's parameters under the layer's names, and
    the harness registers each case array under its own key."""
    W, b, alpha = leaves[:4], leaves[4:8], leaves[8:] or [None] * 4
    evs = None if gates is None else list(map(_record, gates, alpha))
    return layers._lstm_sequence(xs, W, b, evs)


def _lstm_cell_cases(rng):
    """The sequence node ungated and gated, one node of each recurrence gate
    masked: the hard-forward gradients of xs, W and b (``lstm-cell-alpha``
    checks the alphas)."""
    b, T, e, h = 2, 3, 3, 4
    for gates in ([GateParam.create("node", h, threshold=0.2) for _ in layers._PACKED], None):
        for j, g in enumerate(gates or ()):
            g.alpha[:] = rng.uniform(0.5, 1.5, size=h)
            g.alpha[j] = 0.05         # masked
        yield partial(_lstm_node, gates), _lstm_leaves(rng, b, T, e, h)


# per recurrence gate, alphas around a 0.2 threshold, clear of the |alpha| kink
_LSTM_ALPHAS = {"f": [0.6, -0.35, 0.12, -0.07], "i": [1.1, 0.09, -0.5, 0.3],
                "g": [-0.15, 0.25, 0.9, -0.16], "o": [0.45, -0.9, 0.16, 0.05]}


def _lstm_cell_alpha_cases(rng):
    """Alpha gradient of the gated sequence node against its forward with I -> m~.

    Each hard mask I(alpha) becomes I(alpha_0) + m~(alpha) - m~(alpha_0),
    which equals it at the checked alphas alpha_0 and has derivative m~'.  So
    every value downstream of a mask is the hard forward's, as in the
    straight-through backward, and only the mask's derivative is replaced.
    """
    b, T, e, h, t, beta = 3, 3, 2, 4, 0.2, gate_mod.DEFAULT_BETA
    gates = [GateParam.create("node", h, threshold=t, beta=beta) for _ in layers._PACKED]
    base = {k: np.array(v) for k, v in _LSTM_ALPHAS.items()}
    arrays = _lstm_leaves(rng, b, T, e, h)
    arrays.update({f"alpha_{k}": base[k].copy() for k in layers._PACKED})

    def ref(xs, *leaves):
        W, bias, alpha = (dict(zip(layers._PACKED, (v.data for v in leaves[i:i + 4])))
                          for i in (0, 4, 8))
        hs, cs = np.zeros((b, h)), np.zeros((b, h))
        out = []
        for step in range(T):
            z = np.concatenate([hs, xs.data[:, step]], axis=1)
            act = {}
            for k in layers._PACKED:
                a = alpha[k]
                u = a * (z @ W[k].T + bias[k])
                m = (gate_mod.hard_mask(base[k], t) + gate_mod.surrogate_terms(a, t, beta).m
                     - gate_mod.surrogate_terms(base[k], t, beta).m)
                act[k] = m * (np.tanh(u) if k == "g" else 1.0 / (1.0 + np.exp(-u)))
            cs = act["f"] * cs + act["i"] * act["g"]
            hs = act["o"] * np.tanh(cs)
            out.append(hs)
        return Tensor(np.stack(out, axis=1))

    yield partial(_lstm_node, gates), arrays, ref


def _closed_form(fn: Callable, xs: np.ndarray, step: float) -> float:
    """Max relative error of the derivative ``fn(xs)[1]`` against central
    differences of the function ``fn(xs)[0]``."""
    return rel_error(fn(xs)[1], (fn(xs + step)[0] - fn(xs - step)[0]) / (2 * step))


def _foothill_check(rng):
    xs = np.concatenate([rng.uniform(-2.0, 2.0, size=14), [0.1, 0.5, 1.0, -0.5,
                                                           0.02, -0.02]])
    return _closed_form(lambda x: gate_mod.foothill(x, 5.0), xs, 1e-6)


def _surrogate_check(rng):
    alphas = rng.uniform(-2.0, 2.0, size=20)
    return _closed_form(lambda a: gate_mod.surrogate_terms(a, 0.2, 5.0)[:2],
                        alphas[np.abs(alphas) > 1e-4], 1e-7)


CHECKS: dict[str, Callable] = {
    "add": _elementwise(add, arity=2),
    "mul": _elementwise(mul, arity=2),
    "scale": _elementwise(lambda a: scale(a, 1.7)),
    "sigmoid": _elementwise(sigmoid),
    "tanh": _elementwise(tanh),
    "relu": _elementwise(relu),
    "abs": _elementwise(absolute),
    "broadcast": _cases(_broadcast_cases),
    "matmul": _cases(_matmul_cases),
    "structural": _cases(_structural_cases),
    "conv2d": _cases(_conv_cases),
    "batchnorm": _cases(_batchnorm_cases),
    "linear": _cases(_linear_cases),
    "pool-embed": _cases(_pool_embed_cases),
    "cross-entropy": _cases(_cross_entropy_cases),
    "apply-gate-x": _cases(_apply_gate_x_cases),
    "apply-gate-alpha": _cases(_gate_alpha_cases(gate_mod.apply_gate, scaled=True)),
    "apply-mask-alpha": _cases(_gate_alpha_cases(gate_mod.apply_mask, scaled=False)),
    "batchnorm-alpha": _cases(_batchnorm_alpha_cases),
    "ratio-hinge-alpha": _cases(_ratio_hinge_alpha_cases),
    "masked-l2": _cases(_masked_l2_cases),
    "lstm-cell": _cases(_lstm_cell_cases),
    "lstm-cell-alpha": _cases(_lstm_cell_alpha_cases),
    "foothill": _foothill_check,
    "surrogate-mask": _surrogate_check,
}

# every check's bound on its max relative error; the surrogate pair is
# closed-form, so it is held much tighter
TOLERANCE = dict.fromkeys(CHECKS, 1e-4) | {"foothill": 1e-6, "surrogate-mask": 1e-5}
CLOSED_FORM = ["foothill", "surrogate-mask"]
STRAIGHT_THROUGH = ["apply-gate-alpha", "apply-mask-alpha", "batchnorm-alpha",
                    "ratio-hinge-alpha", "lstm-cell-alpha"]


def _max_error(name: str) -> float:
    return CHECKS[name](np.random.default_rng(0))


@pytest.mark.parametrize("name", CHECKS)
def test_gradcheck(name):
    assert _max_error(name) < TOLERANCE[name]


@pytest.mark.parametrize("name", [n for n in CHECKS if n not in CLOSED_FORM])
def test_tape_check_fails_on_gradients_off_by_a_thousandth(name, monkeypatch):
    # catches a case table that runs no case, or a case that never compares
    # the tape's gradient; only the closed-form pair runs without a tape
    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward", lambda self, loss: {
        n: g * 1.001 for n, g in backward(self, loss).items()})
    assert _max_error(name) >= TOLERANCE[name]


@pytest.mark.parametrize("name", STRAIGHT_THROUGH)
def test_straight_through_check_fails_without_surrogate_slope(name, monkeypatch):
    foothill = gate_mod.foothill

    def flat(x, beta):
        f, df = foothill(x, beta)
        return f, np.zeros_like(df)

    # the one surrogate pass then yields m~' = 0, and m~ + alpha * m~' = m~
    monkeypatch.setattr(gate_mod, "foothill", flat)
    assert _max_error(name) >= TOLERANCE[name]


# -- the whole-model straight-through oracle --------------------------------

# one tiny run config per arch; every pair in GRANULARITY_FOR_ARCH builds one
_TINY = {
    "mlp": {"dataset": "synth-class", "data_dim": 4, "mlp_hidden": [3],
            "data_classes": 3},
    "toy-convnet": {"dataset": "synth-images", "image_hw": 5, "image_channels": 2,
                    "conv_channels": [3, 3], "data_classes": 3},
    "resnet-small": {"dataset": "synth-images", "image_hw": 5, "image_channels": 2,
                     "stage_widths": [2, 3], "blocks_per_stage": 1, "data_classes": 3},
    "lstm-classifier": {"dataset": "synth-seq-majority", "data_vocab": 5,
                        "data_seq_len": 3, "embed_dim": 2, "lstm_hidden": 3,
                        "lstm_stacks": 2},
    "lstm-lm": {"dataset": "synth-seq-markov", "data_vocab": 4, "data_seq_len": 3,
                "embed_dim": 2, "lstm_hidden": 3, "lstm_stacks": 2},
}
PAIRS = [f"{a}/{g}" for a, grans in GRANULARITY_FOR_ARCH.items() for g in grans]
ORACLE_SAMPLES = 6           # checked entries per weight or bias array; every alpha
ORACLE_TOLERANCE = 1e-4      # the op checks' bound


def _oracle_model(pair: str, rng: np.random.Generator):
    """The pair's tiny model with weights and biases drawn from N(0, 1) and
    alphas in +-[0.3, 1.5] around a 0.1 threshold, one component of every
    other gate at 0.03, masked; and a batch of 8 samples."""
    arch, gran = pair.split("/")
    cfg = validate_config({"schema_version": 1, "arch": arch, "granularity": gran,
                           "gate_t": 0.1, "data_n": 8, "data_test_n": 1, "batch_size": 8,
                           **_TINY[arch]})
    model = build_model(cfg)
    for i, g in enumerate(model.gates()):
        g.alpha[:] = rng.uniform(0.3, 1.5, size=g.dim) * rng.choice([-1.0, 1.0], size=g.dim)
        if i % 2 == 0:
            g.alpha[i // 2 % g.dim] = 0.03
    for name, arr in model.params().items():   # unit scale: no gradient too small to count
        if not name.endswith(".alpha"):
            arr[:] = rng.normal(size=arr.shape)
    ds = build_datasets(cfg)[0]
    return model, ds.inputs, model.flatten_labels(ds.labels)


def _straight_through_forward(monkeypatch, model, lstm: bool):
    """Make every gate's hard factor one that equals it at the current
    alphas a0 and has the straight-through derivative: a * I(a) ->
    a0 * I(a0) + a * m~(a) - a0 * m~(a0) (its alpha, under a mask of ones),
    or for an LSTM gate's mask I(a) -> I(a0) + m~(a) - m~(a0)."""
    drawn = {id(g): g.alpha.copy() for g in model.gates()}
    make = gate_mod.GateEval.__init__

    def smooth_factor(ev, gate, node):
        make(ev, gate, node)
        a0, hard = drawn[id(gate)], gate_mod.hard_mask(drawn[id(gate)], gate.threshold)
        if lstm:
            ev.mask = hard + _smooth(gate, ev.alpha, False) - _smooth(gate, a0, False)
        else:
            ev.alpha = a0 * hard + _smooth(gate, ev.alpha, True) - _smooth(gate, a0, True)
            ev.mask = np.ones(gate.dim)

    monkeypatch.setattr(gate_mod.GateEval, "__init__", smooth_factor)


def _oracle_error(pair: str, monkeypatch) -> float:
    """Max relative error, over the weights, biases and alphas of the pair's
    model, between the training step's task-loss gradients and central
    differences of the task loss under the straight-through forward."""
    rng = np.random.default_rng(7)
    model, x, y = _oracle_model(pair, rng)

    def task_loss():
        tape = Tape()
        return tape, objective.cross_entropy(model.forward(tape, x, "train"), y)

    tape, loss = task_loss()
    grads = tape.backward(loss)
    _straight_through_forward(monkeypatch, model, pair.startswith("lstm"))
    worst = 0.0
    for name, arr in model.params().items():
        flat = arr.reshape(-1)
        picks = (range(flat.size) if name.endswith(".alpha") else
                 rng.choice(flat.size, min(flat.size, ORACLE_SAMPLES), replace=False))
        for i in picks:
            orig, diff = flat[i], []
            for step in (DEFAULT_STEP, -DEFAULT_STEP):
                flat[i] = orig + step
                diff.append(task_loss()[1].item())
            flat[i] = orig
            numeric = (diff[0] - diff[1]) / (2.0 * DEFAULT_STEP)
            worst = max(worst, rel_error(grads[name].reshape(-1)[i], numeric))
    return worst


@pytest.mark.parametrize("pair", PAIRS)
def test_whole_model_gradients_match_the_straight_through_forward(pair, monkeypatch):
    assert _oracle_error(pair, monkeypatch) < ORACLE_TOLERANCE

"""The three-term regularized training objective.

    J = task loss
      + lambda1 * sum |alpha|          (drives scaling factors to zero)
      + lambda2 * masked l2            (weight decay on *active* entities only)
      + lambda3 * hinge                (penalizes active fraction above target)

Terms with a zero coefficient are skipped entirely, so the degenerate
objective is literally the task loss node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gate import GateParam, surrogate_mask_grad
from .tensor import ShapeError, Tensor, absolute, add, custom_grad, scale, sum_all


@dataclass
class ObjectiveConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    target_c: float = 1.0    # target REMAINING fraction of entities

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.target_c <= 1.0):
            raise ValueError(f"target_c must lie in (0, 1], got {self.target_c}")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log softmax probability of the labels, max-stabilized."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected [batch, classes], got {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({b},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -logp[np.arange(b), labels].mean()

    def rule(g):
        grad = np.exp(logp)
        grad[np.arange(b), labels] -= 1.0
        return (grad * (float(g) / b),)

    return custom_grad(loss, (logits,), rule, op="cross_entropy")


def l1_alpha(alpha_nodes: Sequence[Tensor]) -> Tensor:
    """Sum of |alpha| over all gates; subgradient at 0 is 0."""
    total = None
    for a in alpha_nodes:
        term = sum_all(absolute(a))
        total = term if total is None else add(total, term)
    return total if total is not None else Tensor(0.0)


# membership: how one gate component selects entries of a tensor
AXIS0 = "axis0"            # component i <-> slice i along axis 0
AXIS1 = "axis1"            # component i <-> slice i along axis 1 (next layer's inputs)
WHOLE = "whole"            # d == 1, scalar mask covers the whole tensor
ELEMENTWISE = "elementwise"  # d == size, mask reshaped to the tensor's shape


def broadcast_mask(m: np.ndarray, shape: tuple, mode: str) -> np.ndarray:
    """View of the per-component vector ``m`` that broadcasts over ``shape``.

    Raises ``ShapeError`` when the tensor's extent under ``mode`` does not
    match ``len(m)``.
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


def masked_l2(groups: Sequence[tuple[GateParam, Sequence[tuple[Tensor, str]]]]) -> Tensor:
    """Sum of squared weights over entities whose hard mask is active.

    ``groups`` pairs each gate with the weight nodes it owns and the
    membership mode tying mask components to tensor entries.  Pruned
    entities contribute nothing and their weights receive zero gradient;
    the mask itself is a constant here (no gradient flows to alpha).
    """
    terms = []
    for gate, members in groups:
        m = gate.mask()
        terms += [(node, broadcast_mask(m, node.shape, mode)) for node, mode in members]

    value = 0.0
    for node, mb in terms:
        value += float(np.sum(mb * node.data ** 2))

    def rule(g):
        return tuple(2.0 * float(g) * mb * node.data for node, mb in terms)

    return custom_grad(value, tuple(node for node, _ in terms), rule, op="masked_l2")


def ratio_hinge(gates: Sequence[tuple[GateParam, Tensor]], K: int, c: float) -> Tensor:
    """max(0, active_fraction - c) over all gate components.

    Forward counts hard-mask ones; backward substitutes the surrogate mask
    derivative so that an over-budget network pushes its scaling factors
    down.  Once the active fraction reaches the target the term and all its
    gradients are exactly zero.
    """
    if K <= 0:
        raise ValueError(f"ratio_hinge: K must be positive, got {K}")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"ratio_hinge: c must lie in (0, 1], got {c}")
    active = sum(g.active_count() for g, _ in gates)
    value = max(0.0, active / K - c)
    specs = [(gate, node) for gate, node in gates]

    def rule(g):
        if value <= 0.0:
            return tuple(np.zeros_like(node.data) for _, node in specs)
        return tuple(
            (float(g) / K) * surrogate_mask_grad(node.data, gate.threshold, gate.beta)
            for gate, node in specs)

    return custom_grad(value, tuple(node for _, node in specs), rule, op="ratio_hinge")


def total_objective(task_loss: Tensor,
                    alpha_nodes: Sequence[Tensor],
                    l2_groups: Sequence[tuple[GateParam, Sequence[tuple[Tensor, str]]]],
                    hinge_gates: Sequence[tuple[GateParam, Tensor]],
                    cfg: ObjectiveConfig,
                    K: int) -> tuple[Tensor, dict[str, float]]:
    """Assemble the full objective; returns the loss node and a breakdown.

    The breakdown reports each term already scaled by its coefficient, so
    the components sum to the objective value.
    """
    total = task_loss
    parts = {"task_loss": task_loss.item(), "l1_term": 0.0, "l2_term": 0.0,
             "hinge_term": 0.0}
    if cfg.lambda1 > 0.0 and alpha_nodes:
        term = scale(l1_alpha(alpha_nodes), cfg.lambda1)
        parts["l1_term"] = term.item()
        total = add(total, term)
    if cfg.lambda2 > 0.0 and l2_groups:
        term = scale(masked_l2(l2_groups), cfg.lambda2)
        parts["l2_term"] = term.item()
        total = add(total, term)
    if cfg.lambda3 > 0.0 and hinge_gates:
        term = scale(ratio_hinge(hinge_gates, K, cfg.target_c), cfg.lambda3)
        parts["hinge_term"] = term.item()
        total = add(total, term)
    return total, parts

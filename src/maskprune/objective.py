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

from .gate import GateParam, broadcast_mask, surrogate_mask_grad
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


def ratio_hinge(gates: Sequence[tuple[GateParam, Tensor]], c: float) -> Tensor:
    """max(0, active_fraction - c) over all K components of ``gates``.

    Forward counts hard-mask ones; backward substitutes the surrogate mask
    derivative so that an over-budget network pushes its scaling factors
    down.  Once the active fraction reaches the target the term and all its
    gradients are exactly zero.
    """
    K = sum(g.dim for g, _ in gates)
    if K == 0:
        raise ValueError("ratio_hinge: no gate components")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"ratio_hinge: c must lie in (0, 1], got {c}")
    active = sum(g.active_count() for g, _ in gates)
    value = max(0.0, active / K - c)

    def rule(g):
        if value <= 0.0:
            return tuple(np.zeros_like(node.data) for _, node in gates)
        return tuple(
            (float(g) / K) * surrogate_mask_grad(node.data, gate.threshold, gate.beta)
            for gate, node in gates)

    return custom_grad(value, tuple(node for _, node in gates), rule, op="ratio_hinge")


def total_objective(task_loss: Tensor,
                    alpha_nodes: Sequence[Tensor],
                    l2_groups: Sequence[tuple[GateParam, Sequence[tuple[Tensor, str]]]],
                    hinge_gates: Sequence[tuple[GateParam, Tensor]],
                    cfg: ObjectiveConfig) -> tuple[Tensor, dict[str, float]]:
    """Assemble the full objective; returns the loss node and a breakdown.

    The breakdown reports each term already scaled by its coefficient, so
    the components sum to the objective value.
    """
    total = task_loss
    parts = {"task_loss": task_loss.item()}
    for key, coeff, inputs, build in (
            ("l1_term", cfg.lambda1, alpha_nodes, lambda: l1_alpha(alpha_nodes)),
            ("l2_term", cfg.lambda2, l2_groups, lambda: masked_l2(l2_groups)),
            ("hinge_term", cfg.lambda3, hinge_gates,
             lambda: ratio_hinge(hinge_gates, cfg.target_c))):
        parts[key] = 0.0
        if coeff > 0.0 and inputs:
            term = scale(build(), coeff)
            parts[key] = term.item()
            total = add(total, term)
    return total, parts

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

from .gate import GateEval, broadcast_mask
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


Group = tuple[GateEval, Sequence[tuple[Tensor, str]]]


def masked_l2(groups: Sequence[Group]) -> Tensor:
    """Sum of squared weights over entities whose hard mask is active.

    ``groups`` gives each gate's record on this tape, whose ``mask`` is the
    hard mask, with the weight nodes the gate owns and the membership mode
    tying mask components to tensor entries.  Pruned entities contribute
    nothing and their weights receive zero gradient; the mask itself is a
    constant here (no gradient flows to alpha).
    """
    terms = [(node, broadcast_mask(ev.mask, node.shape, mode))
             for ev, members in groups for node, mode in members]

    value = 0.0
    for node, mb in terms:
        # the square, then the mask in place: a bool mask broadcast against a
        # float array is numpy's slow path
        sq = np.square(node.data)
        sq *= mb
        value += float(np.sum(sq))

    def rule(g):
        return tuple(2.0 * float(g) * mb * node.data for node, mb in terms)

    return custom_grad(value, tuple(node for node, _ in terms), rule, op="masked_l2")


def ratio_hinge(evs: Sequence[GateEval], c: float) -> Tensor:
    """max(0, active_fraction - c) over all K components of the gates whose
    records on this tape are ``evs``.

    Forward counts hard-mask ones; backward substitutes the surrogate mask
    derivative m~', both read from each record, which the gated ops share,
    and puts the gradient on each record's alpha ``node``.  So an
    over-budget network pushes its scaling factors down, but only near the
    threshold: the foothill derivative overshoots, and with u* ~ 1.19968
    solving u tanh u = 1, m~'(alpha) > 0 for t < |alpha| < t + 2u*/beta and
    < 0 beyond (0.47997 at t = 1e-4, beta = 5).  Above that boundary, the
    default ``alpha_init`` of 1.0 included, descent on this term raises
    |alpha|.  Once the active fraction reaches the target the term and all
    its gradients are exactly zero.
    """
    K = sum(ev.gate.dim for ev in evs)
    if K == 0:
        raise ValueError("ratio_hinge: no gate components")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"ratio_hinge: c must lie in (0, 1], got {c}")
    active = sum(int(ev.mask.sum()) for ev in evs)
    value = max(0.0, active / K - c)

    def rule(g):
        if value <= 0.0:
            return tuple(np.zeros_like(ev.alpha) for ev in evs)
        return tuple((float(g) / K) * ev.terms.dm for ev in evs)

    return custom_grad(value, tuple(ev.node for ev in evs), rule, op="ratio_hinge")


def total_objective(task_loss: Tensor, groups: Sequence[Group],
                    cfg: ObjectiveConfig) -> tuple[Tensor, dict[str, float]]:
    """Assemble the full objective; returns the loss node and a breakdown.

    ``groups`` gives each gate's record on this tape with the weight nodes
    it decays, as ``masked_l2`` takes them; the l1 term reads the records'
    alpha nodes and the hinge term the records.  The breakdown reports each
    term already scaled by its coefficient, so the components sum to the
    objective value.
    """
    total = task_loss
    parts = {"task_loss": task_loss.item()}
    evs = [ev for ev, _ in groups]
    for key, coeff, build in (
            ("l1_term", cfg.lambda1, lambda: l1_alpha([ev.node for ev in evs])),
            ("l2_term", cfg.lambda2, lambda: masked_l2(groups)),
            ("hinge_term", cfg.lambda3, lambda: ratio_hinge(evs, cfg.target_c))):
        parts[key] = 0.0
        if coeff > 0.0 and groups:
            term = scale(build(), coeff)
            parts[key] = term.item()
            total = add(total, term)
    return total, parts

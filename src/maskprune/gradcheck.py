"""Finite-difference verification of every backward rule with a true derivative.

Each named check builds a scalar loss from seeded random inputs, runs the
tape backward, and compares against central differences computed by re-running
the forward as a pure function of the perturbed arrays.

The straight-through rules (the alpha gradients of ``apply_gate``,
``apply_mask`` and ``ratio_hinge``) are not derivatives of their hard
forward pass.  Their checks difference the forward pass they stand in for
instead: the same computation with every hard mask I(.) replaced by the
surrogate m~(.), at alphas on both sides of the threshold and clear of 0.
That is the defining property of the estimator (Bengio et al., 2013,
arXiv:1308.3432).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import gate as gate_mod
from . import layers, objective
from .gate import AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateParam, broadcast_mask
from .tensor import (Tape, Tensor, absolute, add, concat_cols, matmul, mul,
                     relu, reshape, scale, sigmoid, sub, sum_all, tanh,
                     transpose)

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
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


def check_loss(build: Callable[[Tape, dict], Tensor], arrays: dict[str, np.ndarray],
               wrt: Sequence[str] | None = None, step: float = DEFAULT_STEP,
               smooth: Callable[[dict], float] | None = None) -> float:
    """Max relative error between tape gradients and finite differences.

    ``build(tape, arrays)`` must register each checked array under its dict
    key and return a scalar loss.  ``wrt`` restricts which arrays are checked.
    The finite differences are of ``build``'s loss, or of ``smooth(arrays)``
    when given: for a straight-through rule, the same forward pass with I(.)
    replaced by m~(.).  Without ``smooth``, arrays that reach a straight-through
    rule must be left out of ``wrt``.
    """
    tape = Tape()
    loss = build(tape, arrays)
    grads = tape.backward(loss)
    worst = 0.0
    for name in (wrt if wrt is not None else arrays):
        def f(_x):
            return smooth(arrays) if smooth else build(Tape(), arrays).item()

        num = numeric_grad(f, arrays[name], step)
        worst = max(worst, rel_error(grads[name].data, num))
    return worst


def _away_from_zero(rng, shape, margin=0.05):
    # keep inputs clear of the relu/abs kinks so finite differences are valid
    x = rng.normal(size=shape)
    return x + np.where(x >= 0, margin, -margin)


def _elementwise_check(opname: str):
    shapes = [(3,), (2, 4), (2, 3, 2)]

    def run(rng: np.random.Generator) -> float:
        worst = 0.0
        for shape in shapes:
            a = _away_from_zero(rng, shape)
            b = _away_from_zero(rng, shape)
            proj = rng.normal(size=shape)

            def build(tape, arrays):
                an = tape.param("a", arrays["a"])
                if opname in ("add", "sub", "mul"):
                    bn = tape.param("b", arrays["b"])
                    out = {"add": add, "sub": sub, "mul": mul}[opname](an, bn)
                elif opname == "scale":
                    out = scale(an, 1.7)
                else:
                    out = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu,
                           "abs": absolute}[opname](an)
                return sum_all(mul(out, tape.leaf(proj)))

            arrays = {"a": a}
            if opname in ("add", "sub", "mul"):
                arrays["b"] = b
            worst = max(worst, check_loss(build, arrays))
        return worst

    return run


def _broadcast_check(rng):
    worst = 0.0
    for big, small in [((4, 3), (3,)), ((2, 3, 4), (4,)), ((2, 3, 4), (3, 1))]:
        a = rng.normal(size=big)
        b = rng.normal(size=small)
        proj = rng.normal(size=big)

        def build(tape, arrays):
            out = mul(add(tape.param("a", arrays["a"]), tape.param("b", arrays["b"])),
                      tape.leaf(proj))
            return sum_all(out)

        worst = max(worst, check_loss(build, {"a": a, "b": b}))
    return worst


def _matmul_check(rng):
    worst = 0.0
    for mshape in [(3, 4, 2), (1, 5, 3), (4, 2, 4)]:
        m, k, n = mshape
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        proj = rng.normal(size=(m, n))

        def build(tape, arrays):
            out = matmul(tape.param("a", arrays["a"]), tape.param("b", arrays["b"]))
            return sum_all(mul(out, tape.leaf(proj)))

        worst = max(worst, check_loss(build, {"a": a, "b": b}))
    return worst


def _structural_check(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 2))
    proj = rng.normal(size=(3, 6))

    def build(tape, arrays):
        cat = concat_cols(tape.param("a", arrays["a"]), tape.param("b", arrays["b"]))
        out = reshape(transpose(cat), (6, 3))
        return sum_all(mul(reshape(out, (3, 6)), tape.leaf(proj)))

    return check_loss(build, {"a": a, "b": b})


def _conv_check(rng):
    worst = 0.0
    # the last three: non-square, then even sides under floor geometry, where
    # the 3x3/s2 conv never reads its trailing pad row and the 1x1/s2 one the
    # last input row
    for (b, n, m, (h, w_), k, stride, pad) in [(2, 3, 4, (8, 8), 3, 1, 1),
                                               (1, 2, 3, (7, 7), 3, 2, 1),
                                               (2, 1, 2, (6, 6), 1, 1, 0),
                                               (2, 2, 3, (7, 5), 3, 1, 0),
                                               (2, 2, 3, (6, 8), 3, 2, 1),
                                               (2, 2, 3, (8, 6), 1, 2, 0)]:
        x = rng.normal(size=(b, n, h, w_))
        w = rng.normal(size=(m, n, k, k))
        proj = rng.normal(size=(b, m, (h + 2 * pad - k) // stride + 1,
                                (w_ + 2 * pad - k) // stride + 1))

        def build(tape, arrays):
            out = layers.conv2d(tape.param("x", arrays["x"]),
                                tape.param("w", arrays["w"]), stride, pad)
            return sum_all(mul(out, tape.leaf(proj)))

        worst = max(worst, check_loss(build, {"x": x, "w": w}))
    return worst


def _batchnorm_check(rng):
    worst = 0.0
    for mode in ("train", "eval"):
        for (b, c, hw) in [(3, 2, 4), (2, 3, 3)]:
            x = rng.normal(size=(b, c, hw, hw))
            gamma = rng.normal(size=c) + 1.5
            beta = rng.normal(size=c)
            proj = rng.normal(size=(b, c, hw, hw))
            state = layers.BnState(rng.normal(size=c) * 0.1,
                                   rng.random(size=c) + 0.5)

            def build(tape, arrays, _mode=mode, _state=state):
                out = layers.batchnorm(tape.param("x", arrays["x"]),
                                       tape.param("gamma", arrays["gamma"]),
                                       tape.param("beta", arrays["beta"]),
                                       _state, _mode)
                return sum_all(mul(out, tape.leaf(proj)))

            worst = max(worst, check_loss(
                build, {"x": x, "gamma": gamma, "beta": beta}))
    return worst


def _linear_check(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=5)
    proj = rng.normal(size=(4, 5))

    def build(tape, arrays):
        out = layers.linear(tape.param("x", arrays["x"]), tape.param("w", arrays["w"]),
                            tape.param("b", arrays["b"]))
        return sum_all(mul(out, tape.leaf(proj)))

    return check_loss(build, {"x": x, "w": w, "b": b})


def _pool_embed_check(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    table = rng.normal(size=(7, 3))
    ids = rng.integers(0, 7, size=5)
    proj1 = rng.normal(size=(2, 3))
    proj2 = rng.normal(size=(5, 3))

    def build(tape, arrays):
        p = layers.avg_pool_full(tape.param("x", arrays["x"]))
        e = layers.embedding(tape.param("table", arrays["table"]), ids)
        return add(sum_all(mul(p, tape.leaf(proj1))),
                   sum_all(mul(e, tape.leaf(proj2))))

    return check_loss(build, {"x": x, "table": table})


def _cross_entropy_check(rng):
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)

    def build(tape, arrays):
        return objective.cross_entropy(tape.param("logits", arrays["logits"]), labels)

    return check_loss(build, {"logits": logits})


# the granularity whose gates meet their tensor under each membership mode
_GRANULARITY = {AXIS0: "filter", AXIS1: "filter", WHOLE: "subnetwork",
                ELEMENTWISE: "weight"}


def _apply_gate_x_check(rng):
    """Gradient w.r.t. the gated input uses the exact forward scale."""
    worst = 0.0
    for mode, shape, d in [(AXIS0, (4, 3), 4), (AXIS1, (2, 5, 3), 5), (WHOLE, (6,), 1),
                           (ELEMENTWISE, (3, 4), 12)]:
        gate = GateParam.create(_GRANULARITY[mode], d)
        gate.alpha[:] = rng.normal(size=d) * 0.8
        x = rng.normal(size=shape)
        proj = rng.normal(size=shape)

        def build(tape, arrays, _gate=gate, _mode=mode):
            out = gate_mod.apply_gate(tape.param("x", arrays["x"]), _gate, _mode,
                                      alpha=tape.leaf(_gate.alpha))
            return sum_all(mul(out, tape.leaf(proj)))

        worst = max(worst, check_loss(build, {"x": x}))
    return worst


# (mode, input shape, alphas) around a 0.2 threshold, clear of the |alpha| kink
_ALPHA_CASES = [(AXIS0, (5, 3), [0.6, -0.35, 0.12, -0.07, 1.1]),
                (AXIS1, (2, 4, 3), [-0.5, 0.09, 0.3, -0.15]),
                (WHOLE, (6,), [0.12]),
                (WHOLE, (2, 3), [-0.45]),
                (ELEMENTWISE, (3, 4), [0.6, -0.35, 0.12, -0.07, 1.1, -0.5,
                                       0.09, 0.3, -0.15, 0.25, -0.9, 0.16])]


def _gate_alpha_check(apply: Callable, scaled: bool):
    """Alpha gradient of ``apply`` against its forward with I -> m~.

    The surrogate forward scales by ``alpha * m~(alpha)`` when ``scaled``
    (``apply_gate``), else by ``m~(alpha)`` (``apply_mask``).
    """

    def run(rng: np.random.Generator) -> float:
        worst = 0.0
        for mode, shape, alphas in _ALPHA_CASES:
            gate = GateParam.create(_GRANULARITY[mode], len(alphas), threshold=0.2)
            x = rng.normal(size=shape)
            proj = rng.normal(size=shape)

            def build(tape, arrays):
                alpha = tape.param("alpha", arrays["alpha"])
                out = apply(tape.leaf(x), gate, mode, alpha=alpha)
                return sum_all(mul(out, tape.leaf(proj)))

            def smooth(arrays):
                a = arrays["alpha"]
                m = gate_mod.surrogate_mask(a, gate.threshold, gate.beta)
                scale_b = broadcast_mask(a * m if scaled else m, shape, mode)
                return float(np.sum(scale_b * x * proj))

            worst = max(worst, check_loss(build, {"alpha": np.array(alphas)},
                                          smooth=smooth))
        return worst

    return run


def _ratio_hinge_alpha_check(rng):
    """Hinge alpha gradient against the hinge of the surrogate count."""
    gates = [GateParam.create("node", 4, threshold=0.2, name="g0"),
             GateParam.create("node", 3, threshold=0.2, name="g1")]
    gates[0].alpha[:] = [0.6, -0.35, 0.12, -0.07]
    gates[1].alpha[:] = [1.1, -0.5, 0.3]
    c = 0.25      # 5 of 7 active: hard and surrogate fractions both exceed c

    def build(tape, arrays):
        return objective.ratio_hinge(
            [(g, tape.param(g.name, arrays[g.name])) for g in gates], c)

    def smooth(arrays):
        active = sum(np.sum(gate_mod.surrogate_mask(arrays[g.name], g.threshold, g.beta))
                     for g in gates)
        return max(0.0, active / 7 - c)

    return check_loss(build, {g.name: g.alpha for g in gates}, smooth=smooth)


def _masked_l2_check(rng):
    gate = GateParam.create("filter", 3)
    gate.alpha[:] = [1.0, 1e-6, -0.7]   # middle entity pruned
    w = rng.normal(size=(3, 2, 2))

    def build(tape, arrays):
        node = tape.param("w", arrays["w"])
        return objective.masked_l2([(gate, [(node, AXIS0)])])

    return check_loss(build, {"w": w})


def _lstm_cell_check(rng):
    b, e, h = 2, 3, 4
    gates = {k: GateParam.create("node", h) for k in layers.LSTM_GATES}
    for g in gates.values():
        g.alpha[:] = rng.normal(size=h) * 0.5 + 1.0
    weights = {k: rng.normal(size=(h, h + e)) * 0.5 for k in layers.LSTM_GATES}
    biases = {k: rng.normal(size=h) * 0.1 for k in layers.LSTM_GATES}
    x = rng.normal(size=(b, e))
    h0 = rng.normal(size=(b, h)) * 0.3
    c0 = rng.normal(size=(b, h)) * 0.3
    proj = rng.normal(size=(b, h))

    def build(tape, arrays):
        cell = layers.LstmCell(
            {k: arrays[f"cell.W_{k}"] for k in layers.LSTM_GATES},
            {k: arrays[f"cell.b_{k}"] for k in layers.LSTM_GATES},
            gates, name="cell")
        nodes = cell.bind(tape)
        h1, c1 = cell.step(nodes, tape.param("x", arrays["x"]),
                           tape.leaf(h0), tape.leaf(c0))
        h2, _ = cell.step(nodes, tape.param("x2", arrays["x2"]), h1, c1)
        return sum_all(mul(h2, tape.leaf(proj)))

    arrays = {f"cell.W_{k}": weights[k] for k in layers.LSTM_GATES}
    arrays.update({f"cell.b_{k}": biases[k] for k in layers.LSTM_GATES})
    arrays["x"] = x
    arrays["x2"] = rng.normal(size=(b, e))
    # the alpha leaves carry a straight-through rule; everything else is exact
    return check_loss(build, arrays, wrt=list(arrays))


def _foothill_check(rng):
    """Closed-form derivative vs finite differences of the surrogate pair."""
    beta = 5.0
    xs = np.concatenate([rng.uniform(-2.0, 2.0, size=14), [0.1, 0.5, 1.0, -0.5,
                                                           0.02, -0.02]])
    worst = 0.0
    for x in xs:
        num = (gate_mod.foothill_fd(x + 1e-6, beta)
               - gate_mod.foothill_fd(x - 1e-6, beta)) / 2e-6
        worst = max(worst, rel_error(gate_mod.foothill_fd_grad(x, beta), num))
    return worst


def _surrogate_check(rng):
    t, beta = 0.2, 5.0
    alphas = rng.uniform(-2.0, 2.0, size=20)
    alphas = alphas[np.abs(alphas) > 1e-4]
    worst = 0.0
    for a in alphas:
        num = (gate_mod.surrogate_mask(a + 1e-7, t, beta)
               - gate_mod.surrogate_mask(a - 1e-7, t, beta)) / 2e-7
        worst = max(worst, rel_error(gate_mod.surrogate_mask_grad(a, t, beta), num))
    return worst


CHECKS: dict[str, Callable] = {
    "add": _elementwise_check("add"),
    "sub": _elementwise_check("sub"),
    "mul": _elementwise_check("mul"),
    "scale": _elementwise_check("scale"),
    "sigmoid": _elementwise_check("sigmoid"),
    "tanh": _elementwise_check("tanh"),
    "relu": _elementwise_check("relu"),
    "abs": _elementwise_check("abs"),
    "broadcast": _broadcast_check,
    "matmul": _matmul_check,
    "structural": _structural_check,
    "conv2d": _conv_check,
    "batchnorm": _batchnorm_check,
    "linear": _linear_check,
    "pool-embed": _pool_embed_check,
    "cross-entropy": _cross_entropy_check,
    "apply-gate-x": _apply_gate_x_check,
    "apply-gate-alpha": _gate_alpha_check(gate_mod.apply_gate, scaled=True),
    "apply-mask-alpha": _gate_alpha_check(gate_mod.apply_mask, scaled=False),
    "ratio-hinge-alpha": _ratio_hinge_alpha_check,
    "masked-l2": _masked_l2_check,
    "lstm-cell": _lstm_cell_check,
    "foothill": _foothill_check,
    "surrogate-mask": _surrogate_check,
}

# the surrogate pair is closed-form; hold it to a much tighter tolerance
TIGHT_CHECKS = {"foothill": 1e-6, "surrogate-mask": 1e-5}


def run_checks(names: Sequence[str] | None = None,
               tolerance: float = DEFAULT_TOLERANCE, seed: int = 0,
               registry: dict[str, Callable] | None = None):
    """Run named checks; returns [(name, max_rel_err, passed)]."""
    registry = CHECKS if registry is None else registry
    if names is None:
        names = list(registry)
    results = []
    for name in names:
        if name not in registry:
            raise KeyError(f"unknown gradcheck op {name!r}; "
                           f"known: {', '.join(sorted(registry))}")
        err = registry[name](np.random.default_rng(seed))
        tol = min(tolerance, TIGHT_CHECKS.get(name, tolerance))
        results.append((name, err, err < tol))
    return results

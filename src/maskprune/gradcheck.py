"""Finite-difference verification of every backward rule with a true derivative.

Each check compares the tape's gradients of a scalar loss, built from seeded
random inputs, with central differences computed by re-running the forward as
a pure function of the perturbed arrays (``check_loss``).

Most checks are case tables.  A generator draws ``(op, arrays)`` cases, and
``_projected`` runs each one: it registers every array on the tape under its
key and checks the loss ``sum(op(*arrays) * proj)``, with a random ``proj``
of the output's shape, so each output entry counts with its own weight.  A
check reports its worst case.  The surrogate pair (``foothill``,
``surrogate-mask``) is closed-form; ``_closed_form`` checks each derivative
against central differences of the function itself.

The straight-through rules (the alpha gradients of ``apply_gate``,
``apply_mask``, the LSTM cell's gate node and ``ratio_hinge``) are not
derivatives of their hard forward pass.  Their checks difference the forward
pass they stand in for instead: the same computation with every hard mask
I(.) replaced by the surrogate m~(.), at alphas on both sides of the
threshold and clear of 0.  That is the defining property of the estimator
(Bengio et al., 2013, arXiv:1308.3432).  Where the loss is not linear in the
masked output (the LSTM cell), m~ is shifted by a constant to equal I at the
checked alphas, so the values downstream of each mask stay the hard ones.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import gate as gate_mod
from . import layers, objective
from .gate import AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateParam, broadcast_mask
from .tensor import (Tape, Tensor, absolute, add, concat_cols, matmul, mul,
                     relu, reshape, scale, sigmoid, sum_all, tanh, transpose)

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


def _projected(rng: np.random.Generator, op: Callable[..., Tensor],
               arrays: dict[str, np.ndarray], ref: Callable[..., Tensor] | None = None
               ) -> float:
    """``check_loss`` of ``sum(op(*nodes) * proj)``, one tape node per array.

    ``proj`` is drawn with the shape of ``op``'s output, which one extra call
    on plain tensors finds.  A train-mode batchnorm updates its running
    statistics on that call, as on every finite-difference call; its output
    reads the batch statistics only, so no loss changes.  With ``ref``, the
    finite differences are of ``sum(ref(*arrays) * proj)``: the computation
    that ``op``, which skips exactly-zero products, stands in for.
    """
    proj = rng.normal(size=op(*map(Tensor, arrays.values())).shape)

    def build(tape, arrays):
        out = op(*(tape.param(name, a) for name, a in arrays.items()))
        return sum_all(mul(out, tape.leaf(proj)))

    def smooth(arrays):
        return float(np.sum(ref(*map(Tensor, arrays.values())).data * proj))

    return check_loss(build, arrays, smooth=None if ref is None else smooth)


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
    # live indices: the input is 0 outside live_in, as a masked unit's output
    # is, and the dense conv with its rows outside live_out zeroed (no
    # upstream gradient there) is the reference
    for (b, n, m, (h, w), k, stride, pad), live_in, live_out in [
            ((2, 3, 4, (6, 6), 3, 1, 1), [0, 2], [1, 2]),
            ((2, 3, 4, (6, 6), 3, 1, 1), [1], [0, 3]),
            ((1, 4, 3, (7, 6), 3, 2, 1), [0, 1, 3], [2]),
            ((2, 3, 3, (5, 5), 1, 2, 0), [], [0, 1])]:
        x = rng.normal(size=(b, n, h, w))
        x[:, np.setdiff1d(np.arange(n), live_in)] = 0.0
        keep = np.zeros((1, m, 1, 1))
        keep[:, live_out] = 1.0
        conv = partial(layers.conv2d, stride=stride, padding=pad)
        yield (partial(conv, live_in=np.array(live_in, dtype=int),
                       live_out=np.array(live_out)),
               {"x": x, "w": rng.normal(size=(m, n, k, k))},
               lambda x, w, conv=conv, keep=keep: mul(conv(x, w), Tensor(keep)))


def _batchnorm_cases(rng):
    for mode in ("train", "eval"):
        for (b, c, hw) in [(3, 2, 4), (2, 3, 3)]:
            state = layers.BnState(rng.normal(size=c) * 0.1, rng.random(size=c) + 0.5)
            yield (partial(layers.batchnorm, state=state, mode=mode),
                   {"x": rng.normal(size=(b, c, hw, hw)), "gamma": rng.normal(size=c) + 1.5,
                    "beta": rng.normal(size=c)})


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
    yield (lambda w: objective.masked_l2([(gate, [(w, AXIS0)])]),
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
        yield (partial(gate_mod.apply_gate, gate=gate, mode=mode, alpha=Tensor(gate.alpha)),
               {"x": rng.normal(size=shape)})


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


def _lstm_cell_arrays(rng, h: int, e: int) -> dict[str, np.ndarray]:
    arrays = {f"cell.W_{k}": rng.normal(size=(h, h + e)) * 0.5 for k in layers.LSTM_GATES}
    arrays.update({f"cell.b_{k}": rng.normal(size=h) * 0.1 for k in layers.LSTM_GATES})
    return arrays


def _two_lstm_steps(tape, arrays, gates, x, x2, h0, c0, proj):
    """sum(h_2 * proj) after two steps of a cell built from ``arrays``."""
    cell = layers.LstmCell({k: arrays[f"cell.W_{k}"] for k in layers.LSTM_GATES},
                           {k: arrays[f"cell.b_{k}"] for k in layers.LSTM_GATES},
                           gates, name="cell")
    nodes = cell.bind(tape)
    h1, c1 = cell.step(nodes, x, tape.leaf(h0), tape.leaf(c0))
    h2, _ = cell.step(nodes, x2, h1, c1)
    return sum_all(mul(h2, tape.leaf(proj)))


def _lstm_cell_check(rng):
    b, e, h = 2, 3, 4
    worst = 0.0
    for gated in (True, False):
        gates = None
        if gated:
            gates = {k: GateParam.create("node", h) for k in layers.LSTM_GATES}
            for g in gates.values():
                g.alpha[:] = rng.normal(size=h) * 0.5 + 1.0
        arrays = _lstm_cell_arrays(rng, h, e)
        arrays["x"], arrays["x2"] = rng.normal(size=(b, e)), rng.normal(size=(b, e))
        h0, c0 = rng.normal(size=(b, h)) * 0.3, rng.normal(size=(b, h)) * 0.3
        proj = rng.normal(size=(b, h))

        def build(tape, arrays, _gates=gates, _h0=h0, _c0=c0, _proj=proj):
            return _two_lstm_steps(tape, arrays, _gates, tape.param("x", arrays["x"]),
                                   tape.param("x2", arrays["x2"]), _h0, _c0, _proj)

        # the alpha leaves carry a straight-through rule; everything else is exact
        worst = max(worst, check_loss(build, arrays, wrt=list(arrays)))
    return worst


# per recurrence gate, alphas around a 0.2 threshold, clear of the |alpha| kink
_LSTM_ALPHAS = {"f": [0.6, -0.35, 0.12, -0.07], "i": [1.1, 0.09, -0.5, 0.3],
                "g": [-0.15, 0.25, 0.9, -0.16], "o": [0.45, -0.9, 0.16, 0.05]}


def _lstm_cell_alpha_check(rng):
    """Alpha gradient of two gated LSTM steps against their forward with I -> m~.

    Each hard mask I(alpha) becomes I(alpha_0) + m~(alpha) - m~(alpha_0),
    which equals it at the checked alphas alpha_0 and has derivative m~'.  So
    every value downstream of a mask is the hard forward's, as in the
    straight-through backward, and only the mask's derivative is replaced.
    """
    b, e, h, t, beta = 3, 2, 4, 0.2, gate_mod.DEFAULT_BETA
    arrays = _lstm_cell_arrays(rng, h, e)
    base = {k: np.array(v) for k, v in _LSTM_ALPHAS.items()}
    arrays.update({f"cell.gate_{k}.alpha": a.copy() for k, a in base.items()})
    xs = [rng.normal(size=(b, e)) for _ in range(2)]
    h0, c0 = rng.normal(size=(b, h)) * 0.3, rng.normal(size=(b, h)) * 0.3
    proj = rng.normal(size=(b, h))

    def build(tape, arrays):
        gates = {k: GateParam(arrays[f"cell.gate_{k}.alpha"], t, beta, "node")
                 for k in layers.LSTM_GATES}
        return _two_lstm_steps(tape, arrays, gates, tape.leaf(xs[0]), tape.leaf(xs[1]),
                               h0, c0, proj)

    def smooth(arrays):
        hs, cs = h0, c0
        for x in xs:
            z = np.concatenate([hs, x], axis=1)
            act = {}
            for k in layers.LSTM_GATES:
                a = arrays[f"cell.gate_{k}.alpha"]
                u = a * (z @ arrays[f"cell.W_{k}"].T + arrays[f"cell.b_{k}"])
                m = (gate_mod.hard_mask(base[k], t) + gate_mod.surrogate_mask(a, t, beta)
                     - gate_mod.surrogate_mask(base[k], t, beta))
                act[k] = m * (np.tanh(u) if k == "g" else 1.0 / (1.0 + np.exp(-u)))
            cs = act["f"] * cs + act["i"] * act["g"]
            hs = act["o"] * np.tanh(cs)
        return float(np.sum(hs * proj))

    return check_loss(build, arrays, wrt=[f"cell.gate_{k}.alpha" for k in layers.LSTM_GATES],
                      smooth=smooth)


def _closed_form(f: Callable, df: Callable, xs: np.ndarray, step: float) -> float:
    """Max relative error of ``df(xs)`` against central differences of ``f``."""
    return rel_error(df(xs), (f(xs + step) - f(xs - step)) / (2 * step))


def _foothill_check(rng):
    xs = np.concatenate([rng.uniform(-2.0, 2.0, size=14), [0.1, 0.5, 1.0, -0.5,
                                                           0.02, -0.02]])
    return _closed_form(lambda x: gate_mod.foothill_fd(x, 5.0),
                        lambda x: gate_mod.foothill_fd_grad(x, 5.0), xs, 1e-6)


def _surrogate_check(rng):
    alphas = rng.uniform(-2.0, 2.0, size=20)
    return _closed_form(lambda a: gate_mod.surrogate_mask(a, 0.2, 5.0),
                        lambda a: gate_mod.surrogate_mask_grad(a, 0.2, 5.0),
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
    "apply-gate-alpha": _gate_alpha_check(gate_mod.apply_gate, scaled=True),
    "apply-mask-alpha": _gate_alpha_check(gate_mod.apply_mask, scaled=False),
    "ratio-hinge-alpha": _ratio_hinge_alpha_check,
    "masked-l2": _cases(_masked_l2_cases),
    "lstm-cell": _lstm_cell_check,
    "lstm-cell-alpha": _lstm_cell_alpha_check,
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

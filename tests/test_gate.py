import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskprune import gate as gate_mod
from maskprune.gate import (AXIS0, AXIS1, ELEMENTWISE, WHOLE, GateParam, apply_gate,
                            apply_mask, evaluation, foothill, hard_mask, surrogate_terms)
from maskprune.tensor import ShapeError, Tape, Tensor, sum_all, mul

# frozen by high-precision evaluation of the closed forms (mpmath, 40 digits)
F_AT_02_B5 = 0.8553410237429735
SURROGATE_AT_0_T02_B5 = 0.0723294881285133


def test_hard_mask_examples():
    assert np.array_equal(hard_mask([0.5], 1e-3), [1.0])
    assert np.array_equal(hard_mask([0.0], 1e-3), [0.0])
    assert np.array_equal(hard_mask([-0.2, 0.05], 0.1), [1.0, 0.0])


def test_foothill_values():
    assert foothill(0.0, 5.0)[0] == 0.0
    assert abs(foothill(0.2, 5.0)[0] - F_AT_02_B5) < 1e-12
    assert abs(foothill(10.0, 5.0)[0] - 1.0) < 1e-9


@given(st.floats(-50, 50), st.floats(0.1, 20))
def test_foothill_odd_and_bounded(x, beta):
    f = foothill(x, beta)[0]
    assert np.isclose(f, -foothill(-x, beta)[0], atol=1e-12)
    assert abs(f) < 1.2


def test_foothill_grad_values():
    assert foothill(0.0, 5.0)[1] == 5.0
    for x in (0.3, 1.7, -0.9):
        assert foothill(x, 5.0)[1] == foothill(-x, 5.0)[1]


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
def test_foothill_grad_matches_finite_difference(x):
    beta = 5.0
    num = (foothill(x + 1e-6, beta)[0] - foothill(x - 1e-6, beta)[0]) / 2e-6
    assert abs(foothill(x, beta)[1] - num) / abs(num) < 1e-6


def test_surrogate_mask_values():
    for beta in (1.0, 5.0, 12.0):
        assert surrogate_terms(0.2, 0.2, beta).m == 0.5
    assert abs(surrogate_terms(10.0, 0.2, 5.0).m - 1.0) < 1e-9
    assert abs(surrogate_terms(0.0, 0.2, 5.0).m - SURROGATE_AT_0_T02_B5) < 1e-12
    assert abs(surrogate_terms(0.0, 0.2, 5.0).m - 0.0723) < 1e-3


def test_surrogate_mask_grad_values():
    assert surrogate_terms(0.0, 0.1, 5.0).dm == 0.0
    assert surrogate_terms(0.2, 0.2, 5.0).dm == 2.5


@given(st.floats(1e-3, 3.0))
def test_surrogate_mask_grad_is_odd(alpha):
    t, beta = 0.1, 5.0
    assert np.isclose(surrogate_terms(-alpha, t, beta).dm,
                      -surrogate_terms(alpha, t, beta).dm, atol=1e-12)


@given(st.floats(-3, 3).filter(lambda a: abs(a) > 1e-7))
@settings(max_examples=200)
def test_surrogate_consistency_with_finite_difference(alpha):
    t, beta, h = 0.15, 5.0, 1e-7
    num = (surrogate_terms(alpha + h, t, beta).m
           - surrogate_terms(alpha - h, t, beta).m) / (2 * h)
    ana = surrogate_terms(alpha, t, beta).dm
    assert abs(ana - num) <= 1e-5 * max(1.0, abs(num))


@given(st.floats(-4, 4), st.floats(0.01, 0.5))
def test_surrogate_rounds_to_hard_mask_away_from_threshold(alpha, t):
    beta = 5.0
    if abs((abs(alpha) - t) * beta) <= 5.0:
        return
    assert round(surrogate_terms(alpha, t, beta).m) == hard_mask([alpha], t)[0]


def _surrogate_pass(fn, x):
    return foothill(x, 5.0) if fn == "foothill" else surrogate_terms(x, 0.1, 5.0)


@pytest.mark.parametrize("fn", ["foothill", "surrogate_terms"])
def test_the_in_place_passes_never_write_or_alias_their_input(fn):
    x = np.random.default_rng(9).normal(size=(7, 5))
    before = x.tobytes()
    out = _surrogate_pass(fn, x)
    assert x.tobytes() == before
    assert all(v.shape == x.shape and not np.shares_memory(v, x) for v in out)
    assert not any(np.shares_memory(u, v) for u, v in itertools.combinations(out, 2))
    # a Python float in, numpy scalars out, as the elementwise formulas gave
    assert all(isinstance(v, np.float64) for v in _surrogate_pass(fn, 0.3))


def _gate_backward(x, alpha, t=1e-3, beta=5.0, upstream=None):
    gate = GateParam(np.atleast_1d(alpha), t, beta)
    tape = Tape()
    xn = tape.param("x", np.asarray(x, dtype=float))
    an = tape.param("alpha", gate.alpha)
    out = apply_gate(xn, evaluation(tape, gate, an), WHOLE if gate.dim == 1 else AXIS0)
    if upstream is None:
        upstream = np.ones_like(out.data)
    loss = sum_all(mul(out, Tensor(upstream)))
    grads = tape.backward(loss)
    return out.data, grads["x"], grads["alpha"]


def test_apply_gate_active_scalar():
    out, gx, ga = _gate_backward([1.0, 2.0], [0.5])
    assert np.array_equal(out, [0.5, 1.0])
    assert np.array_equal(gx, [0.5, 0.5])


def test_apply_gate_masked_zero_forward_nonzero_alpha_grad():
    out, gx, ga = _gate_backward([1.0, 2.0], [1e-5])
    assert np.array_equal(out, [0.0, 0.0])
    assert np.array_equal(gx, [0.0, 0.0])
    assert ga[0] != 0.0


def test_apply_gate_identity_at_alpha_one():
    x = np.array([3.0, -1.0, 0.25])
    out, gx, _ = _gate_backward(x, [1.0])
    assert np.array_equal(out, x)
    assert np.array_equal(gx, np.ones(3))


# a 4-component gate against a tensor whose extent under the mode is not 4;
# each shape does have a 4 somewhere else
@pytest.mark.parametrize("mode,shape", [(AXIS0, (3, 4)), (AXIS1, (4, 3)), (WHOLE, (4,)),
                                        (ELEMENTWISE, (4, 3))],
                         ids=[AXIS0, AXIS1, WHOLE, ELEMENTWISE])
def test_apply_gate_axis_mismatch(mode, shape):
    gate = GateParam.create("filter", 4)
    with pytest.raises(ShapeError):
        apply_gate(Tensor(np.zeros(shape)), evaluation(Tape(), gate, Tensor(gate.alpha)),
                   mode)


def test_a_tape_keeps_one_record_per_gate_and_refuses_a_second_alpha_node():
    gate = GateParam.create("filter", 3)
    tape = Tape()
    node = tape.param("alpha", gate.alpha)
    ev = evaluation(tape, gate, node)
    assert evaluation(tape, gate, node) is ev
    assert tape.gate_evals == {id(gate): ev}
    with pytest.raises(ValueError):
        evaluation(tape, gate, Tensor(gate.alpha))
    assert evaluation(Tape(), gate, node) is not ev       # a record per tape


def test_apply_gate_unknown_mode():
    gate = GateParam.create("filter", 4)
    with pytest.raises(ValueError) as info:
        apply_gate(Tensor(np.zeros((4, 3))), evaluation(Tape(), gate, Tensor(gate.alpha)),
                   "axis2")
    assert not isinstance(info.value, ShapeError)


def test_apply_gate_forward_exactness_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        alpha = rng.normal() * rng.choice([1e-5, 1e-2, 1.0])
        t = 10.0 ** rng.uniform(-5, -1)
        x = rng.normal(size=4)
        out, _, _ = _gate_backward(x, [alpha], t=t)
        if abs(alpha) > t:
            assert np.array_equal(out, alpha * x)
        else:
            assert np.all(out == 0.0)


def test_rejuvenation_gradient_below_threshold():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = 10.0 ** rng.uniform(-4, -1)
        alpha = rng.uniform(1e-8, t)          # pruned but nonzero
        x = rng.normal(size=3) + 2.0
        _, _, ga = _gate_backward(x, [alpha], t=t, upstream=np.ones(3))
        assert ga[0] != 0.0


def test_apply_gate_per_axis():
    gate = GateParam(np.array([1.0, 1e-9, -2.0]), 1e-3, 5.0)
    tape = Tape()
    x = tape.param("x", np.ones((2, 3)))
    a = tape.param("a", gate.alpha)
    out = apply_gate(x, evaluation(tape, gate, a), AXIS1)
    assert np.array_equal(out.data, np.tile([1.0, 0.0, -2.0], (2, 1)))


def test_apply_mask_exact_forward_and_surrogate_alpha_grad():
    gate = GateParam(np.array([0.5, 1e-9]), 1e-3, 5.0)
    tape = Tape()
    x = tape.param("x", np.array([[2.0, 3.0]]))
    a = tape.param("a", gate.alpha)
    out = apply_mask(x, evaluation(tape, gate, a), AXIS1)
    assert np.array_equal(out.data, [[2.0, 0.0]])
    grads = tape.backward(sum_all(out))
    assert np.array_equal(grads["x"], [[1.0, 0.0]])
    expected = 3.0 * surrogate_terms(1e-9, 1e-3, 5.0).dm
    assert np.isclose(grads["a"][1], expected)


def _reference_terms(alpha, t, beta):
    """The hard mask, m~, m~' and both straight-through coefficients, each
    written out formula by formula as separate functions computed them before
    one pass shared u, tanh u and sech^2 u."""
    def sech2(u):
        e = np.exp(-np.abs(u))
        s = 2.0 * e / (1.0 + e * e)
        return s * s

    def fd(x):
        u = 0.5 * beta * np.asarray(x, dtype=np.float64)
        return np.tanh(u) + u * sech2(u)

    def fd_grad(x):
        u = 0.5 * beta * np.asarray(x, dtype=np.float64)
        return 0.5 * beta * sech2(u) * (2.0 - 2.0 * u * np.tanh(u))

    mask = (np.abs(alpha) > t).astype(np.float64)
    m = 0.5 * (fd(np.abs(alpha) - t) + 1.0)
    dm = 0.5 * fd_grad(np.abs(alpha) - t) * np.sign(alpha)
    return mask, m, dm, m + alpha * dm, dm


@pytest.mark.parametrize("t,beta", [(1e-4, 5.0), (0.1, 2.5)])
def test_shared_pass_is_bit_equal_to_the_separate_formulas(t, beta):
    special = [0.0, t, t * (1 + 1e-12), t * (1 - 1e-12), t + 0.48, 1.0, 1e3]
    rng = np.random.default_rng(8)
    alpha = np.concatenate([special, np.negative(special), [1e-300],
                            rng.normal(size=200) * rng.choice([1e-5, t, 0.1, 1.0, 30.0],
                                                              size=200)])
    gate = GateParam(alpha.copy(), t, beta)
    ev = gate_mod.evaluation(Tape(), gate, Tensor(gate.alpha))
    # the record keeps the mask as booleans, which multiply as exact 0.0 and 1.0
    assert ev.mask.dtype == bool
    got = (ev.mask.astype(np.float64), ev.terms.m, ev.terms.dm, ev.coeff(scaled=True),
           ev.coeff(scaled=False))
    for name, g, want in zip(("mask", "m~", "m~'", "coeff", "unscaled coeff"), got,
                             _reference_terms(alpha, t, beta)):
        assert g.tobytes() == want.tobytes(), name
    for fresh, kept in zip(surrogate_terms(alpha, t, beta), ev.terms):
        assert fresh.tobytes() == kept.tobytes()


def test_gate_param_validation():
    with pytest.raises(ValueError):
        GateParam(np.ones(3), threshold=0.0, beta=5.0)
    with pytest.raises(ValueError):
        GateParam(np.ones(3), threshold=1e-3, beta=-1.0)
    with pytest.raises(ValueError):
        GateParam.create("banana", 3, threshold=1e-3)


def test_mask_recomputed_from_alpha():
    gate = GateParam.create("filter", 2)
    assert np.array_equal(gate.mask(), [1.0, 1.0])
    gate.alpha[1] = 0.0
    assert np.array_equal(gate.mask(), [1.0, 0.0])
    assert gate.mask().sum() == 1

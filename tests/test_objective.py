import numpy as np
import pytest

from maskprune.gate import AXIS0, ELEMENTWISE, WHOLE, GateParam, evaluation, surrogate_terms
from maskprune.objective import (ObjectiveConfig, cross_entropy, l1_alpha,
                                 masked_l2, ratio_hinge, total_objective)
from maskprune.tensor import Tape, Tensor, sum_all


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = cross_entropy(logits, np.array([0, 3, 9, 5]))
    assert abs(loss.item() - np.log(10)) < 1e-9


def test_cross_entropy_saturated():
    logits = np.zeros((2, 5))
    logits[0, 2] = 1000.0
    logits[1, 4] = 1000.0
    loss = cross_entropy(Tensor(logits), np.array([2, 4]))
    assert loss.item() < 1e-12


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_l1_alpha_examples():
    tape = Tape()
    a1 = tape.param("a1", np.array([1.0, -2.0]))
    a2 = tape.param("a2", np.array([0.5]))
    val = l1_alpha([a1, a2])
    assert val.item() == 3.5
    grads = tape.backward(val)
    assert np.array_equal(grads["a1"], [1.0, -1.0])
    assert np.array_equal(grads["a2"], [1.0])


def test_l1_alpha_zero_subgradient():
    tape = Tape()
    a = tape.param("a", np.zeros(3))
    val = l1_alpha([a])
    assert val.item() == 0.0
    assert np.all(tape.backward(val)["a"] == 0.0)


def _one_entity(alpha_val, theta):
    gate = GateParam(np.array([alpha_val]), 1e-3, 5.0)
    tape = Tape()
    node = tape.param("w", np.asarray(theta, dtype=float))
    val = masked_l2([(evaluation(tape, gate, Tensor(gate.alpha)), [(node, WHOLE)])])
    grads = tape.backward(val)
    return val.item(), grads["w"]


def test_masked_l2_active_entity():
    val, grad = _one_entity(1.0, [3.0, 4.0])
    assert val == 25.0
    assert np.array_equal(grad, [6.0, 8.0])


def test_masked_l2_pruned_entity_contributes_nothing():
    val, grad = _one_entity(1e-9, [3.0, 4.0])
    assert val == 0.0
    assert np.all(grad == 0.0)


def test_masked_l2_mixed_matches_plain_l2_on_active_slices():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4, 2))
    gate = GateParam(np.array([1.0, 1e-9, 0.5]), 1e-3, 5.0)
    tape = Tape()
    node = tape.param("w", w)
    val = masked_l2([(evaluation(tape, gate, Tensor(gate.alpha)), [(node, AXIS0)])])
    assert np.isclose(val.item(), np.sum(w[0] ** 2) + np.sum(w[2] ** 2))
    grads = tape.backward(val)["w"]
    assert np.all(grads[1] == 0.0)
    assert np.allclose(grads[0], 2 * w[0])


def test_masked_l2_perturbing_pruned_weights_changes_nothing():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(2, 3))
    gate = GateParam(np.array([1e-9, 1.0]), 1e-3, 5.0)

    def value(arr):
        tape = Tape()
        w = tape.param("w", arr)
        return masked_l2([(evaluation(tape, gate, Tensor(gate.alpha)), [(w, AXIS0)])]).item()

    base = value(w)
    w2 = w.copy()
    w2[0] += 123.456
    assert value(w2) == base
    w3 = w.copy()
    w3[1] += 1.0
    delta_plain = np.sum(w3[1] ** 2) - np.sum(w[1] ** 2)
    assert abs((value(w3) - base) - delta_plain) < 1e-12


def test_masked_l2_elementwise_mode():
    gate = GateParam(np.array([1.0, 1e-9, 1.0, 1.0]), 1e-3, 5.0)
    tape = Tape()
    node = tape.param("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    val = masked_l2([(evaluation(tape, gate, Tensor(gate.alpha)), [(node, ELEMENTWISE)])])
    assert val.item() == 1.0 + 9.0 + 16.0


def _hinge(alphas, c):
    evs = []
    tape = Tape()
    for i, a in enumerate(alphas):
        g = GateParam(np.asarray(a, dtype=float), 1e-3, 5.0)
        evs.append(evaluation(tape, g, tape.param(f"a{i}", g.alpha)))
    val = ratio_hinge(evs, c)
    grads = tape.backward(val)
    return val.item(), [grads[f"a{i}"] for i in range(len(alphas))]


def test_ratio_hinge_inactive():
    val, grads = _hinge([np.r_[np.ones(4), np.zeros(6)]], c=0.5)
    assert val == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_ratio_hinge_active():
    val, grads = _hinge([np.r_[np.ones(8), np.zeros(2)]], c=0.5)
    assert abs(val - 0.3) < 1e-12
    assert any(np.any(g != 0.0) for g in grads)


def test_ratio_hinge_boundary():
    val, _ = _hinge([np.ones(4)], c=1.0)
    assert val == 0.0


def test_ratio_hinge_rejects_no_gates():
    with pytest.raises(ValueError):
        ratio_hinge([], c=0.5)


def test_hinge_pushes_over_budget_alpha_down():
    # gradient descent on the hinge shrinks a near-threshold scaling factor
    val, grads = _hinge([np.full(4, 0.3)], c=0.25)
    assert val > 0.0
    assert np.all(grads[0] > 0.0)      # positive grad => alpha decreases


def test_hinge_gradient_changes_sign_at_the_foothill_overshoot():
    # u* solves u tanh u = 1; m~' > 0 for t < |alpha| < t + 2u*/beta, < 0 beyond
    lo, hi = 1.0, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * np.tanh(mid) < 1.0 else (lo, mid)
    t, beta = 1e-4, 5.0
    edge = t + 2.0 * lo / beta
    assert abs(lo - 1.19968) < 1e-5 and abs(edge - 0.47997) < 1e-5
    inside = np.linspace(t + 1e-3, edge - 1e-4, 40)
    beyond = np.linspace(edge + 1e-4, 4.0, 40)
    alphas = np.concatenate([inside, beyond, -inside, -beyond])
    slope = surrogate_terms(alphas, t, beta).dm
    assert np.all(np.sign(slope) == np.sign(alphas) * np.repeat([1, -1, 1, -1], 40))
    np.testing.assert_allclose(surrogate_terms(np.array([0.47, 0.6, 1.0]), t, beta).dm,
                               [0.0238, -0.1615, -0.0975], atol=5e-5)
    tape = Tape()
    gate = GateParam(alphas, t, beta)
    node = tape.param("a", gate.alpha)
    grad = tape.backward(ratio_hinge([evaluation(tape, gate, node)], c=0.25))["a"]
    assert np.all(np.sign(grad) == np.sign(slope))    # over budget: same sign


def _toy_setup():
    tape = Tape()
    g1 = GateParam(np.array([1.0, 1e-9]), 1e-3, 5.0)
    g2 = GateParam(np.array([0.5]), 1e-3, 5.0)
    a1 = tape.param("g1.alpha", g1.alpha)
    a2 = tape.param("g2.alpha", g2.alpha)
    w1 = tape.param("w1", np.array([[1.0], [2.0]]))
    w2 = tape.param("w2", np.array([3.0]))
    task = sum_all(Tensor(np.array([0.75])))
    groups = [(evaluation(tape, g1, a1), [(w1, AXIS0)]),
              (evaluation(tape, g2, a2), [(w2, WHOLE)])]
    return tape, task, groups


def test_total_objective_degenerate_is_task_loss():
    tape, task, groups = _toy_setup()
    total, parts = total_objective(task, groups, ObjectiveConfig())
    assert total is task
    assert parts == {"task_loss": 0.75, "l1_term": 0.0, "l2_term": 0.0,
                     "hinge_term": 0.0}


def test_total_objective_l2_reduces_to_plain_when_all_active():
    tape = Tape()
    g = GateParam(np.array([1.0, 1.0]), 1e-3, 5.0)
    a = tape.param("g.alpha", g.alpha)
    w = tape.param("w", np.array([[1.0], [2.0]]))
    task = sum_all(Tensor(np.array([0.0])))
    total, parts = total_objective(task, [(evaluation(tape, g, a), [(w, AXIS0)])],
                                   ObjectiveConfig(lambda2=0.1))
    assert np.isclose(parts["l2_term"], 0.1 * 5.0)
    assert np.isclose(total.item(), 0.5)


def test_total_objective_hand_computed():
    tape, task, groups = _toy_setup()
    cfg = ObjectiveConfig(lambda1=0.1, lambda2=0.01, lambda3=2.0, target_c=0.5)
    total, parts = total_objective(task, groups, cfg)
    # entities: g1 has one active of two, g2 active => 2/3 active
    expect_l1 = 0.1 * (1.0 + 1e-9 + 0.5)
    expect_l2 = 0.01 * (1.0 + 9.0)       # active slice w1[0] and whole w2
    expect_hinge = 2.0 * (2.0 / 3.0 - 0.5)
    assert np.isclose(parts["l1_term"], expect_l1)
    assert np.isclose(parts["l2_term"], expect_l2)
    assert np.isclose(parts["hinge_term"], expect_hinge)
    total_from_parts = sum(parts.values())
    assert abs(total.item() - total_from_parts) < 1e-12


def test_objective_terms_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tape = Tape()
        g = GateParam(rng.normal(size=4), 1e-2, 5.0)
        a = tape.param("a", g.alpha)
        w = tape.param("w", rng.normal(size=(4, 2)))
        ev = evaluation(tape, g, a)
        assert l1_alpha([a]).item() >= 0.0
        assert masked_l2([(ev, [(w, AXIS0)])]).item() >= 0.0
        assert ratio_hinge([ev], c=rng.uniform(0.1, 1.0)).item() >= 0.0


def test_objective_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(lambda1=-1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(target_c=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(target_c=1.5)

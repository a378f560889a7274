import numpy as np
import pytest

from maskprune.tensor import (ShapeError, Tape, Tensor, _toposort, absolute, add,
                              concat_cols, custom_grad, matmul, mul, relu,
                              scale, sigmoid, sum_all)
from test_gradcheck import numeric_grad, rel_error


def test_elementwise_examples():
    assert np.array_equal(mul(Tensor([1, 2, 3]), Tensor([4, 5, 6])).data, [4, 10, 18])
    assert np.array_equal(relu(Tensor([-1, 0, 2])).data, [0, 0, 2])
    assert np.array_equal(sigmoid(Tensor([0.0])).data, [0.5])
    assert np.array_equal(absolute(Tensor([-2.0, 3.0])).data, [2, 3])
    assert np.array_equal(scale(Tensor([1.0, -4.0]), 0.5).data, [0.5, -2.0])


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_matmul_examples():
    eye = Tensor(np.eye(2))
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(eye, b).data, b.data)
    dot = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(dot.data, [[11.0]])
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def loss_of(arrs):
        tape = Tape()
        an = tape.param("a", arrs["a"])
        bn = tape.param("b", arrs["b"])
        return tape, sum_all(matmul(an, bn))

    tape, loss = loss_of({"a": a, "b": b})
    grads = tape.backward(loss)
    for name, arr in (("a", a), ("b", b)):
        num = numeric_grad(lambda _: loss_of({"a": a, "b": b})[1].item(), arr)
        assert rel_error(grads[name], num) < 1e-6


def test_backward_square():
    tape = Tape()
    x = tape.param("x", np.array([3.0]))
    grads = tape.backward(sum_all(mul(x, x)))
    assert np.array_equal(grads["x"], [6.0])


def test_backward_accumulates_over_paths():
    tape = Tape()
    x = tape.param("x", np.array([1.5]))
    grads = tape.backward(sum_all(add(x, x)))
    assert np.array_equal(grads["x"], [2.0])


def test_disconnected_param_gets_zero_gradient():
    tape = Tape()
    x = tape.param("x", np.array([3.0]))
    other = tape.param("other", np.zeros((2, 2)))
    grads = tape.backward(sum_all(mul(x, x)))
    assert other.param_id == "other"
    assert grads["other"].shape == (2, 2)
    assert np.all(grads["other"] == 0.0)


def test_nonscalar_loss_rejected():
    tape = Tape()
    x = tape.param("x", np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(mul(x, x))


def test_duplicate_param_rejected():
    tape = Tape()
    tape.param("w", np.ones(2))
    with pytest.raises(ValueError):
        tape.param("w", np.ones(2))


def test_custom_grad_zero_rule():
    tape = Tape()
    x = tape.param("x", np.array([2.0, -1.0]))
    node = custom_grad(x.data, (x,), lambda g: (np.zeros_like(g),))
    grads = tape.backward(sum_all(node))
    assert np.array_equal(node.data, x.data)
    assert np.all(grads["x"] == 0.0)


def test_custom_grad_identity_rule():
    tape = Tape()
    x = tape.param("x", np.array([2.0, -1.0]))
    node = custom_grad(x.data, (x,), lambda g: (g,))
    grads = tape.backward(sum_all(node))
    assert np.array_equal(grads["x"], [1.0, 1.0])


def test_custom_grad_bad_shape_errors_at_backward_time():
    tape = Tape()
    x = tape.param("x", np.ones(3))
    node = custom_grad(x.data, (x,), lambda g: (np.ones(5),))
    with pytest.raises(ShapeError):
        tape.backward(sum_all(node))


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        tape = Tape()
        a = tape.param("a", rng.normal(size=(4, 4)))
        b = tape.param("b", rng.normal(size=(4, 4)))
        loss = sum_all(mul(matmul(a, b), add(a, b)))
        return tape.backward(loss)

    g1, g2 = run(), run()
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_backward_releases_interior_state_and_refuses_a_spent_graph():
    rng = np.random.default_rng(8)
    a0, b0 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    tape = Tape()
    a, b = tape.param("a", a0), tape.param("b", b0)
    h, c = matmul(a, b), add(a, b)
    loss = sum_all(mul(h, c))
    interior = [n for n in _toposort(loss) if n.parents]
    assert len(interior) == 4
    grads = tape.backward(loss)
    for node in interior:
        assert node.grad is None and node.backward_rule is None, node.op
    # d/da sum((a @ b) * (a + b)) = (a + b) @ b.T + a @ b, and likewise for b
    want = {"a": (a0 + b0) @ b0.T + a0 @ b0, "b": a0.T @ (a0 + b0) + a0 @ b0}
    for name, node in tape.params.items():
        assert node.grad is grads[name]
        np.testing.assert_allclose(grads[name], want[name], rtol=1e-13, atol=0)
    kept = {name: g.copy() for name, g in grads.items()}
    with pytest.raises(RuntimeError, match="spent by an earlier backward"):
        tape.backward(loss)
    # a graph sharing a spent node is spent too
    with pytest.raises(RuntimeError, match="spent by an earlier backward"):
        tape.backward(sum_all(h))
    for name, node in tape.params.items():
        assert np.array_equal(node.grad, kept[name]), name


def test_concat_cols_roundtrip():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.arange(4.0).reshape(2, 2))
    cat = concat_cols(a, b)
    assert cat.shape == (2, 5)
    assert np.array_equal(cat.data[:, :3], a.data)
    assert np.array_equal(cat.data[:, 3:], b.data)


def test_concat_cols_many_splits_gradient_per_input():
    tape = Tape()
    xs = [tape.param(f"x{i}", np.full((2, i + 1), float(i))) for i in range(3)]
    cat = concat_cols(*xs)
    assert np.array_equal(cat.data, [[0, 1, 1, 2, 2, 2]] * 2)
    proj = np.arange(12.0).reshape(2, 6)
    grads = tape.backward(sum_all(mul(cat, Tensor(proj))))
    assert [grads[f"x{i}"].tolist() for i in range(3)] == [
        proj[:, :1].tolist(), proj[:, 1:3].tolist(), proj[:, 3:].tolist()]
    with pytest.raises(ShapeError):
        concat_cols()
    with pytest.raises(ShapeError):
        concat_cols(xs[0], Tensor(np.zeros((3, 1))))


def test_forward_values_stay_finite():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(50,)) * 50)
    for op in (sigmoid, relu, absolute):
        assert np.all(np.isfinite(op(x).data))

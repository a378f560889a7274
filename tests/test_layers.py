import itertools

import numpy as np
import pytest

from maskprune import layers
from maskprune.gate import AXIS0, AXIS1, GateParam, apply_gate, apply_mask, evaluation
from maskprune.layers import (BN_EPS, BN_MOMENTUM, LSTM_GATES, BnState, ConvUnit, LstmCell,
                              ResidualBlock, avg_pool_full, batchnorm, conv2d,
                              embedding, linear)
from maskprune.models import LstmLm, Mlp, ResNetSmall, stage_sides
from maskprune.objective import cross_entropy, masked_l2
from maskprune.pruning import PruneManager
from maskprune.tensor import (ShapeError, Tape, Tensor, _toposort, add, concat_cols,
                              custom_grad, matmul, mul, reshape, sigmoid, sum_all, tanh)
from maskprune.tensor import relu as relu_op


def test_conv_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = conv2d(x, w, stride=1, padding=0)
    assert np.array_equal(out.data, x.data)


def test_conv_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.flat[0] == 9.0


# the memory orders a [b, c, H, W] array reaches a conv node in: as data
# arrives (NCHW), as conv2d and its epilogue return it (batch-innermost
# [c, H, W, b]) and channel-major [c, b, H, W]
_LAYOUTS = {"nchw": (0, 1, 2, 3), "batch-innermost": (1, 2, 3, 0),
            "channel-major": (1, 0, 2, 3)}


def _laid_out(a, order):
    """The values of ``a`` as a view over C-contiguous memory whose axes run
    in ``order``."""
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def _project(out, g):
    """``sum(out * g)`` as a node that hands ``g`` itself, in its own memory
    layout, to the backward of ``out``."""
    return custom_grad(np.sum(out.data * g), (out,), lambda _: (g,), op="project")


def _direct_conv(x, w, g, stride, padding):
    """Output, grad-x and grad-w of a floor-geometry cross-correlation, one
    output pixel and one kernel offset at a time."""
    b, n, H, W = x.shape
    m, _, k, _ = w.shape
    Ho = (H + 2 * padding - k) // stride + 1
    Wo = (W + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((b, m, Ho, Wo))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(Ho):
        for j in range(Wo):
            for ki in range(k):
                for kj in range(k):
                    r, c = i * stride + ki, j * stride + kj
                    out[:, :, i, j] += xp[:, :, r, c] @ w[:, :, ki, kj].T
                    gxp[:, :, r, c] += g[:, :, i, j] @ w[:, :, ki, kj]
                    gw[:, :, ki, kj] += g[:, :, i, j].T @ xp[:, :, r, c]
    return out, gxp[:, :, padding:padding + H, padding:padding + W], gw


_CONV_CASES = [
    (2, 3, 4, 7, 7, 3, 1, 1),
    (3, 2, 5, 6, 9, 3, 1, 0),
    (2, 3, 4, 9, 7, 3, 2, 1),
    (2, 2, 3, 7, 5, 1, 2, 0),
    (2, 3, 4, 8, 6, 3, 2, 1),     # even sides: the trailing pad row and column unread
    (3, 2, 3, 8, 5, 1, 2, 0),     # even height: the last row unread
    (2, 2, 3, 6, 8, 3, 2, 0),     # even sides, unpadded: the last row and column unread
    (2, 2, 3, 5, 5, 2, 2, 0),     # 2x2/s2 on 5x5: the last row and column unread
    (2, 2, 3, 8, 7, 3, 3, 1),     # 3x3/s3: one tap per phase
    (2, 3, 2, 9, 9, 5, 2, 2),     # 5x5/s2: phases of 3 and 2 taps per axis
    (2, 2, 3, 10, 9, 4, 3, 1),    # 4x4/s3: phases of 2, 1 and 1 taps per axis
]


@pytest.mark.parametrize("b,n,m,H,W,k,stride,padding", _CONV_CASES)
def test_conv_matches_direct_loop(b, n, m, H, W, k, stride, padding):
    _check_conv_against_direct_loop(b, n, m, H, W, k, stride, padding)


@pytest.mark.parametrize("bands", ["one-row", "uneven"])
@pytest.mark.parametrize("b,n,m,H,W,k,stride,padding", _CONV_CASES)
def test_banded_conv_matches_direct_loop(b, n, m, H, W, k, stride, padding, bands,
                                         monkeypatch):
    # a budget below one output row lowers every band, the forward's, the
    # weight gradient's and each stride phase's, one output row at a time; the
    # forward's and the weight gradient's bands of Ho - 1 rows leave a last
    # band of one row (Ho >= 3)
    Ho = (H + 2 * padding - k) // stride + 1
    Wo = (W + 2 * padding - k) // stride + 1
    budget = 1 if bands == "one-row" else (Ho - 1) * n * k * k * Wo * b * 8
    monkeypatch.setattr(layers, "LOWER_BAND_BYTES", budget)
    _check_conv_against_direct_loop(b, n, m, H, W, k, stride, padding)


def _check_conv_against_direct_loop(b, n, m, H, W, k, stride, padding):
    # x and the upstream gradient in every layout: it changes speed, not values
    rng = np.random.default_rng(20)
    x, w = rng.normal(size=(b, n, H, W)), rng.normal(size=(m, n, k, k))
    Ho, Wo = (H + 2 * padding - k) // stride + 1, (W + 2 * padding - k) // stride + 1
    g = rng.normal(size=(b, m, Ho, Wo))
    ref_out, ref_gx, ref_gw = _direct_conv(x, w, g, stride, padding)
    for (x_name, x_order), (g_name, g_order) in itertools.product(_LAYOUTS.items(), repeat=2):
        tape = Tape()
        out = conv2d(tape.param("x", _laid_out(x, x_order)), tape.param("w", w), stride,
                     padding)
        grads = tape.backward(_project(out, _laid_out(g, g_order)))
        where = f"x {x_name}, upstream gradient {g_name}"
        assert out.shape == ref_out.shape, where
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10, err_msg=where)
        np.testing.assert_allclose(grads["x"], ref_gx, rtol=0, atol=1e-10, err_msg=where)
        np.testing.assert_allclose(grads["w"], ref_gw, rtol=0, atol=1e-10, err_msg=where)


@pytest.mark.parametrize("live_in,live_out,mode", [
    ([0, 2], [1, 3], "train"),
    ([0, 2], [1, 3], "eval"),
    ([1], None, "train"),
    (None, [0, 2, 3], "eval"),
    ([], [2], "train"),           # every input channel masked
    ([0, 1, 2], [], "eval"),      # every filter masked
    (None, [0, 2, 3], "train"),
    ([0, 1, 2], [], "train"),
])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
def test_conv_live_indices_match_direct_loop(live_in, live_out, mode, stride, padding):
    # x is zero outside the channels live_in and the upstream gradient outside
    # the rows live_out, as a gated network gives them: conv2d skips those
    # and must match the direct loop, which reads them
    rng = np.random.default_rng(22)
    x, w = rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3))
    keep_in, keep_out = np.zeros(3), np.zeros(4)
    keep_in[live_in if live_in is not None else slice(None)] = 1.0
    keep_out[live_out if live_out is not None else slice(None)] = 1.0
    x *= keep_in[None, :, None, None]
    Ho, Wo = (7 + 2 * padding - 3) // stride + 1, (6 + 2 * padding - 3) // stride + 1
    g = rng.normal(size=(2, 4, Ho, Wo)) * keep_out[None, :, None, None]
    ref_out, ref_gx, ref_gw = _direct_conv(x, w, g, stride, padding)
    if mode == "eval":
        # a conv unit's eval: the live filters' rows alone, forward only
        rows = np.flatnonzero(keep_out)
        out = conv2d(Tensor(x), Tensor(w[rows]), stride, padding)
        np.testing.assert_allclose(out.data, ref_out[:, rows], rtol=0, atol=1e-10)
        return
    tape = Tape()
    out = conv2d(tape.param("x", x), tape.param("w", w), stride, padding)
    grads = tape.backward(sum_all(mul(out, Tensor(g))))
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["x"], ref_gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["w"], ref_gw, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_with_every_input_channel_zero_in_one_row_bands(mode, stride, monkeypatch):
    # the live input lowers to no rows, so a band's budget covers any number
    # of output rows: the conv runs, its output and weight gradient zero
    monkeypatch.setattr(layers, "LOWER_BAND_BYTES", 1)
    rng = np.random.default_rng(27)
    x, w = np.zeros((2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3))
    Ho, Wo = (7 + 2 - 3) // stride + 1, (6 + 2 - 3) // stride + 1
    g = rng.normal(size=(2, 4, Ho, Wo))
    ref_out, ref_gx, ref_gw = _direct_conv(x, w, g, stride, 1)
    tape = Tape()
    xt = tape.param("x", x) if mode == "train" else Tensor(x)
    out = conv2d(xt, tape.param("w", w), stride, 1)
    assert np.array_equal(out.data, ref_out)
    if mode == "train":
        grads = tape.backward(sum_all(mul(out, Tensor(g))))
        np.testing.assert_allclose(grads["x"], ref_gx, rtol=0, atol=1e-10)
        assert np.array_equal(grads["w"], ref_gw)


@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (1, 2, 0)])
@pytest.mark.parametrize("live_in", [None, [0, 2]])
def test_conv_neither_writes_nor_aliases_its_operands(k, stride, padding, live_in):
    # unpadded 1x1/s2: the batch-innermost input conv2d reads is a view of x
    rng = np.random.default_rng(25)
    x, w = rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, k, k))
    if live_in is not None:
        x[:, 1] = 0.0                 # conv2d reads channels 0 and 2 alone
    x0, w0 = x.copy(), w.copy()
    tape = Tape()
    xt, wt = tape.param("x", x), tape.param("w", w)
    out = conv2d(xt, wt, stride, padding)
    g = rng.normal(size=out.shape)
    grads = tape.backward(sum_all(mul(out, Tensor(g))))
    assert xt.data is x and wt.data is w
    assert np.array_equal(x, x0) and np.array_equal(w, w0)
    for arr in (out.data, grads["x"], grads["w"]):
        assert not np.shares_memory(arr, x) and not np.shares_memory(arr, w)


def test_conv_reads_a_channel_and_a_gradient_row_that_hold_only_a_nan():
    # NaN counts as nonzero, so a non-finite value reaches the divergence checks
    rng = np.random.default_rng(26)
    x, w = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(4, 3, 3, 3))
    x[:, 1] = 0.0
    x[0, 1, 2, 2] = np.nan
    tape = Tape()
    out = conv2d(tape.param("x", x), tape.param("w", w), 1, 1)
    assert np.isnan(out.data[0]).any() and not np.isnan(out.data[1]).any()
    g = np.zeros(out.shape)
    g[1, 2, 0, 0] = np.nan
    grads = tape.backward(sum_all(mul(out, Tensor(g))))
    assert np.isnan(grads["w"][2]).any() and np.isnan(grads["x"][1]).any()


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(3.0, 2.0, size=(8, 3, 6, 6)))
    state = BnState.create(3)
    out = batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, "train")
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.all(np.abs(mean) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-4)


def test_batchnorm_eval_identity():
    # fresh running statistics (mean 0, variance 1) scale by 1 / sqrt(1 + eps) alone
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 2, 3, 3)))
    state = BnState.create(2)
    out = batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "eval")
    assert np.allclose(out.data, x.data / np.sqrt(1.0 + BN_EPS), rtol=1e-12, atol=0)


def test_batchnorm_running_stats_update():
    # one step of the running averages from their initial zeros and ones
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 1.0, size=(16, 2, 4, 4)))
    state = BnState.create(2)
    batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "train")
    assert np.allclose(state.running_mean, 0.1 * x.data.mean(axis=(0, 2, 3)))
    assert np.allclose(state.running_var, 0.9 + 0.1 * x.data.var(axis=(0, 2, 3)))


def test_batchnorm_scale_invariance_motivates_gate_placement():
    # doubling the conv weights leaves the train-mode BN output unchanged,
    # which is why the gate must sit after the normalization
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 2, 6, 6)))
    w = rng.normal(size=(3, 2, 3, 3))
    outs = []
    for scale_factor in (1.0, 2.0):
        state = BnState.create(3)
        y = conv2d(x, Tensor(w * scale_factor), 1, 1)
        outs.append(batchnorm(y, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              state, "train").data)
    assert np.allclose(outs[0], outs[1], atol=1e-6)


def _reference_batchnorm(x, gamma, beta, state, mode="train"):
    """Batch norm alone as one node, on any layout: the rule ``batchnorm``
    had before it took in the ReLU and the gate."""
    c = x.shape[1]
    axes = (0, 2, 3)
    xd = x.data
    gd = gamma.data.reshape(1, c, 1, 1)
    if mode == "train":
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (xd - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        state.running_mean *= 1.0 - BN_MOMENTUM
        state.running_mean += BN_MOMENTUM * mu
        state.running_var *= 1.0 - BN_MOMENTUM
        state.running_var += BN_MOMENTUM * var
        n = xd.shape[0] * xd.shape[2] * xd.shape[3]

        def rule(g):
            dgamma = np.sum(g * xhat, axis=axes)
            dbeta = np.sum(g, axis=axes)
            dx = (gd * inv.reshape(1, c, 1, 1)) * (
                g - (dbeta / n).reshape(1, c, 1, 1)
                - xhat * (dgamma / n).reshape(1, c, 1, 1))
            return dx, dgamma, dbeta
    else:
        inv = 1.0 / np.sqrt(state.running_var + BN_EPS)
        xhat = (xd - state.running_mean.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)

        def rule(g):
            dgamma = np.sum(g * xhat, axis=axes)
            dbeta = np.sum(g, axis=axes)
            return g * gd * inv.reshape(1, c, 1, 1), dgamma, dbeta

    out = gd * xhat + beta.data.reshape(1, c, 1, 1)
    return custom_grad(out, (x, gamma, beta), rule, op="reference_batchnorm")


def _reference_epilogue(x, gamma, beta, state, mode, *, relu, gate):
    """A conv unit's epilogue as three nodes: ``_reference_batchnorm``, then
    ``tensor.relu``, then ``apply_gate`` over the filters."""
    y = _reference_batchnorm(x, gamma, beta, state, mode)
    if relu:
        y = relu_op(y)
    return y if gate is None else apply_gate(y, gate, AXIS1)


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("use_relu", [True, False], ids=["relu", "no-relu"])
@pytest.mark.parametrize("masked", [None, [], [1, 4], [0, 1, 2, 3, 4]],
                         ids=["ungated", "none-masked", "some-masked", "all-masked"])
def test_epilogue_node_matches_batchnorm_relu_gate_composition(mode, use_relu, masked):
    rng = np.random.default_rng(26)
    b, c, hw = 3, 5, 4
    x = rng.normal(1.0, 2.0, size=(c, b, hw, hw)).transpose(1, 0, 2, 3)
    gamma, beta = rng.normal(size=c) + 1.0, rng.normal(size=c)
    mean, var = rng.normal(size=c) * 0.3, rng.random(size=c) + 0.5
    proj = rng.normal(size=x.shape)
    gate = None
    if masked is not None:
        gate = GateParam.create("filter", c, name="u.gate")
        gate.alpha[:] = rng.uniform(0.5, 1.5, size=c) * rng.choice([-1.0, 1.0], size=c)
        gate.alpha[masked] = rng.uniform(-1e-5, 1e-5, size=len(masked))
    live = np.setdiff1d(np.arange(c), masked or [])
    # in eval a unit with a filter masked passes the live channels alone
    rows = live if mode == "eval" and len(live) < c else slice(None)
    # x in every layout, the one conv2d returns among them: it changes speed,
    # not values
    for order in _LAYOUTS.values():
        xl = _laid_out(x, order)
        runs = []
        for epilogue in (batchnorm, _reference_epilogue):
            state, tape = BnState(mean.copy(), var.copy()), Tape()
            nodes = [tape.param("x", xl[:, rows] if epilogue is batchnorm else xl),
                     tape.param("gamma", gamma), tape.param("beta", beta)]
            ev = None if gate is None else evaluation(gate, tape.param("alpha", gate.alpha))
            out = epilogue(*nodes, state, mode, relu=use_relu, gate=ev)
            grads = (None if mode == "eval"
                     else tape.backward(sum_all(mul(out, Tensor(proj)))))
            runs.append((out, grads, state))
        (got_node, got_grads, got_state), (want_node, want_grads, want_state) = runs
        got, dead = got_node.data, np.setdiff1d(np.arange(c), live)
        _assert_close(got, want_node.data)
        assert np.all(got[:, dead] == 0.0)
        _assert_close(got_state.running_mean, want_state.running_mean)
        _assert_close(got_state.running_var, want_state.running_var)
        if mode == "eval":
            # eval takes no gradient: the node has no parents and no rule
            assert got_node.parents == () and got_node.backward_rule is None
            continue
        # the reference's masked rows get exact zeros, which the node skips
        assert np.all(want_grads["x"][:, dead] == 0.0)
        for name in ("x", "gamma", "beta", *(() if gate is None else ("alpha",))):
            _assert_close(got_grads[name], want_grads[name])
        if masked:
            assert np.any(got_grads["alpha"][masked] != 0.0)    # rejuvenation


def test_epilogue_node_checks_its_channels():
    x = Tensor(np.zeros((2, 4, 3, 3)))
    gate = GateParam.create("filter", 4)
    gate.alpha[1] = 0.0
    with pytest.raises(ShapeError):
        batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), BnState.create(3))
    with pytest.raises(ShapeError):      # eval takes the 3 live channels alone
        batchnorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), BnState.create(4), "eval",
                  gate=evaluation(gate, Tensor(gate.alpha)))


def _unit(gated: bool, seed: int = 5, m: int = 4) -> ConvUnit:
    rng = np.random.default_rng(seed)
    gate = GateParam.create("filter", m, name="u.gate") if gated else None
    return ConvUnit(weights=rng.normal(size=(m, 3, 3, 3)) * 0.4,
                    bn_gamma=np.ones(m), bn_beta=np.zeros(m),
                    bn=BnState.create(m), gate=gate, name="u")


def test_conv_unit_identity_gate_matches_ungated_bitwise():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 8, 8))
    out_gated = _unit(True).forward(Tape(), Tensor(x), "train")
    out_plain = _unit(False).forward(Tape(), Tensor(x), "train")
    assert np.array_equal(out_gated.data, out_plain.data)


@pytest.mark.parametrize("masked", [[], [2], [0, 1, 2, 3]], ids=["none", "one", "all"])
def test_gated_conv_unit_trains_as_a_conv_node_and_an_epilogue_node(masked):
    unit = _unit(True)
    unit.gate.alpha[masked] = 1e-9
    tape = Tape()
    x = tape.leaf(np.random.default_rng(27).normal(size=(2, 3, 8, 8)))
    out = unit.forward(tape, x, "train")
    below = {id(n) for v in (*tape.params.values(), x) for n in _toposort(v)}
    assert [n.op for n in _toposort(out) if id(n) not in below] == ["conv2d", "batchnorm"]
    # eval takes no gradient: the unit's output is a leaf
    assert unit.forward(Tape(), x, "eval").parents == ()


def test_conv_unit_passes_batch_innermost_memory_between_its_nodes():
    # no copy at the node boundary: conv2d's output is the epilogue's rows,
    # the epilogue's dx the conv backward's rows, and the conv's input
    # gradient the rows of the epilogue before it
    for stride in (1, 2):
        unit = _unit(True)
        unit.stride = stride
        unit.gate.alpha[2] = 1e-9               # one filter masked
        rng = np.random.default_rng(29)
        tape = Tape()
        x = tape.param("x", rng.normal(size=(2, 3, 8, 8)))
        out = unit.forward(tape, x, "train")
        conv = out.parents[0]
        assert (conv.op, out.op) == ("conv2d", "batchnorm")
        seen = []

        def rule(g, rule=conv.backward_rule):
            seen.append(g)                      # the epilogue's dx
            return rule(g)

        conv.backward_rule = rule
        tape.backward(sum_all(mul(out, Tensor(rng.normal(size=out.shape)))))
        dx, = seen
        for a in (conv.data, out.data, dx):
            assert a.transpose(1, 2, 3, 0).flags.c_contiguous, stride
        # the conv's input gradient: C-contiguous [n, H, W, b] memory of its
        # own, not the interior of a padded buffer
        gx = x.grad.transpose(1, 2, 3, 0)
        assert gx.shape == (3, 8, 8, 2) and gx.flags.c_contiguous, stride
        assert gx.base is None or gx.base.size == gx.size, stride


def test_conv_and_matmul_rules_skip_the_gradient_of_a_data_input():
    rng = np.random.default_rng(40)
    x, w = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(4, 3, 3, 3))
    a = rng.normal(size=(4, 6))
    tape = Tape()
    out = conv2d(tape.leaf(x), tape.param("w", w), 1, 1)
    gx, gw = out.backward_rule(np.ones(out.shape))
    assert gx is None and gw.shape == w.shape
    assert conv2d(tape.param("x", x), Tensor(w), 1, 1).backward_rule(
        np.ones(out.shape))[0].shape == x.shape
    gx, gw = matmul(tape.leaf(a), tape.param("m", w.reshape(6, 18))).backward_rule(
        np.ones((4, 18)))
    assert gx is None and gw.shape == (6, 18)
    gx, gw = matmul(tape.param("a", a), tape.leaf(w.reshape(6, 18))).backward_rule(
        np.ones((4, 18)))
    assert gx.shape == (4, 6) and gw is None


class _InputAsParam(Tape):
    """A tape that registers the input batch, the one array a model binds
    through ``leaf`` in train mode, as the parameter "x"."""

    def leaf(self, value):
        return self.param("x", value)


@pytest.mark.parametrize("make,x", [
    (lambda: Mlp(6, (5,), 3, seed=1, granularity="weight"), (4, 6)),
    (lambda: ResNetSmall((3, 4), 1, in_channels=2, input_hw=(5, 5), classes=3, seed=1,
                         granularity="filter"), (4, 2, 5, 5))], ids=["mlp", "resnet"])
def test_skipping_the_data_gradient_leaves_every_parameter_gradient_bit_equal(make, x):
    """The input batch as data against the same batch registered as a
    parameter, whose gradient the first layer must then compute."""
    x = np.random.default_rng(41).normal(size=x)
    y = np.array([0, 2, 1, 2])
    grads = []
    for tape in (Tape(), _InputAsParam()):
        grads.append(tape.backward(cross_entropy(make().forward(tape, x), y)))
    assert set(grads[1]) - set(grads[0]) == {"x"} and np.any(grads[1]["x"] != 0.0)
    for name, g in grads[0].items():
        assert g.tobytes() == grads[1][name].tobytes(), name


def test_conv_unit_masked_filter_zero_channel_and_excluded_from_l2():
    unit = _unit(True)
    unit.gate.alpha[2] = 1e-9
    tape = Tape()
    x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 8, 8)))
    out = unit.forward(tape, x, "train")
    assert np.all(out.data[:, 2] == 0.0)
    w_node = tape.params["u.w"]
    val = masked_l2([(evaluation(unit.gate, tape.params["u.gate.alpha"]),
                      [(w_node, AXIS0)])])
    expected = sum(np.sum(unit.weights[i] ** 2) for i in (0, 1, 3))
    assert np.isclose(val.item(), expected)


def test_residual_block_masked_equals_skip_exactly():
    rng = np.random.default_rng(8)
    u1 = _unit(False, seed=9, m=3)
    u1.weights = rng.normal(size=(3, 3, 3, 3)) * 0.4
    u2 = _unit(False, seed=10, m=3)
    u2.relu = False
    u2.name = "u2"
    gate = GateParam.create("subnetwork", 1, name="blk.gate")
    gate.alpha[0] = 1e-9
    blk = ResidualBlock(u1, u2, gate, name="blk")
    x = rng.normal(size=(2, 3, 8, 8))
    out = blk.forward(Tape(), Tensor(x), "train")
    assert np.array_equal(out.data, x)


def test_residual_block_identity_gate_is_standard_block():
    rng = np.random.default_rng(11)
    u1, u2 = _unit(False, 12, 3), _unit(False, 13, 3)
    u2.relu = False
    u2.name = "u2"
    x = rng.normal(size=(1, 3, 6, 6))
    plain = ResidualBlock(u1, u2, None, name="blk")
    out_plain = plain.forward(Tape(), Tensor(x), "train")

    u1b, u2b = _unit(False, 12, 3), _unit(False, 13, 3)
    u2b.relu = False
    u2b.name = "u2"
    gated = ResidualBlock(u1b, u2b, GateParam.create("subnetwork", 1, name="blk.gate"),
                          name="blk")
    out_gated = gated.forward(Tape(), Tensor(x), "train")
    assert np.array_equal(out_plain.data, out_gated.data)


@pytest.mark.parametrize("granularity", [None, "filter", "subnetwork"])
def test_an_eval_forward_keeps_no_residual_activation(granularity):
    # eval's residual sums are leaves, as its conv epilogues are: the logits'
    # graph holds the pool's input and no other [b, c, H, W] activation
    model = ResNetSmall((2, 3, 4), 2, input_hw=(9, 9), classes=3, seed=0,
                        granularity=granularity)
    x = np.random.default_rng(28).normal(size=(2, 3, 9, 9))
    order = _toposort(model.forward(Tape(), x, mode="eval"))
    pool, = (node for node in order if node.op == "avg_pool")
    assert [node for node in order if node.data.ndim == 4] == list(pool.parents)


def test_resnet56_shape():
    model = ResNetSmall(stage_widths=(16, 32, 64), blocks_per_stage=9,
                        granularity="subnetwork", seed=0)
    assert len(model.blocks) == 27
    stages = {}
    for blk in model.blocks:
        stages.setdefault(blk.name.split(".")[0], []).append(blk)
    assert sorted(len(v) for v in stages.values()) == [9, 9, 9]
    for blk in model.blocks:
        assert blk.unit1.weights.shape[2:] == (3, 3)
        assert blk.unit2.weights.shape[2:] == (3, 3)


@pytest.mark.parametrize("granularity", [None, "filter", "subnetwork"])
def test_resnet_trains_at_32x32(monkeypatch, granularity):
    # every strided conv gets an even side, so never reads its last padded row
    widths = (2, 3, 4)
    model = ResNetSmall(widths, 1, in_channels=3, input_hw=(32, 32), classes=3,
                        seed=0, granularity=granularity)
    sides = stage_sides(32, 3)
    assert sides == [32, 16, 8]
    seen = {}
    forward = ConvUnit.forward

    def record(unit, tape, x, mode="train", **live):
        out = forward(unit, tape, x, mode, **live)
        seen[unit.name] = out.shape[2:]
        return out

    monkeypatch.setattr(ConvUnit, "forward", record)
    tape = Tape()
    logits = model.forward(tape, np.random.default_rng(21).normal(size=(2, 3, 32, 32)))
    assert logits.shape == (2, 3)
    assert seen == {"stem": (32, 32), **{f"s{si}.b0.c{c}": (side, side)
                                         for si, side in enumerate(sides)
                                         for c in (1, 2)},
                    "s1.b0.down": (16, 16), "s2.b0.down": (8, 8)}
    grads = tape.backward(sum_all(logits))
    assert set(grads) == set(model.params())
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert all(np.any(g != 0) for n, g in grads.items() if n.endswith(".w"))

    # dense FLOPs at the stage sides: convs (2 per MAC), batch norm 2 and
    # ReLU 1 per element, the residual add, 1x1 projections, pool and head
    expected = 2 * widths[0] * 3 * 9 * 32 ** 2 + widths[0] * 32 ** 2 * 3
    prev = widths[0]
    for width, side in zip(widths, sides):
        hw = side * side
        expected += 2 * width * prev * 9 * hw + width * hw * 3      # c1
        expected += 2 * width * width * 9 * hw + width * hw * 2     # c2, no ReLU
        expected += width * hw                                      # skip add
        if side != 32:
            expected += 2 * width * prev * hw + width * hw * 2      # projection
        prev = width
    expected += prev * sides[-1] ** 2 + 2 * 3 * prev + 3
    report = PruneManager(model).snapshot(0)
    assert report.total_flops == report.live_flops == expected


def _cell(gated: bool, h: int = 4, e: int = 3, seed: int = 14) -> LstmCell:
    rng = np.random.default_rng(seed)
    weights = {k: rng.normal(size=(h, h + e)) * 0.3 for k in LSTM_GATES}
    biases = {k: np.zeros(h) for k in LSTM_GATES}
    gates = ({k: GateParam.create("node", h, name=f"c.gate_{k}") for k in LSTM_GATES}
             if gated else None)
    return LstmCell(weights, biases, gates, name="c")


def test_lstm_zero_weights_give_zero_state():
    cell = _cell(True)
    for k in LSTM_GATES:
        cell.weights[k][:] = 0.0
        cell.biases[k][:] = 0.0
    tape = Tape()
    hs = cell.step(tape, Tensor(np.ones((2, 5, 3))))
    assert hs.shape == (2, 5, 4)
    assert np.all(hs.data == 0.0)


def test_lstm_identity_gates_match_plain_equations():
    xs = np.random.default_rng(15).normal(size=(2, 5, 3))
    gated, plain = _cell(True), _cell(False)
    hg = gated.step(Tape(), Tensor(xs))
    hp = plain.step(Tape(), Tensor(xs))
    assert np.array_equal(hg.data, hp.data)


def test_lstm_masked_output_node_zeroes_hidden_unit():
    cell = _cell(True, seed=16)
    cell.gates["o"].alpha[1] = 1e-9
    hs = cell.step(Tape(), Tensor(np.random.default_rng(17).normal(size=(3, 5, 3))))
    assert np.all(hs.data[:, :, 1] == 0.0)
    assert np.any(hs.data[:, :, 0] != 0.0)


def _reference_step(cell, nodes, x_t, h_prev, c_prev):
    """One timestep as the per-gate composition of public ops: a ``linear``
    per gate, then ``mul`` by alpha, ``sigmoid``/``tanh`` and ``apply_mask``,
    then the c/h update."""
    z = concat_cols(h_prev, x_t)
    acts = {}
    for k in LSTM_GATES:
        pre = linear(z, nodes[f"W_{k}"], nodes[f"b_{k}"])
        nonlin = tanh if k == "g" else sigmoid
        if cell.gates is None:
            acts[k] = nonlin(pre)
        else:
            alpha = nodes[f"gate_{k}.alpha"]
            acts[k] = apply_mask(nonlin(mul(pre, alpha)), evaluation(cell.gates[k], alpha),
                                 AXIS1)
    c_t = add(mul(acts["f"], c_prev), mul(acts["i"], acts["g"]))
    return mul(acts["o"], tanh(c_t)), c_t


def _column(xs: Tensor, t: int) -> Tensor:
    """xs[:, t] of a [b, T, e] node; the backward puts g at column t."""
    def rule(g):
        full = np.zeros(xs.shape)
        full[:, t] = g
        return (full,)

    return custom_grad(xs.data[:, t], (xs,), rule, op="column")


def _reference_sequence(cell, tape, xs):
    """``_reference_step`` looped over the T columns of ``xs`` from zero
    state, the h_t side by side as [b, T, h], on the parameter nodes
    ``Block.bind`` registers on ``tape``.  ``LstmCell.step`` must match it."""
    nodes = cell.bind(tape)
    b, T, _ = xs.shape
    h = c = Tensor(np.zeros((b, cell.hidden_dim)))
    hs = []
    for t in range(T):
        h, c = _reference_step(cell, nodes, _column(xs, t), h, c)
        hs.append(h)
    return reshape(concat_cols(*hs), (b, T, cell.hidden_dim))


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("gated", [True, False])
def test_fused_lstm_step_matches_per_gate_composition(gated):
    rng = np.random.default_rng(18)
    cell = _cell(gated, seed=19)
    for k in LSTM_GATES:
        cell.biases[k][:] = rng.normal(size=4) * 0.3
        if gated:
            cell.gates[k].alpha[:] = rng.uniform(0.5, 1.5, size=4)
    if gated:     # one masked node in o and one in i
        cell.gates["o"].alpha[1] = 1e-9
        cell.gates["i"].alpha[2] = -3e-5
    xs = rng.normal(size=(2, 4, 3))
    proj = rng.normal(size=(2, 4, 4))
    runs = []
    for step in (LstmCell.step, _reference_sequence):
        tape = Tape()
        hs = step(cell, tape, tape.param("xs", xs))
        runs.append((hs.data, tape.backward(sum_all(mul(hs, Tensor(proj))))))
    (fused, fused_grads), (ref, ref_grads) = runs
    assert fused.shape == (2, 4, 4)
    _assert_close(fused, ref)
    if gated:
        assert np.all(fused[:, :, 1] == 0.0)
    assert set(fused_grads) == set(ref_grads) == set(cell.params()) | {"xs"}
    for name, g in ref_grads.items():
        _assert_close(fused_grads[name], g)
    if gated:     # the masked alphas still get the straight-through gradient
        assert fused_grads["c.gate_o.alpha"][1] != 0.0
        assert fused_grads["c.gate_i.alpha"][2] != 0.0


def test_fused_lstm_lm_two_stacks_matches_per_gate_composition(monkeypatch):
    model = LstmLm(vocab=7, embed_dim=5, hidden=6, stacks=2, seed=20, granularity="node")
    rng = np.random.default_rng(21)
    for cell in model.cells:
        for k in LSTM_GATES:
            cell.gates[k].alpha[:] = rng.uniform(0.5, 1.5, size=6)
    model.cells[0].gates["o"].alpha[3] = 2e-5
    model.cells[1].gates["i"].alpha[0] = 1e-9
    ids = rng.integers(0, 7, size=(3, 4))
    runs = []
    for step in (LstmCell.step, _reference_sequence):
        monkeypatch.setattr(LstmCell, "step", step)
        tape = Tape()
        logits = model.forward(tape, ids)
        runs.append((logits.data, tape.backward(sum_all(mul(logits, Tensor(
            np.random.default_rng(22).normal(size=logits.shape)))))))
    (fused, fused_grads), (ref, ref_grads) = runs
    _assert_close(fused, ref)
    assert set(fused_grads) == set(model.params())
    for name, g in ref_grads.items():
        _assert_close(fused_grads[name], g)


@pytest.mark.parametrize("gated", [True, False])
def test_lstm_graph_does_not_grow_with_sequence_length(gated):
    cell = _cell(gated)
    counts = []
    for T in (2, 16):
        tape = Tape()
        xs = Tensor(np.ones((2, T, 3)))
        hs = cell.step(tape, xs)
        leaves = (*tape.params.values(), xs)
        assert len(leaves) == (13 if gated else 9)
        # one node on top of the parameter leaves and the inputs, and those
        # its parents
        assert {id(n) for n in _toposort(hs)} - {id(v) for v in leaves} == {id(hs)}
        assert {id(p) for p in hs.parents} == {id(v) for v in leaves}
        counts.append(len(_toposort(hs)))
    assert counts[0] == counts[1]


def test_two_stack_lstm_lm_forward_is_one_sequence_node_per_layer():
    model = LstmLm(vocab=7, embed_dim=5, hidden=6, stacks=2, seed=20, granularity="node")
    model.cells[1].gates["o"].alpha[2] = 1e-9
    tape = Tape()
    logits = model.forward(tape, np.random.default_rng(29).integers(0, 7, size=(3, 4)))
    assert all(not n.parents for n in tape.params.values())
    assert sorted(n.op for n in _toposort(logits) if n.parents) == sorted(
        ["embedding", "lstm_seq", "lstm_seq", "reshape", "transpose", "matmul", "add"])


def test_linear_examples():
    x = Tensor(np.array([[2.0, 3.0]]))
    out = linear(x, Tensor(np.array([[1.0, 1.0]])), Tensor(np.array([0.5])))
    assert np.array_equal(out.data, [[5.5]])
    eye = linear(Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(eye.data, np.eye(3))


def test_avg_pool_gradient_is_batch_innermost():
    rng = np.random.default_rng(28)
    x = Tape().param("x", rng.normal(size=(2, 3, 4, 5)))
    g = rng.normal(size=(2, 3))
    gx = avg_pool_full(x).backward_rule(g)[0]
    assert gx.shape == x.shape and gx.transpose(1, 2, 3, 0).flags.c_contiguous
    assert np.array_equal(gx, np.broadcast_to(g[:, :, None, None] / 20, x.shape))


def test_avg_pool_and_embedding():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    assert avg_pool_full(x).data.flat[0] == 7.5
    table = Tensor(np.arange(10.0).reshape(5, 2))
    out = embedding(table, np.array([0, 4, 0]))
    assert np.array_equal(out.data, [[0, 1], [8, 9], [0, 1]])
    with pytest.raises(ValueError):
        embedding(table, np.array([5]))


def test_embedding_of_a_batch_of_sequences_matches_per_column_lookups():
    rng = np.random.default_rng(23)
    table = rng.normal(size=(5, 3))
    ids = np.array([[0, 4, 4, 1], [4, 0, 2, 4], [1, 1, 4, 0]])   # repeats across b and T
    # integer upstream gradients: every scatter-add order gives the same sums
    g = rng.integers(-4, 5, size=(3, 4, 3)).astype(float)
    tape = Tape()
    out = embedding(tape.param("table", table), ids)
    assert np.array_equal(out.data, table[ids])
    want = tape.backward(sum_all(mul(out, Tensor(g))))["table"]
    tape = Tape()
    node = tape.param("table", table)
    cols = [embedding(node, ids[:, t]) for t in range(ids.shape[1])]
    loss = sum_all(concat_cols(*[mul(c, Tensor(g[:, t])) for t, c in enumerate(cols)]))
    assert np.array_equal(want, tape.backward(loss)["table"])
    for bad in (5, -1):
        for pos in [(0, 0), (2, 3), (1, 2)]:
            wrong = ids.copy()
            wrong[pos] = bad
            with pytest.raises(ValueError, match="out of range"):
                embedding(Tensor(table), wrong)


def test_embedding_backward_equals_add_at_scatter():
    # float upstream gradients: the sums depend on the order rows are added in,
    # and the backward must add them in np.add.at's order
    rng = np.random.default_rng(24)
    table = rng.normal(size=(32, 16))
    ids = rng.integers(0, 32, size=(16, 64))
    ids[0, :3] = 31                          # a repeated id; id 0 may be absent
    g = rng.normal(size=(16, 64, 16))
    tape = Tape()
    out = embedding(tape.param("table", table), ids)
    got = tape.backward(sum_all(mul(out, Tensor(g))))["table"]
    want = np.zeros_like(table)
    np.add.at(want, ids, g)
    assert np.array_equal(got, want)

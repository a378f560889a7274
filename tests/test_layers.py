import numpy as np
import pytest

from maskprune.gate import AXIS0, AXIS1, GateParam, apply_mask
from maskprune.gradcheck import run_checks
from maskprune.layers import (LSTM_GATES, BnState, ConvUnit, LstmCell,
                              ResidualBlock, avg_pool_full, batchnorm, conv2d,
                              embedding, linear)
from maskprune.models import LstmLm, ResNetSmall, stage_sides
from maskprune.objective import masked_l2
from maskprune.pruning import PruneManager
from maskprune.tensor import (Tape, Tensor, _toposort, add, concat_cols, mul, sigmoid,
                              sum_all, tanh)


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


@pytest.mark.parametrize("b,n,m,H,W,k,stride,padding", [
    (2, 3, 4, 7, 7, 3, 1, 1),
    (3, 2, 5, 6, 9, 3, 1, 0),
    (2, 3, 4, 9, 7, 3, 2, 1),
    (2, 2, 3, 7, 5, 1, 2, 0),
    (2, 3, 4, 8, 6, 3, 2, 1),     # even sides: the trailing pad row and column unread
    (3, 2, 3, 8, 5, 1, 2, 0),     # even height: the last row unread
    (2, 2, 3, 6, 8, 3, 2, 0),     # even sides, unpadded: the last row and column unread
    (2, 2, 3, 5, 5, 2, 2, 0),     # 2x2/s2 on 5x5: the last row and column unread
])
def test_conv_matches_direct_loop(b, n, m, H, W, k, stride, padding):
    rng = np.random.default_rng(20)
    x, w = rng.normal(size=(b, n, H, W)), rng.normal(size=(m, n, k, k))
    tape = Tape()
    out = conv2d(tape.param("x", x), tape.param("w", w), stride, padding)
    g = rng.normal(size=out.shape)
    grads = tape.backward(sum_all(mul(out, Tensor(g))))
    ref_out, ref_gx, ref_gw = _direct_conv(x, w, g, stride, padding)
    assert out.shape == ref_out.shape
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["x"].data, ref_gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["w"].data, ref_gw, rtol=0, atol=1e-10)


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
    # the direct loop reads a zero input channel outside live_in and gets a
    # zero upstream row outside live_out, as a gated network gives them
    rng = np.random.default_rng(22)
    x, w = rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3))
    keep_in, keep_out = np.zeros(3), np.zeros(4)
    keep_in[live_in if live_in is not None else slice(None)] = 1.0
    keep_out[live_out if live_out is not None else slice(None)] = 1.0
    x *= keep_in[None, :, None, None]
    live_in = None if live_in is None else np.array(live_in, dtype=int)
    live_out = None if live_out is None else np.array(live_out, dtype=int)
    Ho, Wo = (7 + 2 * padding - 3) // stride + 1, (6 + 2 * padding - 3) // stride + 1
    g = rng.normal(size=(2, 4, Ho, Wo)) * keep_out[None, :, None, None]
    ref_out, ref_gx, ref_gw = _direct_conv(x, w, g, stride, padding)
    if mode == "eval":
        # a conv unit's eval: the live filters' rows alone, forward only
        rows = np.flatnonzero(keep_out)
        out = conv2d(Tensor(x), Tensor(w[rows]), stride, padding, live_in=live_in)
        np.testing.assert_allclose(out.data, ref_out[:, rows], rtol=0, atol=1e-10)
        return
    tape = Tape()
    out = conv2d(tape.param("x", x), tape.param("w", w), stride, padding,
                 live_in=live_in, live_out=live_out)
    grads = tape.backward(sum_all(mul(out, Tensor(g))))
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["x"].data, ref_gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["w"].data, ref_gw, rtol=0, atol=1e-10)


def test_conv_and_bn_gradients():
    results = dict((n, e) for n, e, ok in run_checks(["conv2d", "batchnorm"]))
    assert results["conv2d"] < 1e-4
    assert results["batchnorm"] < 1e-4


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
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 2, 3, 3)))
    state = BnState(np.zeros(2), np.ones(2), eps=1e-12)
    out = batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "eval")
    assert np.allclose(out.data, x.data, atol=1e-9)


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 1.0, size=(16, 2, 4, 4)))
    state = BnState.create(2, momentum=1.0)   # running <- batch stats exactly
    batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "train")
    assert np.allclose(state.running_mean, x.data.mean(axis=(0, 2, 3)))
    assert np.allclose(state.running_var, x.data.var(axis=(0, 2, 3)))


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


def test_conv_unit_masked_filter_zero_channel_and_excluded_from_l2():
    unit = _unit(True)
    unit.gate.alpha[2] = 1e-9
    tape = Tape()
    x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 8, 8)))
    out = unit.forward(tape, x, "train")
    assert np.all(out.data[:, 2] == 0.0)
    w_node = tape.params["u.w"]
    val = masked_l2([(unit.gate, [(w_node, AXIS0)])])
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
    assert all(np.all(np.isfinite(g.data)) for g in grads.values())
    assert all(np.any(g.data != 0) for n, g in grads.items() if n.endswith(".w"))

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
    nodes = cell.bind(tape)
    h, c = cell.step(nodes, Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))),
                     Tensor(np.zeros((2, 4))))
    assert np.all(c.data == 0.0)
    assert np.all(h.data == 0.0)


def test_lstm_identity_gates_match_plain_equations():
    x = np.random.default_rng(15).normal(size=(2, 3))
    h0 = np.zeros((2, 4))
    c0 = np.zeros((2, 4))
    gated, plain = _cell(True), _cell(False)
    tg, tp = Tape(), Tape()
    hg, cg = gated.step(gated.bind(tg), Tensor(x), Tensor(h0), Tensor(c0))
    hp, cp = plain.step(plain.bind(tp), Tensor(x), Tensor(h0), Tensor(c0))
    assert np.array_equal(hg.data, hp.data)
    assert np.array_equal(cg.data, cp.data)


def test_lstm_masked_output_node_zeroes_hidden_unit():
    cell = _cell(True, seed=16)
    cell.gates["o"].alpha[1] = 1e-9
    tape = Tape()
    h, _ = cell.step(cell.bind(tape), Tensor(np.random.default_rng(17).normal(size=(3, 3))),
                     Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    assert np.all(h.data[:, 1] == 0.0)
    assert np.any(h.data[:, 0] != 0.0)


def test_lstm_gradcheck():
    err = dict((n, e) for n, e, ok in run_checks(["lstm-cell"]))["lstm-cell"]
    assert err < 1e-4


def _reference_step(cell, nodes, x_t, h_prev, c_prev):
    """One timestep as the per-gate composition of public ops: a ``linear``
    per gate, then ``mul`` by alpha, ``sigmoid``/``tanh`` and ``apply_mask``,
    then the c/h update.  The fused ``LstmCell.step`` must match it."""
    z = concat_cols(h_prev, x_t)
    acts = {}
    for k in LSTM_GATES:
        pre = linear(z, nodes[f"W_{k}"], nodes[f"b_{k}"])
        nonlin = tanh if k == "g" else sigmoid
        if cell.gates is None:
            acts[k] = nonlin(pre)
        else:
            alpha = nodes[f"gate_{k}.alpha"]
            acts[k] = apply_mask(nonlin(mul(pre, alpha)), cell.gates[k], AXIS1, alpha=alpha)
    c_t = add(mul(acts["f"], c_prev), mul(acts["i"], acts["g"]))
    return mul(acts["o"], tanh(c_t)), c_t


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
    xs = rng.normal(size=(3, 2, 3))
    h0, c0 = rng.normal(size=(2, 4)) * 0.5, rng.normal(size=(2, 4)) * 0.5
    proj_h, proj_c = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    runs = []
    for step in (LstmCell.step, _reference_step):
        tape = Tape()
        nodes = cell.bind(tape)
        h, c = tape.param("h0", h0), tape.param("c0", c0)
        states = []
        for t, x in enumerate(xs):
            h, c = step(cell, nodes, tape.param(f"x{t}", x), h, c)
            states.append((h.data, c.data))
        grads = tape.backward(add(sum_all(mul(h, Tensor(proj_h))),
                                  sum_all(mul(c, Tensor(proj_c)))))
        runs.append((states, grads))
    (fused, fused_grads), (ref, ref_grads) = runs
    for (h, c), (h_ref, c_ref) in zip(fused, ref):
        _assert_close(h, h_ref)
        _assert_close(c, c_ref)
    if gated:
        assert np.all(fused[-1][0][:, 1] == 0.0)
    assert set(fused_grads) == set(ref_grads) == (
        set(cell.params()) | {"h0", "c0", "x0", "x1", "x2"})
    for name, g in ref_grads.items():
        _assert_close(fused_grads[name].data, g.data)
    if gated:     # the masked alphas still get the straight-through gradient
        assert fused_grads["c.gate_o.alpha"].data[1] != 0.0
        assert fused_grads["c.gate_i.alpha"].data[2] != 0.0


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
    for step in (LstmCell.step, _reference_step):
        monkeypatch.setattr(LstmCell, "step", step)
        tape = Tape()
        logits = model.forward(tape, ids)
        runs.append((logits.data, tape.backward(sum_all(mul(logits, Tensor(
            np.random.default_rng(22).normal(size=logits.shape)))))))
    (fused, fused_grads), (ref, ref_grads) = runs
    _assert_close(fused, ref)
    assert set(fused_grads) == set(model.params())
    for name, g in ref_grads.items():
        _assert_close(fused_grads[name].data, g.data)


@pytest.mark.parametrize("gated", [True, False])
def test_lstm_step_adds_at_most_six_graph_nodes(gated):
    cell = _cell(gated)
    nodes = cell.bind(Tape())
    x = Tensor(np.ones((2, 3)))
    h1, c1 = cell.step(nodes, x, Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
    h2, c2 = cell.step(nodes, x, h1, c1)

    def reachable(*roots):
        return {id(n) for r in roots for n in _toposort(r)}

    assert len(reachable(h2, c2) - reachable(h1, c1, x)) <= 6


def test_linear_examples():
    x = Tensor(np.array([[2.0, 3.0]]))
    out = linear(x, Tensor(np.array([[1.0, 1.0]])), Tensor(np.array([0.5])))
    assert np.array_equal(out.data, [[5.5]])
    eye = linear(Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(eye.data, np.eye(3))


def test_avg_pool_and_embedding():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    assert avg_pool_full(x).data.flat[0] == 7.5
    table = Tensor(np.arange(10.0).reshape(5, 2))
    out = embedding(table, np.array([0, 4, 0]))
    assert np.array_equal(out.data, [[0, 1], [8, 9], [0, 1]])
    with pytest.raises(ValueError):
        embedding(table, np.array([5]))

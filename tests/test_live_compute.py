"""Conv units compute only what the gate masks leave live.

On random prunings, drawn like the accounting oracles draw them (each gate
component's alpha set to 0 or 1, ``test_accounting_equivalence``), a train
step and an eval forward must match the same model run with every channel
treated as live: ``GateParam.mask`` patched to all ones, so ``conv2d`` gets
no live indices, eval runs every filter of every unit and every residual
branch runs, while the gates still apply their hard masks.  Spies check that
in eval a unit with masked filters runs ``conv2d`` and ``batchnorm`` on its
live filters alone, and that a masked residual branch runs no conv backward
in training and no forward in eval.
"""

from collections import Counter

import numpy as np
import pytest

from maskprune import layers
from maskprune.gate import GateParam
from maskprune.objective import cross_entropy
from maskprune.tensor import Tape
from test_accounting_equivalence import MODELS

CASES = ("toy-filter", "resnet-filter", "resnet-subnetwork")
TOL = 1e-12


def _batch(model, rng, b=3):
    x = rng.normal(size=(b, model.in_channels, *model.input_hw))
    return x, rng.integers(0, model.head.w.shape[0], size=b)


def _run(model, x, y):
    """Loss, parameter gradients and batch-norm state of one train step, and
    the eval logits after it."""
    tape = Tape()
    loss = cross_entropy(model.forward(tape, x, "train"), y)
    grads = {n: g.data for n, g in tape.backward(loss).items()}
    state = {n: a.copy() for n, a in model.state().items()}
    return loss.item(), grads, state, model.forward(Tape(), x, "eval").data


@pytest.mark.parametrize("name", CASES)
def test_pruned_step_matches_all_live_computation(name, monkeypatch):
    rng = np.random.default_rng(sum(map(ord, name)))
    for p in (0.3, 0.6, 0.5, 0.8, 1.0, 0.2):
        masks = np.random.default_rng(rng.integers(2 ** 32))
        pruned, reference = MODELS[name](), MODELS[name]()
        for g, h in zip(pruned.gates(), reference.gates()):
            g.alpha[:] = h.alpha[:] = np.where(masks.random(g.dim) < p, 0.0, 1.0)
        x, y = _batch(pruned, rng)
        loss, grads, state, logits = _run(pruned, x, y)
        with monkeypatch.context() as patch:
            patch.setattr(GateParam, "mask", lambda gate: np.ones(gate.dim))
            ref_loss, ref_grads, ref_state, ref_logits = _run(reference, x, y)
        assert abs(loss - ref_loss) <= TOL
        for n in ref_grads:
            np.testing.assert_allclose(grads[n], ref_grads[n], rtol=0, atol=TOL, err_msg=n)
        for n in ref_state:
            np.testing.assert_allclose(state[n], ref_state[n], rtol=0, atol=TOL, err_msg=n)
        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=TOL)


@pytest.mark.parametrize("name", ("toy-filter", "resnet-filter"))
def test_eval_runs_a_masked_unit_on_its_live_filters_alone(name, monkeypatch):
    model = MODELS[name]()
    units = [b for b in model.walk() if isinstance(b, layers.ConvUnit)]
    calls, outputs, running = {}, {}, []
    conv, bn, unit_forward = layers.conv2d, layers.batchnorm, layers.ConvUnit.forward

    def spy_conv(x, w, *args, **kw):
        calls[running[-1]].append(("conv2d", w.shape[0]))
        return conv(x, w, *args, **kw)

    def spy_bn(x, gamma, *args, **kw):
        calls[running[-1]].append(("batchnorm", x.shape[1]))
        return bn(x, gamma, *args, **kw)

    def spy_forward(unit, tape, x, mode="train", **live):
        running.append(unit.name)
        calls[unit.name] = []
        out = unit_forward(unit, tape, x, mode, **live)
        running.pop()
        outputs[unit.name] = out.data
        return out

    monkeypatch.setattr(layers, "conv2d", spy_conv)
    monkeypatch.setattr(layers, "batchnorm", spy_bn)
    monkeypatch.setattr(layers.ConvUnit, "forward", spy_forward)
    rng = np.random.default_rng(sum(map(ord, name)))
    for p in (0.5, 1.0):
        for g in model.gates():
            g.alpha[:] = np.where(rng.random(g.dim) < p, 0.0, 1.0)
        model.forward(Tape(), _batch(model, rng)[0], "eval")
        masked = [u for u in units if u.live_filters() is not None]
        assert masked
        for u in masked:
            live = u.live_filters()
            assert calls[u.name] == [("conv2d", len(live)), ("batchnorm", len(live))], u.name
            dead = np.setdiff1d(np.arange(u.out_channels), live)
            assert np.all(outputs[u.name][:, dead] == 0.0), u.name


def test_masked_branch_runs_no_conv_backward_in_training_and_no_forward_in_eval(
        monkeypatch):
    model = MODELS["resnet-subnetwork"]()
    masked = {model.blocks[i].name for i in (1, 2, 4)}
    for blk in model.blocks:
        blk.gate.alpha[:] = 0.0 if blk.name in masked else 1.0
    forwards, backwards = Counter(), Counter()
    conv, unit_forward = layers.conv2d, layers.ConvUnit.forward

    def spy_conv(x, w, *args, **kw):
        out = conv(x, w, *args, **kw)

        def counted(g, rule=out.backward_rule, name=w.param_id):
            backwards[name.removesuffix(".w")] += 1
            return rule(g)

        out.backward_rule = counted
        return out

    def spy_forward(unit, tape, x, mode="train", **live):
        forwards[unit.name] += 1
        return unit_forward(unit, tape, x, mode, **live)

    monkeypatch.setattr(layers, "conv2d", spy_conv)
    monkeypatch.setattr(layers.ConvUnit, "forward", spy_forward)
    branch = {f"{blk.name}.{u}": blk.name in masked
              for blk in model.blocks for u in ("c1", "c2")}
    x, y = _batch(model, np.random.default_rng(3))

    tape = Tape()
    tape.backward(cross_entropy(model.forward(tape, x, "train"), y))
    # a masked branch still runs forward in training: its alpha's gradient
    # reads the branch output, and its batch norms update their statistics
    assert all(forwards[u] == 1 for u in branch)
    assert {u: backwards[u] for u in branch} == {u: int(not m) for u, m in branch.items()}
    assert backwards["stem"] == 1

    forwards.clear()
    model.forward(Tape(), x, "eval")
    assert {u: forwards[u] for u in branch} == {u: int(not m) for u, m in branch.items()}
    assert forwards["stem"] == 1

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import maskprune
from maskprune.checkpoint import save_checkpoint
from maskprune.cli import main
from maskprune.config import (ARCHS, DATASETS, GRANULARITY_FOR_ARCH, ConfigError,
                              build_datasets, build_model, validate_config)
from maskprune.gradcheck import CHECKS, run_checks
from maskprune.objective import cross_entropy
from maskprune.tensor import Tape, Tensor


def _toy_config(out_dir, **overrides):
    cfg = {
        "schema_version": 1,
        "arch": "toy-convnet",
        "granularity": "filter",
        "dataset": "synth-images",
        "data_n": 64,
        "data_test_n": 32,
        "data_classes": 3,
        "data_margin": 9.0,
        "image_hw": 6,
        "image_channels": 2,
        "conv_channels": [4, 4],
        "epochs": 2,
        "batch_size": 16,
        "base_lr": 0.05,
        "lambda1": 1e-3,
        "lambda2": 1e-4,
        "seed": 1,
        "out_dir": out_dir,
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_command_happy_path(tmp_path):
    out = str(tmp_path / "run")
    code = main(["train", "--config", _write(tmp_path, _toy_config(out))])
    assert code == 0
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert os.path.exists(tmp_path / "run" / "prune_report.txt")
    assert os.path.exists(tmp_path / "run" / "checkpoint" / "manifest.json")


def test_train_rejects_negative_lambda(tmp_path):
    out = str(tmp_path / "run")
    cfg = _toy_config(out, lambda1=-1e-3)
    code = main(["train", "--config", _write(tmp_path, cfg)])
    assert code != 0


def test_train_byte_identical_metrics_across_runs(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cfg_path1 = _write(tmp_path, _toy_config(out1), "c1.json")
    cfg_path2 = _write(tmp_path, _toy_config(out2), "c2.json")
    assert main(["train", "--config", cfg_path1]) == 0
    assert main(["train", "--config", cfg_path2]) == 0
    m1 = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    assert m1 == m2


def test_unknown_config_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="lambda1"):
        validate_config(_toy_config("x", lambda_one=2.0))


def test_incompatible_granularity_rejected_before_compute(tmp_path):
    cfg = _toy_config(str(tmp_path), granularity="subnetwork")
    code = main(["train", "--config", _write(tmp_path, cfg)])
    assert code == 2


_NON_IMAGE = {
    "mlp": {"arch": "mlp", "granularity": "weight", "dataset": "synth-class"},
    "lstm-classifier": {"arch": "lstm-classifier", "granularity": "node",
                        "dataset": "synth-seq-majority"},
    "lstm-lm": {"arch": "lstm-lm", "granularity": "node",
                "dataset": "synth-seq-markov"},
}


@pytest.mark.parametrize("arch", sorted(_NON_IMAGE))
def test_augment_rejected_for_non_image_arch(arch):
    with pytest.raises(ConfigError, match="augment"):
        validate_config(_toy_config("x", augment=True, **_NON_IMAGE[arch]))
    validate_config(_toy_config("x", augment=False, **_NON_IMAGE[arch]))


def test_train_augment_with_mlp_exits_cleanly(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = _toy_config(out, augment=True, **_NON_IMAGE["mlp"])
    code = main(["train", "--config", _write(tmp_path, cfg)])
    assert code != 0
    assert "augment" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,overrides", [
    pytest.param("stage_widths", dict(arch="resnet-small", stage_widths=[]),
                 id="no-stages"),
    *[pytest.param(key, {key: value}, id=f"{key}={value}")
      for key, value in [("alpha_init", float("nan")), ("alpha_init", float("inf")),
                         ("base_lr", float("inf")), ("gate_beta", float("inf")),
                         ("data_margin", float("inf")), ("lambda1", float("inf")),
                         ("alpha_init", float("-inf")), ("seed", True),
                         ("data_seed", False), ("decay_epochs", [True]), ("seed", -1),
                         ("data_seed", -3), ("decay_epochs", [-1]),
                         ("schema_version", True), ("lstm_stacks", True)]]])
def test_train_rejects_invalid_value_before_compute(tmp_path, capsys, key, overrides):
    out = str(tmp_path / "run")
    code = main(["train", "--config", _write(tmp_path, _toy_config(out, **overrides))])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not os.path.exists(out)


def test_train_validates_seed_override(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", "--config", _write(tmp_path, _toy_config(out)), "--seed", "-1"])
    assert code == 2
    assert "'seed'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_required_key():
    cfg = _toy_config("x")
    del cfg["arch"]
    with pytest.raises(ConfigError, match="arch"):
        validate_config(cfg)


def test_batch_larger_than_training_split_refused(tmp_path, capsys):
    # 8 samples hold no batch of 32, so every epoch would take no step
    out = tmp_path / "run"
    raw = dict(schema_version=1, arch="mlp", dataset="synth-class", data_n=8,
               batch_size=32, epochs=2, out_dir=str(out))
    assert main(["train", "--config", _write(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert "'batch_size'" in err and "'data_n'" in err
    assert not out.exists()


def test_unwritable_out_dir_is_a_config_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    path = _write(tmp_path, _toy_config(str(blocker / "run")))
    src = os.path.dirname(os.path.dirname(maskprune.__file__))
    proc = subprocess.run([sys.executable, "-m", "maskprune.cli", "train", "--config", path],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


def test_seed_override_changes_metrics(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    p1 = _write(tmp_path, _toy_config(out1), "a.json")
    p2 = _write(tmp_path, _toy_config(out2), "b.json")
    assert main(["train", "--config", p1]) == 0
    assert main(["train", "--config", p2, "--seed", "77"]) == 0
    m1 = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    m2 = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert m1 != m2


def test_gradcheck_single_op(capsys):
    code = main(["gradcheck", "--op", "foothill"])
    assert code == 0
    out = capsys.readouterr().out
    assert "foothill" in out
    err = float(out.split("max rel err")[1].split()[0])
    assert err < 1e-6


def test_gradcheck_all_passes_every_registered_check(capsys):
    assert main(["gradcheck", "--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = {line.split(":")[0].strip(): line.split()[-1] for line in lines}
    assert status == {name: "pass" for name in CHECKS}


def test_gradcheck_unknown_op():
    with pytest.raises(SystemExit):   # argparse rejects names outside choices
        main(["gradcheck", "--op", "nonsense"])


def test_gradcheck_negative_control_names_corrupt_op():
    # fixture: a registry whose backward rule is deliberately wrong
    def corrupt(rng):
        return 0.5

    registry = {"good": lambda rng: 1e-9, "evil-op": corrupt}
    results = run_checks(None, tolerance=1e-4, registry=registry)
    failing = [name for name, err, ok in results if not ok]
    assert failing == ["evil-op"]


def test_every_tape_check_fails_on_gradients_off_by_a_thousandth(monkeypatch):
    # catches a case table that runs no case, or a case that never compares
    # the tape's gradient; only the closed-form pair runs without a tape
    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward", lambda self, loss: {
        name: Tensor(g.data * 1.001) for name, g in backward(self, loss).items()})
    passed = [name for name, _, ok in run_checks() if ok]
    assert passed == ["foothill", "surrogate-mask"]


def test_report_fresh_model(tmp_path, capsys):
    raw = {
        "schema_version": 1, "arch": "resnet-small", "granularity": "subnetwork",
        "dataset": "synth-images", "image_hw": 8, "stage_widths": [4, 8],
        "blocks_per_stage": 3, "data_classes": 3, "out_dir": "x",
    }
    cfg = validate_config(raw)
    model = build_model(cfg)
    ck = str(tmp_path / "ck")
    save_checkpoint(ck, model.persistent_arrays(), model.gates(),
                    {"run_config": cfg, "step": 0})
    assert main(["report", "--checkpoint", ck]) == 0
    out = capsys.readouterr().out
    assert "6 active / 6 total" in out
    assert "pruned ratio x100: 0.00" in out


def test_report_five_of_27_blocks_masked(tmp_path, capsys):
    raw = {
        "schema_version": 1, "arch": "resnet-small", "granularity": "subnetwork",
        "dataset": "synth-images", "image_hw": 32, "stage_widths": [16, 32, 64],
        "blocks_per_stage": 9, "data_classes": 10, "out_dir": "x",
    }
    cfg = validate_config(raw)
    model = build_model(cfg)
    for blk in model.blocks[:5]:
        blk.gate.alpha[0] = 0.0
    ck = str(tmp_path / "ck")
    save_checkpoint(ck, model.persistent_arrays(), model.gates(),
                    {"run_config": cfg, "step": 1234})
    assert main(["report", "--checkpoint", ck]) == 0
    out = capsys.readouterr().out
    assert "22 active / 27 total" in out
    assert "pruned ratio x100: 18.52" in out


def test_report_rejects_missing_checkpoint(tmp_path):
    assert main(["report", "--checkpoint", str(tmp_path / "nope")]) == 2


def test_report_fractions_match_manager(tmp_path, capsys):
    from maskprune.pruning import PruneManager
    raw = {
        "schema_version": 1, "arch": "toy-convnet", "granularity": "filter",
        "dataset": "synth-images", "image_hw": 6, "image_channels": 2,
        "conv_channels": [4, 4], "data_classes": 3, "out_dir": "x",
    }
    cfg = validate_config(raw)
    model = build_model(cfg)
    model.units[0].gate.alpha[1] = 0.0
    ck = str(tmp_path / "ck")
    save_checkpoint(ck, model.persistent_arrays(), model.gates(),
                    {"run_config": cfg, "step": 0})
    assert main(["report", "--checkpoint", ck]) == 0
    out = capsys.readouterr().out
    report = PruneManager(model).snapshot(0)
    assert f"fraction {report.pruned_params_fraction:.6f}" in out
    assert f"fraction {report.pruned_flops_fraction:.6f}" in out


# one tiny model per arch; more resnet-small image sides are in _GRID below
_TINY_ARCH = {
    "mlp": dict(dataset="synth-class", data_dim=4, mlp_hidden=[3]),
    "toy-convnet": dict(dataset="synth-images", image_hw=5, image_channels=1,
                        conv_channels=[2]),
    "resnet-small": dict(dataset="synth-images", image_hw=5, image_channels=1,
                         stage_widths=[2, 3], blocks_per_stage=1),
    "lstm-classifier": dict(dataset="synth-seq-majority", lstm_hidden=3,
                            embed_dim=2, data_seq_len=4),
    "lstm-lm": dict(dataset="synth-seq-markov", lstm_hidden=3, embed_dim=2,
                    data_seq_len=4),
}
# params() of the gated variant, in order; the ungated one drops the alphas
_LSTM_PARAMS = ("embed " + " ".join(f"lstm0.W_{k} lstm0.b_{k} lstm0.gate_{k}.alpha"
                                    for k in "figo") + " head.w head.b")
_PINNED_PARAMS = {
    "mlp": {"weight": "fc0.w fc0.b fc0.gate.alpha fc1.w fc1.b fc1.gate.alpha"},
    "toy-convnet": {"filter": "conv0.w conv0.bn.gamma conv0.bn.beta conv0.gate.alpha "
                              "head.w head.b"},
    "resnet-small": {
        "filter": "stem.w stem.bn.gamma stem.bn.beta stem.gate.alpha "
                  "s0.b0.c1.w s0.b0.c1.bn.gamma s0.b0.c1.bn.beta s0.b0.c1.gate.alpha "
                  "s0.b0.c2.w s0.b0.c2.bn.gamma s0.b0.c2.bn.beta s0.b0.c2.gate.alpha "
                  "s1.b0.c1.w s1.b0.c1.bn.gamma s1.b0.c1.bn.beta s1.b0.c1.gate.alpha "
                  "s1.b0.c2.w s1.b0.c2.bn.gamma s1.b0.c2.bn.beta s1.b0.c2.gate.alpha "
                  "s1.b0.down.w s1.b0.down.bn.gamma s1.b0.down.bn.beta head.w head.b",
        "subnetwork": "stem.w stem.bn.gamma stem.bn.beta "
                      "s0.b0.c1.w s0.b0.c1.bn.gamma s0.b0.c1.bn.beta "
                      "s0.b0.c2.w s0.b0.c2.bn.gamma s0.b0.c2.bn.beta s0.b0.gate.alpha "
                      "s1.b0.c1.w s1.b0.c1.bn.gamma s1.b0.c1.bn.beta "
                      "s1.b0.c2.w s1.b0.c2.bn.gamma s1.b0.c2.bn.beta s1.b0.gate.alpha "
                      "s1.b0.down.w s1.b0.down.bn.gamma s1.b0.down.bn.beta head.w head.b"},
    "lstm-classifier": {"node": _LSTM_PARAMS},
    "lstm-lm": {"node": _LSTM_PARAMS},
}
_PINNED_BUFFERS = {
    "toy-convnet": "conv0.bn",
    "resnet-small": "stem.bn s0.b0.c1.bn s0.b0.c2.bn s1.b0.c1.bn s1.b0.c2.bn s1.b0.down.bn",
}


@pytest.mark.parametrize("arch,granularity", [(a, g) for a, grans in
                                               GRANULARITY_FOR_ARCH.items()
                                               for g in grans])
def test_every_arch_and_granularity_trains_and_reports(tmp_path, capsys, arch,
                                                       granularity):
    out = str(tmp_path / "run")
    raw = dict(schema_version=1, arch=arch, granularity=granularity, data_n=16,
               data_test_n=8, data_classes=2, epochs=1, batch_size=8, lambda1=1e-3,
               lambda2=1e-4, lambda3=0.1, target_c=0.5, out_dir=out, **_TINY_ARCH[arch])
    assert main(["train", "--config", _write(tmp_path, raw)]) == 0
    capsys.readouterr()
    assert main(["report", "--checkpoint", os.path.join(out, "checkpoint")]) == 0
    report = capsys.readouterr().out
    gated = granularity != "none"
    assert ("maskprune prune report v1" in report) == gated
    # train writes the report that `maskprune report` prints for its checkpoint
    report_path = os.path.join(out, "prune_report.txt")
    if gated:
        with open(report_path) as fh:
            assert fh.read() == report
    else:
        assert not os.path.exists(report_path)

    pinned = _PINNED_PARAMS[arch]
    if gated:
        params = pinned[granularity].split()
    else:   # the weights of any gated variant, without its alphas
        params = [n for n in next(iter(pinned.values())).split()
                  if not n.endswith(".alpha")]
    buffers = [f"{bn}.{s}" for bn in _PINNED_BUFFERS.get(arch, "").split()
               for s in ("running_mean", "running_var")]
    model = build_model(validate_config(raw))
    assert list(model.params()) == params
    assert sorted(model.persistent_arrays()) == sorted(params + buffers)


def _task_alpha_grads(model, x, y) -> dict[str, np.ndarray]:
    """Task-loss gradient of every gate's alpha on one batch."""
    tape = Tape()
    grads = tape.backward(cross_entropy(model.forward(tape, x), y))
    return {g.name: grads[f"{g.name}.alpha"].data for g in model.gates()}


@pytest.mark.parametrize("arch,granularity", [(a, g) for a, grans in
                                               GRANULARITY_FOR_ARCH.items()
                                               for g in grans if g != "none"])
def test_masked_component_gets_task_gradient(arch, granularity):
    # Rejuvenation at model level: with one component of one gate below the
    # threshold and every other component active, the task loss alone must
    # still push on that component's alpha whenever it does so while the
    # component is active (a dead ReLU unit cuts both).  Masking node i of all
    # four LSTM gates at once would zero h[i] and c[i] and all four gradients,
    # so each gate is masked on its own.
    cfg = validate_config(dict(schema_version=1, arch=arch, granularity=granularity,
                               data_n=16, batch_size=16, data_classes=2,
                               **_TINY_ARCH[arch]))
    model = build_model(cfg)
    train_ds, _ = build_datasets(cfg)
    x, y = train_ds.inputs, model.flatten_labels(train_ds.labels)
    active = _task_alpha_grads(model, x, y)
    for gate in model.gates():
        reached = np.flatnonzero(active[gate.name])
        assert reached.size, gate.name
        for i in reached:
            alpha_i = gate.alpha[i]
            gate.alpha[i] = 0.5 * gate.threshold       # masked, sign kept
            masked = _task_alpha_grads(model, x, y)[gate.name]
            gate.alpha[i] = alpha_i
            assert masked[i] != 0.0, f"{gate.name}[{i}]"


# the (arch, dataset) pairs whose input kinds match; validation refuses the rest
_FEEDS = {("mlp", "synth-class"), ("toy-convnet", "synth-images"),
          ("resnet-small", "synth-images"), ("toy-convnet", "cifar10"),
          ("resnet-small", "cifar10"), ("lstm-classifier", "synth-seq-majority"),
          ("lstm-lm", "synth-seq-markov")}
# resnet-small image sides on top of the grid, even stage sides included
_GRID = [pytest.param(a, d, {}, id=f"{a}+{d}") for a in ARCHS for d in DATASETS] + [
    pytest.param("resnet-small", "synth-images", dict(image_hw=hw, stage_widths=widths),
                 id=f"resnet-small+synth-images-side{hw}-stages{len(widths)}")
    for hw, widths in [(12, [2, 3, 4]),      # the default image_hw: 12 -> 6 -> 3
                       (7, [2, 3, 4]),       # 7 -> 4 -> 2
                       (17, [2, 3, 4]),      # 17 -> 9 -> 5
                       (5, [2, 3])]]


@pytest.mark.parametrize("arch,dataset,overrides", _GRID)
def test_every_arch_dataset_pair_is_refused_or_trains(tmp_path, arch, dataset,
                                                      overrides):
    out = str(tmp_path / "run")
    tiny = {k: v for k, v in _TINY_ARCH[arch].items() if k != "dataset"}
    raw = dict(schema_version=1, arch=arch, dataset=dataset, data_n=16, data_test_n=8,
               data_classes=2, epochs=1, batch_size=8, out_dir=out,
               **dict(tiny, **overrides))
    if dataset == "cifar10":
        raw["data_dir"] = str(tmp_path / "cifar")        # never read
    if (arch, dataset) not in _FEEDS:
        with pytest.raises(ConfigError, match=dataset):
            validate_config(raw)
        return
    validate_config(raw)
    if dataset == "cifar10":
        return
    assert main(["train", "--config", _write(tmp_path, raw)]) == 0


@pytest.mark.parametrize("arch,dataset,key,low", [
    ("lstm-classifier", "synth-seq-majority", "data_vocab", 5),
    ("lstm-classifier", "synth-seq-majority", "data_seq_len", 3),
    ("lstm-lm", "synth-seq-markov", "data_vocab", 4),
    ("lstm-lm", "synth-seq-markov", "data_seq_len", 1)])
def test_smallest_sequence_corpus_trains_and_one_below_is_refused(tmp_path, capsys, arch,
                                                                 dataset, key, low):
    out = tmp_path / "run"
    tiny = {k: v for k, v in _TINY_ARCH[arch].items() if k != "dataset"}
    raw = dict(schema_version=1, arch=arch, dataset=dataset, data_n=16, data_test_n=8,
               epochs=1, batch_size=8, out_dir=str(out), **dict(tiny, **{key: low}))
    assert main(["train", "--config", _write(tmp_path, raw)]) == 0
    capsys.readouterr()
    below = dict(raw, out_dir=str(tmp_path / "below"), **{key: low - 1})
    assert main(["train", "--config", _write(tmp_path, below, "below.json")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "below").exists()

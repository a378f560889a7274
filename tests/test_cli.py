import json
import os

import numpy as np
import pytest

from maskprune.checkpoint import save_checkpoint
from maskprune.cli import main
from maskprune.config import (ConfigError, build_model, validate_config)
from maskprune.gradcheck import run_checks


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


def test_missing_required_key():
    cfg = _toy_config("x")
    del cfg["arch"]
    with pytest.raises(ConfigError, match="arch"):
        validate_config(cfg)


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

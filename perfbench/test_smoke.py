"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench/test_smoke.py

Each workload runs shrunk to a few steps through the same orchestrator and
worker processes as a full run.  The test checks that it finishes in seconds,
that it reports every metric BENCHMARK.json names with its unit, and that a
run whose output check fails is reported as failed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Overrides that shrink each workload to two epochs of two steps.
TINY = {
    "mlp-weight": {"data_dim": 16, "mlp_hidden": [8, 8], "data_n": 32,
                   "data_test_n": 16, "batch_size": 16, "snapshot_every": 1},
    "lstm-lm-node": {"data_seq_len": 4, "lstm_hidden": 8, "data_n": 32,
                     "data_test_n": 16},
    "resnet20-filter": {"image_hw": 9, "stage_widths": [4, 8, 8],
                        "blocks_per_stage": 1, "data_n": 32, "data_test_n": 8},
}
TINY_SECONDS_LIMIT = 60.0


def tiny(name: str, **overrides) -> dict:
    spec = WORKLOADS[name]
    return dict(spec, warmup_steps=1,
                config=dict(spec["config"], **TINY[name], **overrides))


def declared(kind: str) -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_reports_every_metric(name, capsys):
    assert set(TINY) == set(WORKLOADS)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        t0 = time.monotonic()
        summary = run.measure(name, tiny(name), seed=3, seconds=0.0, trace=trace)
        assert time.monotonic() - t0 < TINY_SECONDS_LIMIT
        run.print_summary(name, summary)
        out = last_json_line(capsys)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True, summary["problems"]
        assert out["failed"] == 0 and out["attempted"] >= worker.MIN_REPS
        got = {m: v["unit"] for m, v in out["metrics"].items()}
        assert got == declared(kind)


def test_divergent_run_is_reported_failed(capsys):
    summary = run.measure("mlp-weight", tiny("mlp-weight", base_lr=1e300), seed=3,
                          seconds=0.0, trace=False)
    run.print_summary("mlp-weight", summary)
    out = last_json_line(capsys)
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert any("diverged" in p for p in summary["problems"])


def test_output_checks_flag_violations(tmp_path):
    worker.import_program()
    from maskprune.checkpoint import save_checkpoint

    model = SimpleNamespace(gates=lambda: [SimpleNamespace(dim=4)])
    good = SimpleNamespace(K=4, active_entities=3, pruned_params=1, total_params=10,
                           live_flops=5, total_flops=9)
    assert worker.check_report(good, model) == []
    for field, value in (("K", 5), ("active_entities", 5), ("pruned_params", 11),
                         ("live_flops", 10)):
        bad = SimpleNamespace(**dict(vars(good), **{field: value}))
        assert worker.check_report(bad, model), field

    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    save_checkpoint(str(tmp_path), arrays)
    assert worker.check_checkpoint(str(tmp_path), arrays) == []
    flipped = {"w": arrays["w"].copy()}
    flipped["w"][1, 2] = np.nextafter(flipped["w"][1, 2], 10.0)
    assert worker.check_checkpoint(str(tmp_path), flipped)

    assert worker.check_same([[1.0, 0.5]], [[1.0, 0.5]]) == []
    assert worker.check_same([[1.0, 0.5]], [[1.0, np.nextafter(0.5, 1.0)]])

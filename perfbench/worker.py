"""One workload process: set up, train repeatedly, time, check, report.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names a workload spec (see workloads.py), the seed, the measuring
window, whether to trace, and optionally the per-epoch reference metrics of an
earlier untraced process.  The worker drives `maskprune` through the same
public path as `maskprune train`: validate_config -> build_model /
build_datasets -> PruneManager(model) -> train(..., out_dir, manager).  Each
repetition ("rep") is one full train() call on a freshly built model with the
same seed; reps continue until the window is spent (at least two, so every
run checks determinism).

Untraced, only the calls train() makes at top level are wrapped: train_step,
evaluate, save_checkpoint and manager.snapshot (~1 us each against steps of
>= 3 ms).  Traced, tracer.Tracer rebinds the ops inside as well.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Extra timed set-ups before the first rep: at least SETUP_MIN, then more
# until SETUP_BUDGET_S is spent or SETUP_MAX are done, so that a set-up of a
# few ms still has a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 30, 1.0
MIN_REPS = 2


def import_program():
    """Import `maskprune` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "maskprune" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {src / 'maskprune'} is missing")
    sys.path.insert(0, str(src))
    import maskprune
    if Path(maskprune.__file__).resolve().parent != (src / "maskprune").resolve():
        raise SystemExit(f"imported maskprune from {maskprune.__file__}, not {src}")


class Probe:
    """Wall-clock timers around the top-level calls train() makes."""

    def __init__(self, training, tracer=None):
        self.training = training
        self.tracer = tracer
        self.steps: list[list[float]] = []      # per rep: train_step seconds
        self.evals: list[tuple[float, int]] = []   # (seconds, samples)
        self.saves: list[float] = []
        self.snaps: list[float] = []
        self.nonfinite_steps = 0
        self.last_report = None

    def install(self):
        tr = self.training
        step, evaluate, save = tr.train_step, tr.evaluate, tr.save_checkpoint
        probe = self

        def train_step(*args, **kwargs):
            if probe.tracer is not None:
                probe.tracer.begin_step()
            t0 = time.perf_counter()
            parts = step(*args, **kwargs)
            dt = time.perf_counter() - t0
            if probe.tracer is not None:
                probe.tracer.end_step(dt)
            probe.steps[-1].append(dt)
            if not all(math.isfinite(v) for v in parts.values()):
                probe.nonfinite_steps += 1
            return parts

        def timed_evaluate(model, ds, *args, **kwargs):
            t0 = time.perf_counter()
            out = evaluate(model, ds, *args, **kwargs)
            probe.evals.append((time.perf_counter() - t0, len(ds)))
            return out

        def timed_save(*args, **kwargs):
            t0 = time.perf_counter()
            save(*args, **kwargs)
            probe.saves.append(time.perf_counter() - t0)

        tr.train_step, tr.evaluate, tr.save_checkpoint = train_step, timed_evaluate, timed_save

    def wrap_snapshot(self, manager):
        snapshot = manager.snapshot
        probe = self

        def timed_snapshot(*args, **kwargs):
            t0 = time.perf_counter()
            report = snapshot(*args, **kwargs)
            probe.snaps.append(time.perf_counter() - t0)
            probe.last_report = report
            return report

        manager.snapshot = timed_snapshot


def setup(raw: dict):
    """The user-visible set-up: config, model, datasets, PruneManager."""
    from maskprune.config import build_datasets, build_model, validate_config
    from maskprune.pruning import PruneManager
    t0 = time.perf_counter()
    cfg = validate_config(raw)
    model = build_model(cfg)
    train_ds, test_ds = build_datasets(cfg)
    t1 = time.perf_counter()
    manager = PruneManager(model)
    t2 = time.perf_counter()
    return cfg, model, train_ds, test_ds, manager, t2 - t0, t2 - t1


# -- output checks: each returns a list of violations (empty when fine) -----

def check_report(report, model) -> list[str]:
    """The final PruneReport must be self-consistent with the model."""
    bad = []
    if report is None:
        return ["no prune report was produced"]
    K = sum(g.dim for g in model.gates())
    if report.K != K:
        bad.append(f"report K {report.K} != sum of gate dims {K}")
    if not 0 <= report.active_entities <= report.K:
        bad.append(f"active_entities {report.active_entities} outside [0, K={report.K}]")
    if not 0 <= report.pruned_params <= report.total_params:
        bad.append(f"pruned_params {report.pruned_params} > total {report.total_params}")
    if not 0 <= report.live_flops <= report.total_flops:
        bad.append(f"live_flops {report.live_flops} > total {report.total_flops}")
    return bad


def check_checkpoint(path: str, arrays: dict) -> list[str]:
    """The checkpoint train() wrote must reload bit-identical to the model."""
    from maskprune.checkpoint import load_checkpoint
    loaded, _ = load_checkpoint(path)
    if set(loaded) != set(arrays):
        return [f"checkpoint names differ: {sorted(set(loaded) ^ set(arrays))}"]
    return [f"checkpoint tensor {n} differs from the model" for n in sorted(arrays)
            if loaded[n].shape != arrays[n].shape
            or loaded[n].tobytes() != arrays[n].astype("<f8").tobytes()]


def epoch_trace(metrics: list[dict]) -> list[list[float]]:
    return [[m["task_loss"], m["pruned_ratio"]] for m in metrics]


def check_same(trace: list, reference: list | None) -> list[str]:
    """Two runs with one seed must agree bit for bit, epoch by epoch."""
    if reference is None or trace == reference:
        return []
    return [f"per-epoch (task_loss, pruned_ratio) {trace} != reference {reference}"]


# -- the run ----------------------------------------------------------------

def run(job: dict) -> dict:
    import_program()
    from maskprune import training
    from maskprune.config import train_config_from

    spec, seed = job["workload"], job["seed"]
    raw = dict(spec["config"], schema_version=1, seed=seed, data_seed=seed)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = Probe(training, tracer)
    probe.install()

    setup_s, init_s = [], []
    while len(setup_s) < SETUP_MIN or (len(setup_s) < SETUP_MAX
                                       and sum(setup_s) < SETUP_BUDGET_S):
        *_, s, i = setup(raw)
        setup_s.append(s)
        init_s.append(i)

    out_root = ROOT / "perfbench" / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    reference = job.get("reference")
    reps = []
    t_start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t_start < job["seconds"]:
        cfg, model, train_ds, test_ds, manager, s, i = setup(raw)
        setup_s.append(s)
        init_s.append(i)
        probe.wrap_snapshot(manager)
        probe.last_report = None
        probe.steps.append([])
        nonfinite0 = probe.nonfinite_steps
        out_dir = tempfile.mkdtemp(prefix="train-", dir=out_root)
        rep = {"violations": []}
        try:
            t0 = time.perf_counter()
            metrics = training.train(model, train_ds, test_ds, train_config_from(cfg),
                                     out_dir=out_dir, manager=manager)
            rep["train_s"] = time.perf_counter() - t0
            rep["samples"] = len(probe.steps[-1]) * cfg["batch_size"]
            rep["epochs"] = epoch_trace(metrics)
            rep["final_task_loss"] = metrics[-1]["task_loss"]
            report = probe.last_report
            rep["pruned_flops_fraction"] = report.pruned_flops_fraction if report else None
            rep["report"] = report and {
                "K": report.K, "active_entities": report.active_entities,
                "total_flops": report.total_flops, "live_flops": report.live_flops,
                "events": len(report.events)}
            if probe.nonfinite_steps > nonfinite0:
                rep["violations"].append(
                    f"{probe.nonfinite_steps - nonfinite0} steps had a non-finite loss")
            rep["violations"] += check_report(report, model)
            ckpt = os.path.join(out_dir, "checkpoint")
            rep["violations"] += check_checkpoint(ckpt, model.persistent_arrays())
            rep["checkpoint_bytes"] = os.path.getsize(os.path.join(ckpt, "tensors.bin"))
            if reference is None:
                reference = rep["epochs"]
            rep["violations"] += check_same(rep["epochs"], reference)
            rep["groups"] = layer_macs(manager, report)
        except training.TrainDivergence as exc:
            rep["violations"].append(f"training diverged: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        reps.append(rep)
        if rep["violations"] and "train_s" not in rep:
            break               # a diverging config diverges again; stop here

    result = {
        "workload": job["name"], "seed": seed, "trace": bool(tracer),
        "warmup_steps": spec["warmup_steps"],
        "setup_s": setup_s, "init_s": init_s, "reps": reps,
        "steps": probe.steps, "evals": probe.evals, "saves": probe.saves,
        "snaps": probe.snaps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["tracer"] = tracer.summary()
    return result


def layer_macs(manager, report) -> dict[str, dict[str, int]]:
    """Dense and live MACs per reporting group, from the PruneManager records.

    Record MACs are per application on one sample (per timestep for LSTM
    nodes, as _LstmBase.flops documents).
    """
    groups: dict[str, dict[str, int]] = {}
    for rec in manager.records:
        g = groups.setdefault(rec.group or rec.entity_id, {"dense_macs": 0, "live_macs": 0})
        g["dense_macs"] += rec.macs
        if report is not None and report.active[rec.entity_id]:
            g["live_macs"] += rec.macs
    return groups


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

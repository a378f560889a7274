"""Benchmark entry point for `maskprune` training.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in a fresh worker process (perfbench/worker.py), which
trains repeatedly for S seconds and checks its outputs.

--trace 0 reports the end-to-end metrics of one untraced process.
--trace 1 runs an untraced process and then a traced one, S/2 seconds each,
and reports the per-layer metrics of the traced one plus the tracing overhead.  It also writes
perfbench/out/trace-NAME-seedN.json with the inclusive time of each named layer
instance next to its dense and live MACs.

Human-readable lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
An operation is one train() call with its checks; a violated check fails it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0        # the whole run, all workers included

from tracer import BLOCKS, GATE_OPS, LAYER_OPS, OBJECTIVE_OPS, TENSOR_OPS
from workloads import WORKLOADS


class WorkerFailed(RuntimeError):
    pass


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with >= p% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def run_worker(job: dict, deadline: float) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    fd, job_path = tempfile.mkstemp(prefix="job-", suffix=".json", dir=OUT)
    result_path = job_path.replace("job-", "result-")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(job, fh)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), job_path, result_path],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker for {job['name']} ran past the deadline") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"worker for {job['name']} exited {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        for path in (job_path, result_path):
            if os.path.exists(path):
                os.remove(path)


def timed_steps(result: dict) -> list[float]:
    """Step times after each rep's warm-up prefix."""
    skip = result["warmup_steps"]
    return [s for rep in result["steps"] for s in rep[skip:]]


def end_to_end(r: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) from an untraced worker result."""
    reps = [rep for rep in r["reps"] if "train_s" in rep]
    steps = timed_steps(r)
    out = {"setup_s": (statistics.median(r["setup_s"]), "s", len(r["setup_s"]))}
    if reps:
        out["train_samples_per_s"] = (
            statistics.median(rep["samples"] / rep["train_s"] for rep in reps),
            "samples/s", len(reps))
    if steps:
        out["step_ms_p50"] = (1e3 * statistics.median(steps), "ms", len(steps))
        out["step_ms_p90"] = (1e3 * percentile(steps, 90), "ms", len(steps))
    if r["evals"]:
        out["eval_samples_per_s"] = (
            statistics.median(n / s for s, n in r["evals"]), "samples/s", len(r["evals"]))
    out["peak_rss_mb"] = (r["peak_rss_mb"], "MB", 1)
    if reps:
        out["final_task_loss"] = (reps[0]["final_task_loss"], "nats", 1)
        if reps[0]["pruned_flops_fraction"] is not None:
            out["pruned_flops_fraction"] = (reps[0]["pruned_flops_fraction"], "ratio", 1)
    return out


def per_layer(t: dict, untraced_p50_ms: float) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, steps) from a traced worker result; per training step."""
    tr = t["tracer"]
    n = max(tr["steps"], 1)
    ms = 1e3 / n
    fwd, bwd, calls = tr["fwd"], tr["bwd"], tr["calls"]
    out: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit):
        out[name] = (value, unit, tr["steps"])

    put("tensor.nodes_per_step", tr["nodes"] / n, "count")
    put("tensor.graph_ms", (tr["backward_s"] - tr["rule_s"]) * ms, "ms")
    for prefix, names in (("tensor", TENSOR_OPS), ("layers", LAYER_OPS),
                          ("gate", GATE_OPS)):
        for name in names:
            key = f"{prefix}.{name}"
            put(f"{key}.fwd_ms", fwd.get(key, 0.0) * ms, "ms")
            put(f"{key}.bwd_ms", bwd.get(key, 0.0) * ms, "ms")
            put(f"{key}.calls", calls.get(key, 0) / n, "count")
    conv_s = fwd.get("layers.conv2d", 0.0) + bwd.get("layers.conv2d", 0.0)
    put("layers.conv2d.gflops_per_s", tr["conv_flops"] / conv_s / 1e9 if conv_s else 0.0,
        "GFLOP/s")
    for cls_name, meth in BLOCKS:
        put(f"layers.{cls_name}.{meth}_ms", fwd.get(f"layers.{cls_name}.{meth}", 0.0) * ms,
            "ms")
    put("objective.total_objective_ms", fwd.get("objective.total_objective", 0.0) * ms, "ms")
    for name in OBJECTIVE_OPS:
        key = f"objective.{name}"
        put(f"{key}.fwd_ms", fwd.get(key, 0.0) * ms, "ms")
        put(f"{key}.bwd_ms", bwd.get(key, 0.0) * ms, "ms")
    put("models.forward_ms", tr["forward_s"] * ms, "ms")
    put("models.eval_forward_ms", tr["eval_forward_s"] * ms, "ms")
    put("training.step_ms", tr["step_s"] * ms, "ms")
    put("training.forward_ms", (tr["step_s"] - tr["backward_s"] - tr["optimizer_s"]) * ms,
        "ms")
    put("training.backward_ms", tr["backward_s"] * ms, "ms")
    put("training.optimizer_ms", tr["optimizer_s"] * ms, "ms")
    put("training.evaluate_ms", sum(s for s, _ in t["evals"]) * ms, "ms")
    put("data.augment_ms", tr["augment_s"] * ms, "ms")
    rep = t["reps"][0]
    put("pruning.init_s", statistics.median(t["init_s"]), "s")
    put("pruning.snapshot_ms", sum(t["snaps"]) * ms, "ms")
    report = rep.get("report") or {}
    put("pruning.K", report.get("K", 0), "count")
    put("pruning.dense_flops", report.get("total_flops", 0), "FLOP")
    put("pruning.live_flops", report.get("live_flops", 0), "FLOP")
    put("pruning.events", report.get("events", 0), "count")
    put("checkpoint.save_ms", sum(t["saves"]) * ms, "ms")
    put("checkpoint.bytes", rep.get("checkpoint_bytes", 0), "B")
    steps = timed_steps(t)
    put("trace.overhead_ratio",
        1e3 * statistics.median(steps) / untraced_p50_ms if steps else 0.0, "ratio")
    return out


def trace_report(workload: dict, t: dict) -> dict:
    """Named layer instances: inclusive time next to dense/live MACs."""
    cfg = workload["config"]
    # MACs in the records are per sample; LSTM records are per timestep too
    per_step = cfg["batch_size"] * (cfg["data_seq_len"] if cfg["arch"].startswith("lstm")
                                    else 1)
    instances = t["tracer"]["instances"]
    groups = t["reps"][0].get("groups", {})
    layers = {}
    for group, macs in groups.items():
        owner = max((n for n in instances if group == n or group.startswith(n + ".")),
                    key=len, default=None)
        layers[group] = dict(macs, applications_per_step=per_step,
                             dense_macs_per_step=macs["dense_macs"] * per_step,
                             live_macs_per_step=macs["live_macs"] * per_step,
                             instance=owner,
                             instance_ms=(None if owner is None else
                                          instances[owner]["fwd_ms"]
                                          + instances[owner]["bwd_ms"]))
    return {"workload": t["workload"], "seed": t["seed"], "steps": t["tracer"]["steps"],
            "macs_note": "record MACs are per sample per application "
                         "(per timestep for LSTM nodes); *_per_step scales by "
                         "applications_per_step",
            "instances_ms_per_step": instances, "layers": layers,
            "ops_s_total": {"fwd": t["tracer"]["fwd"], "bwd": t["tracer"]["bwd"],
                            "calls": t["tracer"]["calls"]}}


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(len(r["reps"]) for r in results)
    problems = [f"{r['workload']} rep {i}{' (traced)' if r['trace'] else ''}: {v}"
                for r in results for i, rep in enumerate(r["reps"])
                for v in rep["violations"]]
    failed = sum(1 for r in results for rep in r["reps"] if rep["violations"])
    return attempted, failed, problems


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker(s) for one invocation; returns the final summary."""
    deadline = time.monotonic() + DEADLINE_S
    job = {"name": name, "workload": workload, "seed": seed,
           "seconds": seconds / 2 if trace else seconds, "trace": False}
    untraced = run_worker(job, deadline)
    results = [untraced]
    e2e = end_to_end(untraced)
    if trace:
        reps = untraced["reps"]
        job = dict(job, trace=True,
                   reference=reps[0].get("epochs") if reps else None)
        traced = run_worker(job, deadline)
        results.append(traced)
        metrics = per_layer(traced, e2e.get("step_ms_p50", (float("nan"),))[0])
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
            json.dump(trace_report(workload, traced), fh, indent=1, sort_keys=True)
    else:
        metrics = e2e
    attempted, failed, problems = tally(results)
    finite = all(math.isfinite(v) for v, _, _ in metrics.values())
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "correct": failed == 0 and finite and attempted > 0}


def print_summary(name: str, summary: dict) -> None:
    print(f"workload {name}: {summary['attempted']} train() runs, "
          f"{summary['failed']} failed")
    for metric, (value, unit, n) in summary["metrics"].items():
        print(f"  {metric:<34s} {value:>14.6g} {unit:<10s} n={n}")
    for p in summary["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u, _) in summary["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maskprune" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = measure(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

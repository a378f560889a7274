"""Command line entry point: ``maskprune train`` runs a JSON run config and
``maskprune report`` prints the prune report of a checkpoint."""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import _is_count, load_checkpoint
from .config import (build_datasets, build_model, load_config, train_config_from,
                     validate_config)
from .pruning import _DIRECTION, PruneManager
from .training import TrainDivergence, train


def cmd_train(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = validate_config(dict(cfg, seed=args.seed))
        model = build_model(cfg)
        train_ds, test_ds = build_datasets(cfg)
        out_dir = cfg["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:       # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        train(model, train_ds, test_ds, train_config_from(cfg), out_dir=out_dir,
              checkpoint_meta={"run_config": cfg})
    except TrainDivergence as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    saved, meta = load_checkpoint_model(os.path.join(out_dir, "checkpoint"))
    if saved.gates():
        with open(os.path.join(out_dir, "prune_report.txt"), "w") as fh:
            fh.write(prune_report_text(saved, meta))
    print(f"done: metrics and checkpoint under {out_dir}")
    return 0


def load_checkpoint_model(checkpoint: str):
    """Rebuild the model a checkpoint was saved from; returns it and the meta."""
    arrays, manifest = load_checkpoint(checkpoint)
    meta = manifest["meta"]
    if not isinstance(meta, dict):
        raise ValueError("checkpoint meta is not a JSON object")
    if not _is_count(meta.get("step", 0)):
        raise ValueError(f"checkpoint meta step {meta['step']!r} is not a non-negative int")
    events = meta.get("events", [])
    if not (isinstance(events, list) and all(
            isinstance(e, list) and len(e) == 3 and _is_count(e[0])
            and isinstance(e[1], str) and e[2] in _DIRECTION.values() for e in events)):
        raise ValueError("checkpoint meta events are not a list of [step, entity, "
                         f"{' | '.join(map(repr, _DIRECTION.values()))}]")
    if meta.get("run_config") is None:
        raise ValueError("checkpoint carries no run_config; cannot rebuild model")
    model = build_model(validate_config(meta["run_config"]))
    model.load_params(arrays)
    _check_event_log(model, meta.get("step", 0), events)
    return model, meta


def _check_event_log(model, step: int, events: list) -> None:
    """Raise ValueError unless ``events``, replayed from every entity live,
    flips a declared entity at each event, none after ``step``, and ends on
    the model's masks."""
    live = PruneManager(model).snapshot(step).active
    replayed = dict.fromkeys(live, True)
    for event in events:
        at, eid, direction = event
        if at > step:
            raise ValueError(f"checkpoint event {event} comes after the checkpoint's "
                             f"step {step}")
        if eid not in replayed:
            raise ValueError(f"checkpoint event {event} names an entity the model "
                             "does not declare")
        if replayed[eid] == (direction == "0->1"):
            raise ValueError(f"checkpoint event {event} does not flip its entity")
        replayed[eid] = not replayed[eid]
    off = [eid for eid, m in live.items() if replayed[eid] != m]
    if off:
        raise ValueError(f"checkpoint events leave {len(off)} entities off their loaded "
                         f"masks, the first {off[0]!r}")


def prune_report_text(model, meta: dict) -> str:
    """Prune report of a gated model at the checkpoint's step and event log."""
    report = PruneManager(model).snapshot(step=meta.get("step", 0))
    report.events = meta.get("events", [])
    return report.to_text()


def cmd_report(args) -> int:
    try:
        model, meta = load_checkpoint_model(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error reading checkpoint: {exc}", file=sys.stderr)
        return 2
    if not model.gates():
        print("model has no gates; nothing to report")
        return 0
    print(prune_report_text(model, meta), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskprune",
        description="train networks while pruning them through threshold gates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training configuration")
    p_train.add_argument("--config", required=True, help="path to a JSON run config")
    p_train.add_argument("--seed", type=int, default=None, help="override run seed")
    p_train.set_defaults(func=cmd_train)

    p_rep = sub.add_parser("report", help="print the prune report of a checkpoint")
    p_rep.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

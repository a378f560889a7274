"""SGD-with-momentum training loop with step-decay schedule and metrics.

One epoch = deterministic shuffled full batches under the run seed.  All
regularization flows through the objective; the optimizer applies the same
update to weights and scaling factors (optionally freezing the latter).
A non-finite loss aborts immediately, naming the first bad node; a non-finite
gradient aborts before the update, naming the first parameter (in ``params()``
order) whose gradient is non-finite.  ``train`` runs its epoch loop under
``np.errstate`` that raises on overflow, division by zero and invalid
values, so a run that diverges anywhere in it (a step, a snapshot, the
epoch-end evaluation), even where the value never reaches the loss, such as
-inf before a ReLU, ends in ``TrainDivergence`` naming the step and numpy's
message, never in a numpy ``RuntimeWarning``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import save_checkpoint
from .data import Dataset, augment
from .gate import evaluation
from .objective import ObjectiveConfig, cross_entropy, total_objective
from .pruning import PruneManager
from .tensor import Tape, first_nonfinite

METRICS_SCHEMA_VERSION = 1


class TrainDivergence(RuntimeError):
    """Raised when the loss, a parameter gradient or a numpy operation in the
    epoch loop goes non-finite."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    base_lr: float = 0.1
    momentum: float = 0.9
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 0.1
    seed: int = 0
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    snapshot_every: int = 100
    freeze_gates: bool = False
    augment: bool = False

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError(f"decay_factor must lie in (0,1), got {self.decay_factor}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ValueError(f"decay_epochs must be strictly increasing: "
                             f"{self.decay_epochs}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.snapshot_every <= 0:
            raise ValueError("epochs, batch_size and snapshot_every must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Base rate decayed once per passed decay epoch."""
    hits = sum(1 for d in cfg.decay_epochs if epoch >= d)
    return cfg.base_lr * cfg.decay_factor ** hits


def sgd_momentum_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      velocity: dict[str, np.ndarray], lr: float,
                      momentum: float) -> None:
    """Classical momentum: v <- m*v + g; p <- p - lr*v.  Updates in place."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != {p.shape}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
        v = momentum * v + g
        velocity[name] = v
        p -= lr * v


def train_step(model, xb, yb, cfg: TrainConfig, velocity: dict, lr: float,
               step: int) -> dict[str, float]:
    """One forward/backward/update on a single batch; returns the loss parts."""
    tape = Tape()
    logits = model.forward(tape, xb, mode="train")
    task = cross_entropy(logits, model.flatten_labels(yb))
    nodes = tape.params
    groups = [(evaluation(d.gate, nodes[f"{d.gate.name}.alpha"]),
               [(nodes[n], mode) for n, mode in d.decayed]) for d in model.gate_decls()]
    total, parts = total_objective(task, groups, cfg.objective)
    if not np.all(np.isfinite(total.data)):
        bad = first_nonfinite(total)
        raise TrainDivergence(
            f"non-finite loss at step {step}: first non-finite tensor is "
            f"op={bad.op!r} (node #{bad.seq}, shape {bad.shape})")
    grads = tape.backward(total)
    trainable = {n: p for n, p in model.params().items()
                 if not (cfg.freeze_gates and n.endswith(".alpha"))}
    for name in trainable:
        if not np.all(np.isfinite(grads[name])):
            raise TrainDivergence(
                f"non-finite gradient at step {step}: first non-finite parameter "
                f"gradient is {name!r}")
    sgd_momentum_step(trainable, grads, velocity, lr, cfg.momentum)
    return parts


EVAL_BATCH = 256


def evaluate(model, ds: Dataset) -> dict[str, float]:
    """Classification error rate, or perplexity for next-token models.

    Eval takes no gradient, so it holds the activations of one batch of
    ``EVAL_BATCH`` samples, which need not be the training batch.  It is 256
    because larger batches run fewer, larger GEMMs: on the ``mlp-weight``
    benchmark config, evaluating the 512 test samples took 1.18 ms at 256 and
    2.13 ms at 64 (two Xeon cores).  A large batch costs a conv net no column
    matrix beyond ``layers.LOWER_BAND_BYTES``, since ``conv2d`` lowers in bands.
    """
    if len(ds) == 0:
        raise ValueError("evaluate: empty dataset")
    lm = model.task == "lm"
    score, count = 0, 0    # token nll summed (lm) or wrong predictions; labels seen
    for lo in range(0, len(ds), EVAL_BATCH):
        logits = model.forward(Tape(), ds.inputs[lo:lo + EVAL_BATCH], mode="eval")
        yb = ds.labels[lo:lo + EVAL_BATCH]
        if lm:
            yb = model.flatten_labels(yb)
            score += cross_entropy(logits, yb).item() * len(yb)
        else:
            score += int((logits.data.argmax(axis=1) != yb).sum())
        count += len(yb)
    if lm:
        return {"test_perplexity": float(np.exp(score / count))}
    return {"test_error": score / count}


def train(model, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
          out_dir: str | None = None, manager: PruneManager | None = None,
          checkpoint_meta: dict | None = None) -> list[dict]:
    """Run the full loop; returns (and optionally writes) per-epoch metrics."""
    if len(train_ds) < cfg.batch_size:
        raise ValueError(f"train: {len(train_ds)} training samples hold no batch of "
                         f"{cfg.batch_size}")
    rng = np.random.default_rng(cfg.seed)
    velocity: dict[str, np.ndarray] = {}
    if manager is None:
        manager = PruneManager(model)
    metrics: list[dict] = []
    metrics_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_fh = open(os.path.join(out_dir, "metrics.jsonl"), "w")

    n = len(train_ds)
    step = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for epoch in range(cfg.epochs):
                lr = lr_at(epoch, cfg)
                order = rng.permutation(n)
                sums = {"task_loss": 0.0, "l1_term": 0.0, "l2_term": 0.0,
                        "hinge_term": 0.0}
                batches = 0
                for lo in range(0, n - cfg.batch_size + 1, cfg.batch_size):
                    idx = order[lo:lo + cfg.batch_size]
                    xb = train_ds.inputs[idx]
                    yb = train_ds.labels[idx]
                    if cfg.augment:
                        xb = augment(xb, seed=int(rng.integers(2 ** 63)))
                    parts = train_step(model, xb, yb, cfg, velocity, lr, step)
                    for k in sums:
                        sums[k] += parts[k]
                    batches += 1
                    step += 1
                    if step % cfg.snapshot_every == 0:
                        manager.snapshot(step)
                report = manager.snapshot(step)
                record = {
                    "schema_version": METRICS_SCHEMA_VERSION,
                    "epoch": epoch,
                    "lr": lr,
                    **{k: v / max(batches, 1) for k, v in sums.items()},
                    "active_counts": {g: list(v) for g, v in report.per_group.items()},
                    "pruned_ratio": report.pruned_ratio,
                }
                record.update(evaluate(model, test_ds))
                metrics.append(record)
                if metrics_fh is not None:
                    metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    metrics_fh.flush()
                if out_dir is not None:
                    meta = dict(checkpoint_meta or {})
                    meta.update({"epoch": epoch, "step": step,
                                 "events": [list(e) for e in manager.events]})
                    save_checkpoint(os.path.join(out_dir, "checkpoint"),
                                    model.persistent_arrays(), meta)
    except FloatingPointError as exc:
        raise TrainDivergence(f"non-finite value at step {step}: {exc}") from exc
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return metrics

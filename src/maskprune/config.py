"""Run configuration: a flat, schema-versioned JSON document.

Every key is validated before any model is built; unknown keys are rejected
outright (regularizer coefficients span four orders of magnitude, so a typo
must not fall back to a default silently).

Two tables describe the run grid.  An ``ARCH_TABLE`` entry gives the model
class (its ``GRANULARITIES`` are the arch's gated granularities), the input
kind it reads and its constructor arguments; a ``DATASET_TABLE`` entry gives
the input kind it yields, how one split of ``n`` samples is built (``cifar10``
loads from ``data_dir``) and, for images, their shape and class count.  A
dataset feeds an arch when the kinds match.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Any, Callable, NamedTuple

from . import data as data_mod
from . import models
from .gate import DEFAULT_ALPHA_INIT, DEFAULT_BETA
from .objective import ObjectiveConfig
from .training import TrainConfig

CONFIG_SCHEMA_VERSION = 1


class DatasetSpec(NamedTuple):
    yields: str                        # input kind
    split: Callable | None             # (cfg, n, split name) -> Dataset; None: data_dir
    image: Callable | None = None      # cfg -> (in_channels, input_hw, classes)


class ArchSpec(NamedTuple):
    model: type                        # a models.Model subclass
    reads: str                         # input kind
    args: Callable                     # (cfg, DatasetSpec) -> constructor positionals


def _synth_split(cfg, n, name, image=False):
    shape = (cfg["image_channels"], cfg["image_hw"], cfg["image_hw"]) if image else None
    return data_mod.synth_classification(n, cfg["data_classes"], cfg["data_dim"],
                                         cfg["data_seed"], cfg["data_margin"],
                                         image_shape=shape, split=name)


def _seq_split(kind: str):
    # the test split draws from the next seed
    return lambda cfg, n, name: data_mod.synth_sequences(
        n, cfg["data_vocab"], cfg["data_seq_len"],
        cfg["data_seed"] + (1 if name == "test" else 0), kind)


DATASET_TABLE = {
    "synth-class": DatasetSpec("features", _synth_split),
    "synth-images": DatasetSpec("images", partial(_synth_split, image=True), lambda c: (
        c["image_channels"], (c["image_hw"],) * 2, c["data_classes"])),
    "synth-seq-majority": DatasetSpec("token->label", _seq_split("majority")),
    "synth-seq-markov": DatasetSpec("token->next-token", _seq_split("markov")),
    "cifar10": DatasetSpec("images", None, lambda c: (3, (32, 32), 10)),
}


ARCH_TABLE = {
    "mlp": ArchSpec(models.Mlp, "features", lambda c, ds: (
        c["data_dim"], tuple(c["mlp_hidden"]), c["data_classes"])),
    "toy-convnet": ArchSpec(models.ToyConvNet, "images", lambda c, ds: (
        tuple(c["conv_channels"]), *ds.image(c))),
    "resnet-small": ArchSpec(models.ResNetSmall, "images", lambda c, ds: (
        tuple(c["stage_widths"]), c["blocks_per_stage"], *ds.image(c))),
    "lstm-classifier": ArchSpec(models.LstmClassifier, "token->label", lambda c, ds: (
        c["data_vocab"], c["embed_dim"], c["lstm_hidden"], 2, c["lstm_stacks"])),
    "lstm-lm": ArchSpec(models.LstmLm, "token->next-token", lambda c, ds: (
        c["data_vocab"], c["embed_dim"], c["lstm_hidden"], c["lstm_stacks"])),
}

ARCHS = tuple(ARCH_TABLE)
DATASETS = tuple(DATASET_TABLE)
GRANULARITY_FOR_ARCH = {a: ("none",) + spec.model.GRANULARITIES
                        for a, spec in ARCH_TABLE.items()}


class ConfigError(ValueError):
    pass


def _nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _positive_int(v):
    return _nonneg_int(v) and v > 0


def _number(v):
    if isinstance(v, float):             # json.load also parses NaN and Infinity
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _widths(v):
    return isinstance(v, list) and all(_positive_int(e) for e in v)


_REQUIRED = object()

# key -> (validator, default, description)
_SCHEMA: dict[str, tuple] = {
    "schema_version": (lambda v: _positive_int(v) and v == CONFIG_SCHEMA_VERSION,
                       _REQUIRED, "must equal 1"),
    "arch": (lambda v: v in ARCHS, _REQUIRED, f"one of {ARCHS}"),
    "granularity": (lambda v: isinstance(v, str), "none", "pruning granularity"),
    "dataset": (lambda v: v in DATASETS, _REQUIRED, f"one of {DATASETS}"),
    "data_n": (_positive_int, 2048, "training samples"),
    "data_test_n": (_positive_int, 512, "test samples"),
    "data_classes": (lambda v: _positive_int(v) and v >= 2, 10, "class count"),
    "data_dim": (_positive_int, 32, "feature dimension (mlp datasets)"),
    "data_margin": (lambda v: _number(v) and v > 0, 6.0, "class separation"),
    "data_vocab": (lambda v: _positive_int(v) and v >= 4, 16, "token vocabulary"),
    "data_seq_len": (_positive_int, 16, "sequence length"),
    "data_seed": (_nonneg_int, 0, "dataset seed, a non-negative integer"),
    "data_dir": (lambda v: isinstance(v, str), "", "cifar10 directory"),
    "image_hw": (_positive_int, 12, "synthetic image side"),
    "image_channels": (_positive_int, 3, "synthetic image channels"),
    "epochs": (_positive_int, 10, "training epochs"),
    "batch_size": (_positive_int, 32, "batch size"),
    "base_lr": (lambda v: _number(v) and v > 0, 0.1, "starting learning rate"),
    "momentum": (lambda v: _number(v) and 0 <= v < 1, 0.9, "momentum"),
    "decay_epochs": (lambda v: isinstance(v, list) and all(_nonneg_int(e) for e in v),
                     [], "epochs at which lr decays, non-negative integers"),
    "decay_factor": (lambda v: _number(v) and 0 < v < 1, 0.1, "lr decay factor"),
    "seed": (_nonneg_int, 0, "run seed, a non-negative integer"),
    "snapshot_every": (_positive_int, 100, "steps between prune snapshots"),
    "freeze_gates": (lambda v: isinstance(v, bool), False, "exclude alphas from updates"),
    "augment": (lambda v: isinstance(v, bool), False, "pad/crop/flip augmentation"),
    "lambda1": (lambda v: _number(v) and v >= 0, 0.0, "l1 on scaling factors"),
    "lambda2": (lambda v: _number(v) and v >= 0, 0.0, "masked l2 on weights"),
    "lambda3": (lambda v: _number(v) and v >= 0, 0.0, "ratio hinge"),
    "target_c": (lambda v: _number(v) and 0 < v <= 1, 1.0, "target remaining fraction"),
    "gate_t": (lambda v: v is None or (_number(v) and 0 < v < 1), None,
               "mask threshold (null = per-granularity default)"),
    "gate_beta": (lambda v: _number(v) and v > 0, DEFAULT_BETA, "surrogate sharpness"),
    "alpha_init": (_number, DEFAULT_ALPHA_INIT, "initial scaling factor"),
    "mlp_hidden": (_widths, [32], "mlp hidden widths"),
    "conv_channels": (_widths, [8, 12, 16], "toy-convnet filter counts"),
    "stage_widths": (lambda v: _widths(v) and len(v) > 0, [16, 32, 64],
                     "resnet stage widths, at least one"),
    "blocks_per_stage": (_positive_int, 9, "resnet blocks per stage"),
    "lstm_hidden": (_positive_int, 32, "lstm hidden dimension"),
    "lstm_stacks": (lambda v: _positive_int(v) and v in (1, 2), 1, "stacked lstm cells"),
    "embed_dim": (_positive_int, 16, "token embedding dimension"),
    "out_dir": (lambda v: isinstance(v, str), "run_out", "output directory"),
}


def validate_config(raw: Any) -> dict[str, Any]:
    """Fill defaults, reject unknown keys and invalid values."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; "
                          f"valid keys: {sorted(_SCHEMA)}")
    cfg: dict[str, Any] = {}
    for key, (check, default, desc) in _SCHEMA.items():
        if key in raw:
            value = raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r} ({desc})")
        else:
            value = default
        if not check(value):
            raise ConfigError(f"config key {key!r}: invalid value {value!r} ({desc})")
        cfg[key] = value
    if list(cfg["decay_epochs"]) != sorted(set(cfg["decay_epochs"])):
        raise ConfigError("decay_epochs must be strictly increasing")
    arch, ds = ARCH_TABLE[cfg["arch"]], DATASET_TABLE[cfg["dataset"]]
    gran = cfg["granularity"]
    if gran not in GRANULARITY_FOR_ARCH[cfg["arch"]]:
        raise ConfigError(
            f"granularity {gran!r} is incompatible with arch {cfg['arch']!r}; "
            f"allowed: {GRANULARITY_FOR_ARCH[cfg['arch']]}")
    if ds.yields != arch.reads:
        feeding = [d for d, spec in DATASET_TABLE.items() if spec.yields == arch.reads]
        raise ConfigError(f"dataset {cfg['dataset']!r} yields {ds.yields}; arch "
                          f"{cfg['arch']!r} reads {arch.reads}, fed by {feeding}")
    if cfg["augment"] and arch.reads != "images":
        raise ConfigError(f"config key 'augment': pad/crop/flip augmentation needs "
                          f"image input; arch {cfg['arch']!r} reads {arch.reads}")
    kind = cfg["dataset"].removeprefix("synth-seq-")
    for key, low in zip(("data_vocab", "data_seq_len"), data_mod.SEQ_MINIMUM.get(kind, ())):
        if cfg[key] < low:
            raise ConfigError(f"config key {key!r}: dataset {cfg['dataset']!r} needs at "
                              f"least {low}, got {cfg[key]}")
    if ds.split is None and not cfg["data_dir"]:
        raise ConfigError(f"dataset {cfg['dataset']!r} loads from data_dir; set data_dir")
    if ds.split is not None and cfg["batch_size"] > cfg["data_n"]:
        raise ConfigError(f"config key 'batch_size' ({cfg['batch_size']}) exceeds "
                          f"'data_n' ({cfg['data_n']}): an epoch would take no step")
    return cfg


def load_config(path: str) -> dict[str, Any]:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def build_model(cfg: dict[str, Any]):
    gran = None if cfg["granularity"] == "none" else cfg["granularity"]
    arch = ARCH_TABLE[cfg["arch"]]
    return arch.model(*arch.args(cfg, DATASET_TABLE[cfg["dataset"]]),
                      threshold=cfg["gate_t"], beta=cfg["gate_beta"],
                      alpha_init=cfg["alpha_init"], granularity=gran, seed=cfg["seed"])


def build_datasets(cfg: dict[str, Any]):
    """Train and test splits."""
    ds = DATASET_TABLE[cfg["dataset"]]
    if ds.split is None:
        return data_mod.load_cifar10(cfg["data_dir"])
    return (ds.split(cfg, cfg["data_n"], "train"),
            ds.split(cfg, cfg["data_test_n"], "test"))


def train_config_from(cfg: dict[str, Any]) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], base_lr=cfg["base_lr"],
        momentum=cfg["momentum"], decay_epochs=tuple(cfg["decay_epochs"]),
        decay_factor=cfg["decay_factor"], seed=cfg["seed"],
        objective=ObjectiveConfig(cfg["lambda1"], cfg["lambda2"], cfg["lambda3"],
                                  cfg["target_c"]),
        snapshot_every=cfg["snapshot_every"], freeze_gates=cfg["freeze_gates"],
        augment=cfg["augment"])

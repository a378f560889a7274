"""Run configuration: a flat, schema-versioned JSON document.

Every key is validated before any model is built; unknown keys are rejected
outright (regularizer coefficients span four orders of magnitude, so a typo
must not fall back to a default silently).
"""

from __future__ import annotations

import json
from typing import Any

from . import data as data_mod
from . import models
from .objective import ObjectiveConfig
from .training import TrainConfig

CONFIG_SCHEMA_VERSION = 1

ARCHS = ("mlp", "toy-convnet", "resnet-small", "lstm-classifier", "lstm-lm")
GRANULARITY_FOR_ARCH = {
    "mlp": ("none", "weight"),
    "toy-convnet": ("none", "filter"),
    "resnet-small": ("none", "filter", "subnetwork"),
    "lstm-classifier": ("none", "node"),
    "lstm-lm": ("none", "node"),
}
IMAGE_ARCHS = ("toy-convnet", "resnet-small")
DATASETS = ("synth-class", "synth-images", "synth-seq-majority",
            "synth-seq-markov", "cifar10")


class ConfigError(ValueError):
    pass


def _positive_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# key -> (validator, default, description); None default means required
_SCHEMA: dict[str, tuple] = {
    "schema_version": (lambda v: v == CONFIG_SCHEMA_VERSION, None, "must equal 1"),
    "arch": (lambda v: v in ARCHS, None, f"one of {ARCHS}"),
    "granularity": (lambda v: v in ("none", "weight", "node", "filter", "subnetwork"),
                    "none", "pruning granularity"),
    "dataset": (lambda v: v in DATASETS, None, f"one of {DATASETS}"),
    "data_n": (_positive_int, 2048, "training samples"),
    "data_test_n": (_positive_int, 512, "test samples"),
    "data_classes": (lambda v: _positive_int(v) and v >= 2, 10, "class count"),
    "data_dim": (_positive_int, 32, "feature dimension (mlp datasets)"),
    "data_margin": (lambda v: _number(v) and v > 0, 6.0, "class separation"),
    "data_vocab": (lambda v: _positive_int(v) and v >= 4, 16, "token vocabulary"),
    "data_seq_len": (_positive_int, 16, "sequence length"),
    "data_seed": (lambda v: isinstance(v, int), 0, "dataset seed"),
    "data_dir": (lambda v: isinstance(v, str), "", "cifar10 directory"),
    "image_hw": (_positive_int, 12, "synthetic image side"),
    "image_channels": (_positive_int, 3, "synthetic image channels"),
    "epochs": (_positive_int, 10, "training epochs"),
    "batch_size": (_positive_int, 32, "batch size"),
    "base_lr": (lambda v: _number(v) and v > 0, 0.1, "starting learning rate"),
    "momentum": (lambda v: _number(v) and 0 <= v < 1, 0.9, "momentum"),
    "decay_epochs": (lambda v: isinstance(v, list) and all(isinstance(e, int) for e in v),
                     [], "epochs at which lr decays"),
    "decay_factor": (lambda v: _number(v) and 0 < v < 1, 0.1, "lr decay factor"),
    "seed": (lambda v: isinstance(v, int), 0, "run seed"),
    "snapshot_every": (_positive_int, 100, "steps between prune snapshots"),
    "freeze_gates": (lambda v: isinstance(v, bool), False, "exclude alphas from updates"),
    "augment": (lambda v: isinstance(v, bool), False, "pad/crop/flip augmentation"),
    "lambda1": (lambda v: _number(v) and v >= 0, 0.0, "l1 on scaling factors"),
    "lambda2": (lambda v: _number(v) and v >= 0, 0.0, "masked l2 on weights"),
    "lambda3": (lambda v: _number(v) and v >= 0, 0.0, "ratio hinge"),
    "target_c": (lambda v: _number(v) and 0 < v <= 1, 1.0, "target remaining fraction"),
    "gate_t": (lambda v: v is None or (_number(v) and 0 < v < 1), None,
               "mask threshold (null = per-granularity default)"),
    "gate_beta": (lambda v: _number(v) and v > 0, 5.0, "surrogate sharpness"),
    "alpha_init": (_number, 1.0, "initial scaling factor"),
    "mlp_hidden": (lambda v: isinstance(v, list) and all(_positive_int(e) for e in v),
                   [32], "mlp hidden widths"),
    "conv_channels": (lambda v: isinstance(v, list) and all(_positive_int(e) for e in v),
                      [8, 12, 16], "toy-convnet filter counts"),
    "stage_widths": (lambda v: isinstance(v, list) and all(_positive_int(e) for e in v),
                     [16, 32, 64], "resnet stage widths"),
    "blocks_per_stage": (_positive_int, 9, "resnet blocks per stage"),
    "lstm_hidden": (_positive_int, 32, "lstm hidden dimension"),
    "lstm_stacks": (lambda v: v in (1, 2), 1, "stacked lstm cells"),
    "embed_dim": (_positive_int, 16, "token embedding dimension"),
    "out_dir": (lambda v: isinstance(v, str), "run_out", "output directory"),
}

# keys whose optional threshold sentinel is None, not "missing"
_NULLABLE = {"gate_t"}


def validate_config(raw: dict[str, Any]) -> dict[str, Any]:
    """Fill defaults, reject unknown keys and invalid values."""
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; "
                          f"valid keys: {sorted(_SCHEMA)}")
    cfg: dict[str, Any] = {}
    for key, (check, default, desc) in _SCHEMA.items():
        if key in raw:
            value = raw[key]
        elif default is None and key not in _NULLABLE:
            raise ConfigError(f"missing required config key {key!r} ({desc})")
        else:
            value = default
        if not check(value) and not (key in _NULLABLE and value is None):
            raise ConfigError(f"config key {key!r}: invalid value {value!r} ({desc})")
        cfg[key] = value
    if list(cfg["decay_epochs"]) != sorted(set(cfg["decay_epochs"])):
        raise ConfigError("decay_epochs must be strictly increasing")
    gran = cfg["granularity"]
    if gran not in GRANULARITY_FOR_ARCH[cfg["arch"]]:
        raise ConfigError(
            f"granularity {gran!r} is incompatible with arch {cfg['arch']!r}; "
            f"allowed: {GRANULARITY_FOR_ARCH[cfg['arch']]}")
    if cfg["augment"] and cfg["arch"] not in IMAGE_ARCHS:
        raise ConfigError(f"config key 'augment': pad/crop/flip augmentation needs "
                          f"image input; arch {cfg['arch']!r} does not take images")
    seq_arch = cfg["arch"].startswith("lstm")
    seq_data = cfg["dataset"].startswith("synth-seq")
    if seq_arch != seq_data and cfg["dataset"] != "cifar10":
        raise ConfigError(f"dataset {cfg['dataset']!r} does not feed arch "
                          f"{cfg['arch']!r}")
    if cfg["dataset"] == "cifar10" and not cfg["data_dir"]:
        raise ConfigError("cifar10 dataset requires data_dir")
    if cfg["dataset"] == "synth-seq-markov" and cfg["arch"] != "lstm-lm":
        raise ConfigError("synth-seq-markov is a next-token corpus (arch lstm-lm)")
    if cfg["dataset"] == "synth-seq-majority" and cfg["arch"] != "lstm-classifier":
        raise ConfigError("synth-seq-majority is a classification corpus "
                          "(arch lstm-classifier)")
    return cfg


def load_config(path: str) -> dict[str, Any]:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    return validate_config(raw)


def build_model(cfg: dict[str, Any]):
    gran = None if cfg["granularity"] == "none" else cfg["granularity"]
    gate_kw = dict(threshold=cfg["gate_t"], beta=cfg["gate_beta"],
                   alpha_init=cfg["alpha_init"], granularity=gran,
                   seed=cfg["seed"])
    arch = cfg["arch"]
    if arch == "mlp":
        return models.Mlp(cfg["data_dim"], tuple(cfg["mlp_hidden"]),
                          cfg["data_classes"], **gate_kw)
    if arch == "toy-convnet":
        hw = (32, 32) if cfg["dataset"] == "cifar10" else (cfg["image_hw"],) * 2
        ch = 3 if cfg["dataset"] == "cifar10" else cfg["image_channels"]
        return models.ToyConvNet(tuple(cfg["conv_channels"]), ch, hw,
                                 cfg["data_classes"] if cfg["dataset"] != "cifar10"
                                 else 10, **gate_kw)
    if arch == "resnet-small":
        hw = (32, 32) if cfg["dataset"] == "cifar10" else (cfg["image_hw"],) * 2
        ch = 3 if cfg["dataset"] == "cifar10" else cfg["image_channels"]
        return models.ResNetSmall(tuple(cfg["stage_widths"]), cfg["blocks_per_stage"],
                                  ch, hw,
                                  cfg["data_classes"] if cfg["dataset"] != "cifar10"
                                  else 10, **gate_kw)
    if arch == "lstm-classifier":
        return models.LstmClassifier(cfg["data_vocab"], cfg["embed_dim"],
                                     cfg["lstm_hidden"], 2, cfg["lstm_stacks"],
                                     **gate_kw)
    if arch == "lstm-lm":
        return models.LstmLm(cfg["data_vocab"], cfg["embed_dim"],
                             cfg["lstm_hidden"], cfg["lstm_stacks"], **gate_kw)
    raise ConfigError(f"unknown arch {arch!r}")


def build_datasets(cfg: dict[str, Any]):
    name = cfg["dataset"]
    seed = cfg["data_seed"]
    if name == "cifar10":
        return data_mod.load_cifar10(cfg["data_dir"])
    if name == "synth-class":
        return (data_mod.synth_classification(cfg["data_n"], cfg["data_classes"],
                                              cfg["data_dim"], seed,
                                              cfg["data_margin"]),
                data_mod.synth_classification(cfg["data_test_n"], cfg["data_classes"],
                                              cfg["data_dim"], seed,
                                              cfg["data_margin"], split="test"))
    if name == "synth-images":
        shape = (cfg["image_channels"], cfg["image_hw"], cfg["image_hw"])
        return (data_mod.synth_classification(cfg["data_n"], cfg["data_classes"],
                                              seed=seed, margin=cfg["data_margin"],
                                              image_shape=shape),
                data_mod.synth_classification(cfg["data_test_n"], cfg["data_classes"],
                                              seed=seed, margin=cfg["data_margin"],
                                              image_shape=shape, split="test"))
    if name == "synth-seq-majority":
        return (data_mod.synth_sequences(cfg["data_n"], cfg["data_vocab"],
                                         cfg["data_seq_len"], seed, "majority"),
                data_mod.synth_sequences(cfg["data_test_n"], cfg["data_vocab"],
                                         cfg["data_seq_len"], seed + 1, "majority",
                                         split="test"))
    if name == "synth-seq-markov":
        return (data_mod.synth_sequences(cfg["data_n"], cfg["data_vocab"],
                                         cfg["data_seq_len"], seed, "markov"),
                data_mod.synth_sequences(cfg["data_test_n"], cfg["data_vocab"],
                                         cfg["data_seq_len"], seed + 1, "markov",
                                         split="test"))
    raise ConfigError(f"unknown dataset {name!r}")


def train_config_from(cfg: dict[str, Any]) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], base_lr=cfg["base_lr"],
        momentum=cfg["momentum"], decay_epochs=tuple(cfg["decay_epochs"]),
        decay_factor=cfg["decay_factor"], seed=cfg["seed"],
        objective=ObjectiveConfig(cfg["lambda1"], cfg["lambda2"], cfg["lambda3"],
                                  cfg["target_c"]),
        snapshot_every=cfg["snapshot_every"], freeze_gates=cfg["freeze_gates"],
        augment=cfg["augment"])

"""Every config ``validate_config`` accepts trains end to end, and its checkpoint
reports what the run wrote: a property test over the run grid."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from maskprune.cli import main
from maskprune.config import (_SCHEMA, ARCH_TABLE, DATASET_TABLE, GRANULARITY_FOR_ARCH,
                              ConfigError, build_model, validate_config)

# the keys that size a run, always drawn and capped so one example trains in
# tens of milliseconds
_SIZES = {
    "data_n": st.integers(4, 12),
    "data_test_n": st.integers(1, 6),
    "batch_size": st.integers(1, 5),           # above data_n: refused
    "epochs": st.integers(1, 2),
    "data_classes": st.integers(2, 4),
    "data_dim": st.integers(1, 5),
    "data_vocab": st.integers(4, 7),           # 4 is one below the majority corpus's
    "data_seq_len": st.integers(2, 5),         # 2 is one below the majority corpus's
    "image_hw": st.integers(1, 6),
    "image_channels": st.integers(1, 2),
    "mlp_hidden": st.lists(st.integers(1, 4), max_size=2),
    "conv_channels": st.lists(st.integers(1, 3), max_size=2),
    "stage_widths": st.lists(st.integers(1, 3), min_size=1, max_size=3),
    "blocks_per_stage": st.integers(1, 2),
    "lstm_hidden": st.integers(1, 4),
    "lstm_stacks": st.integers(1, 2),
    "embed_dim": st.integers(1, 3),
}
# the keys that steer a run: each takes its schema default or one of these
_STEERING = {key: st.sampled_from([_SCHEMA[key][1], *values]) for key, values in {
    "lambda1": [1e-3, 0.5],
    "lambda2": [1e-3],
    "lambda3": [1.0],
    "target_c": [0.5],
    "gate_t": [0.05, 0.5],
    "gate_beta": [50.0],
    # 0 masks every gate at init, a negative alpha is live through |alpha|,
    # and 1e100 overflows a gated matmul within a few steps
    "alpha_init": [0.0, 0.02, -0.5, 1e100],
    "base_lr": [0.5],
    "momentum": [0.0],
    "decay_epochs": [[0], [1, 2]],
    "decay_factor": [0.5],
    "data_margin": [1.0],
    "freeze_gates": [True],
    "augment": [True],                         # on a non-image arch: refused
    "seed": [1, 2],
    "data_seed": [1, 2],
}.items()}
# drawn from ARCH_TABLE and DATASET_TABLE, or fixed per example
_GRID = {"schema_version", "arch", "granularity", "dataset", "out_dir"}
# cifar10 is refused without a data_dir; no key reads snapshot_every
_LEFT_AT_DEFAULT = {"data_dir", "snapshot_every"}
# a key out of its range takes one of these that its validator refuses
_OUT_OF_RANGE = [0, -1, 0.5, 1.5, "x", None, [], [0], True, math.nan]
_ONE_IN_FOUR = st.integers(0, 3).map(lambda v: v == 3)


def test_the_strategy_draws_every_schema_key():
    keys = [set(_SIZES), set(_STEERING), _GRID, _LEFT_AT_DEFAULT]
    assert sum(map(len, keys)) == len(_SCHEMA) and set().union(*keys) == set(_SCHEMA)


@st.composite
def _configs(draw):
    """A raw run config: an arch, mostly with a dataset that feeds it and one
    of its granularities, capped sizes and steering keys; in one draw in
    four, one key out of its schema range."""
    arch = draw(st.sampled_from(sorted(ARCH_TABLE)))
    # the synthetic datasets that feed it, three times in four
    feeding = sorted(d for d, spec in DATASET_TABLE.items()
                     if spec.yields == ARCH_TABLE[arch].reads and spec.split)
    dataset = draw(st.sampled_from(sorted(DATASET_TABLE) if draw(_ONE_IN_FOUR)
                                   else feeding))
    granularity = draw(st.sampled_from(GRANULARITY_FOR_ARCH[arch]))
    raw = dict(draw(st.fixed_dictionaries({**_SIZES, **_STEERING})),
               schema_version=1, arch=arch, dataset=dataset, granularity=granularity)
    if draw(_ONE_IN_FOUR):
        key = draw(st.sampled_from(sorted(set(_SCHEMA) - {"out_dir"})))
        raw[key] = draw(st.sampled_from([v for v in _OUT_OF_RANGE
                                         if not _SCHEMA[key][0](v)]))
    return raw


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_configs())
def test_every_accepted_config_trains_and_reports_what_it_wrote(raw):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        raw = dict(raw, out_dir=out)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        try:
            cfg = validate_config(raw)
        except ConfigError:
            assert _run("train", "--config", path)[0] == 2
            assert not os.path.exists(out)
            return
        code = _run("train", "--config", path)[0]
        assert code in (0, 1)              # 1: the run diverged
        if code == 1:
            return
        with open(os.path.join(out, "metrics.jsonl")) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == raw["epochs"]
        assert all(math.isfinite(r[k]) for r in records
                   for k in ("task_loss", "l1_term", "l2_term", "hinge_term"))
        code, printed = _run("report", "--checkpoint", os.path.join(out, "checkpoint"))
        assert code == 0
        report = os.path.join(out, "prune_report.txt")
        if build_model(cfg).gates():
            with open(report) as fh:
                assert fh.read() == printed
        else:
            assert not os.path.exists(report)
            assert printed == "model has no gates; nothing to report\n"

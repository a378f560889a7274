import gc
import json
import os
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from maskprune import checkpoint, layers, training
from maskprune import gate as gate_mod
from maskprune.checkpoint import load_checkpoint, save_checkpoint
from maskprune.config import build_datasets, build_model, train_config_from, validate_config
from maskprune.data import Dataset, synth_classification, synth_sequences
from maskprune.gate import GateParam
from maskprune.models import LstmClassifier, LstmLm, Mlp, ResNetSmall, ToyConvNet
from maskprune.objective import ObjectiveConfig, l1_alpha
from maskprune.pruning import PruneManager
from maskprune.tensor import Tape, Tensor, add, custom_grad
from maskprune.training import (TrainConfig, TrainDivergence, evaluate, lr_at,
                                sgd_momentum_step, train, train_step)


def _resnet20_filter(data_test_n: int):
    """The resnet20-filter benchmark config (ResNet-20, 17x17 inputs, batch
    16): a fresh, fully live model, its splits and its train config."""
    cfg = validate_config({
        "schema_version": 1, "seed": 0, "data_seed": 0,
        "arch": "resnet-small", "granularity": "filter", "dataset": "synth-images",
        "image_hw": 17, "image_channels": 3, "stage_widths": [16, 32, 64],
        "blocks_per_stage": 3, "data_classes": 10, "data_margin": 30.0,
        "data_n": 32, "data_test_n": data_test_n, "augment": True, "batch_size": 16,
        "base_lr": 0.1, "alpha_init": 0.5, "gate_t": 0.1,
        "lambda1": 0.1, "lambda2": 1e-4, "lambda3": 5.0, "target_c": 0.5})
    return build_model(cfg), build_datasets(cfg), train_config_from(cfg)


def _traced_peak(fn) -> float:
    """The tracemalloc peak of ``fn()`` above what was allocated before, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def test_a_resnet20_filter_training_step_peaks_below_60_mib():
    # each conv node keeps its padded input, not its column matrix, and the
    # backward frees each node's saved arrays once it has used them: the
    # step peaks near 46 MiB, and near 113 MiB with both undone
    model, (train_ds, _), tcfg = _resnet20_filter(16)
    xb, yb = train_ds.inputs[:16], train_ds.labels[:16]
    manager, velocity = PruneManager(model), {}
    train_step(manager, xb, yb, tcfg, velocity, 0.1, 0)   # allocates the velocity
    peak = _traced_peak(lambda: train_step(manager, xb, yb, tcfg, velocity, 0.1, 1))
    assert peak <= 60, f"{peak:.1f} MiB"


def test_a_resnet20_filter_evaluation_peaks_below_20_mib():
    # the benchmark's 64 test images run as one batch.  Each conv lowers its
    # input in bands of at most LOWER_BAND_BYTES, and eval's residual sums are
    # leaves, so no activation outlives the block after it: the evaluation
    # peaks near 16 MiB, and near 39 MiB with one column matrix per conv and
    # the residual sums in a graph
    model, (_, test_ds), _ = _resnet20_filter(64)
    evaluate(model, test_ds)
    peak = _traced_peak(lambda: evaluate(model, test_ds))
    assert peak <= 20, f"{peak:.1f} MiB"


def test_lr_schedule_from_reference_protocol():
    cfg = TrainConfig(epochs=160, base_lr=0.1, decay_epochs=(80, 120))
    assert lr_at(79, cfg) == 0.1
    assert lr_at(80, cfg) == pytest.approx(0.01)
    assert lr_at(120, cfg) == pytest.approx(0.001)
    flat = TrainConfig(epochs=10, base_lr=0.05)
    assert all(lr_at(e, flat) == 0.05 for e in range(10))


def test_sgd_plain_step():
    p = {"w": np.array([10.0])}
    v = {}
    sgd_momentum_step(p, {"w": np.array([2.0])}, v, lr=1.0, momentum=0.0)
    assert np.array_equal(p["w"], [8.0])


def test_sgd_momentum_two_steps_hand_iterated():
    p = {"w": np.array([0.0])}
    v = {}
    for _ in range(2):
        sgd_momentum_step(p, {"w": np.array([1.0])}, v, lr=1.0, momentum=0.9)
    assert np.allclose(p["w"], [-2.9])   # 1 then 1.9


def test_sgd_zero_gradient_no_motion():
    p = {"w": np.array([3.0, -1.0])}
    sgd_momentum_step(p, {"w": np.zeros(2)}, {}, lr=0.5, momentum=0.9)
    assert np.array_equal(p["w"], [3.0, -1.0])


def test_sgd_updates_velocity_in_place_and_leaves_grads_alone():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 4))
    params, velocity = {"w": w}, {}
    want_p, want_v = w.copy(), np.zeros_like(w)
    for _ in range(3):
        g = rng.normal(size=(3, 4))
        grads, held = {"w": g.copy()}, velocity.get("w")
        sgd_momentum_step(params, grads, velocity, lr=0.3, momentum=0.9)
        assert grads["w"].tobytes() == g.tobytes()
        assert params["w"] is w and (held is None or velocity["w"] is held)
        want_v = 0.9 * want_v + g
        want_p = want_p - 0.3 * want_v
        assert velocity["w"].tobytes() == want_v.tobytes()
        assert w.tobytes() == want_p.tobytes()


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        sgd_momentum_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, 0.1, 0.9)


class _FixedLogits:
    """Stub classifier emitting pre-baked logits for evaluate()."""

    task = "classification"

    def __init__(self, logits):
        self.logits = logits
        self.cursor = 0

    def forward(self, tape, x, mode="eval"):
        out = Tensor(self.logits[self.cursor:self.cursor + len(x)])
        self.cursor += len(x)
        return out


def test_evaluate_perfect_and_chance():
    labels = np.arange(2400) % 10
    perfect = np.eye(10)[labels] * 5.0
    ds = Dataset(np.zeros((2400, 1)), labels)
    assert evaluate(_FixedLogits(perfect), ds)["test_error"] == 0.0
    rng = np.random.default_rng(0)
    random_logits = rng.normal(size=(2400, 10))
    err = evaluate(_FixedLogits(random_logits), ds)["test_error"]
    assert abs(err - 0.9) < 0.03


def test_evaluate_uniform_lm_perplexity_equals_vocab():
    model = LstmLm(vocab=11, embed_dim=4, hidden=5, seed=0)
    for arr in model.params().values():
        arr[...] = 0.0
    ds = synth_sequences(40, vocab=11, length=6, seed=1, kind="markov")
    ppl = evaluate(model, ds)["test_perplexity"]
    assert ppl == pytest.approx(11.0, rel=1e-12)


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ValueError):
        evaluate(_FixedLogits(np.zeros((0, 2))),
                 Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int)))


def test_alpha_strictly_decreases_under_pure_l1():
    # zero task gradient: the l1 pull shrinks every active alpha each step
    gate = GateParam.create("filter", 4, name="g")
    gate.alpha[:] = [1.0, 0.4, 0.05, 0.8]
    velocity = {}
    lam, lr = 1e-2, 0.5
    prev = gate.alpha.copy()
    for _ in range(30):
        tape = Tape()
        a = tape.param("g.alpha", gate.alpha)
        grads = tape.backward(l1_alpha([a]))
        sgd_momentum_step({"g.alpha": gate.alpha},
                          {"g.alpha": lam * grads["g.alpha"]},
                          velocity, lr, momentum=0.0)
        active = np.abs(prev) > gate.threshold
        assert np.all(np.abs(gate.alpha[active]) < np.abs(prev[active]))
        prev = gate.alpha.copy()


def _tiny_image_data(seed=0, n=96, classes=3):
    train = synth_classification(n, classes=classes, seed=seed, margin=9.0,
                                 image_shape=(2, 6, 6))
    test = synth_classification(48, classes=classes, seed=seed, margin=9.0,
                                image_shape=(2, 6, 6), split="test")
    return train, test


def _tiny_convnet(gated, seed=0, **kw):
    return ToyConvNet(channels=(4, 4), in_channels=2, input_hw=(6, 6), classes=3,
                      seed=seed, granularity="filter" if gated else None, **kw)


def test_identity_reduction_convnet_five_steps_bit_exact():
    train, _ = _tiny_image_data()
    cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.05, seed=3,
                      freeze_gates=True)
    gated, plain = PruneManager(_tiny_convnet(True)), PruneManager(_tiny_convnet(False))
    vel_g, vel_p = {}, {}
    for step in range(5):
        lo = step * 16
        xb = train.inputs[lo:lo + 16]
        yb = train.labels[lo:lo + 16]
        pg = train_step(gated, xb, yb, cfg, vel_g, 0.05, step)
        pp = train_step(plain, xb, yb, cfg, vel_p, 0.05, step)
        assert pg["task_loss"] == pp["task_loss"]
    plain_params = plain.model.params()
    for name, arr in gated.model.params().items():
        if name.endswith(".alpha"):
            assert np.all(arr == 1.0)
            continue
        assert np.array_equal(arr, plain_params[name]), name


def test_identity_reduction_lstm_five_steps_bit_exact():
    train = synth_sequences(80, vocab=8, length=6, seed=4)
    cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.05, seed=5,
                      freeze_gates=True)
    gated = PruneManager(LstmClassifier(vocab=8, embed_dim=6, hidden=8, seed=6,
                                        granularity="node"))
    plain = PruneManager(LstmClassifier(vocab=8, embed_dim=6, hidden=8, seed=6))
    vel_g, vel_p = {}, {}
    for step in range(5):
        lo = step * 16
        xb = train.inputs[lo:lo + 16]
        yb = train.labels[lo:lo + 16]
        pg = train_step(gated, xb, yb, cfg, vel_g, 0.05, step)
        pp = train_step(plain, xb, yb, cfg, vel_p, 0.05, step)
        assert pg["task_loss"] == pp["task_loss"]
    plain_params = plain.model.params()
    for name, arr in gated.model.params().items():
        if not name.endswith(".alpha"):
            assert np.array_equal(arr, plain_params[name]), name


def test_train_emits_one_record_per_epoch(tmp_path):
    train_ds, test_ds = _tiny_image_data(seed=7)
    cfg = TrainConfig(epochs=3, batch_size=16, base_lr=0.05, seed=8,
                      objective=ObjectiveConfig(lambda1=1e-3, lambda2=1e-4))
    model = _tiny_convnet(True, seed=9)
    metrics = train(model, train_ds, test_ds, cfg, out_dir=str(tmp_path))
    assert len(metrics) == 3
    lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[-1])
    for key in ("epoch", "lr", "task_loss", "l1_term", "l2_term", "hinge_term",
                "test_error", "active_counts", "pruned_ratio", "schema_version"):
        assert key in rec


def test_an_ungated_train_is_k_zero(tmp_path):
    # a model without gates runs under a PruneManager of K = 0, like any other
    train_ds, test_ds = _tiny_image_data(seed=7)
    cfg = TrainConfig(epochs=2, batch_size=16, base_lr=0.05, seed=8)
    metrics = train(_tiny_convnet(False, seed=9), train_ds, test_ds, cfg,
                    out_dir=str(tmp_path))
    assert [(m["active_counts"], m["pruned_ratio"]) for m in metrics] == [({}, 0.0)] * 2
    assert load_checkpoint(str(tmp_path / "checkpoint"))[1]["meta"]["events"] == []


def test_train_refuses_a_manager_of_another_model():
    # the steps train the manager's model, while eval and the checkpoint read train's
    train_ds, test_ds = _tiny_image_data(seed=7)
    with pytest.raises(ValueError, match="another model"):
        train(_tiny_convnet(True), train_ds, test_ds, TrainConfig(epochs=1, batch_size=16),
              manager=PruneManager(_tiny_convnet(True)))


def test_train_determinism_metric_stream():
    train_ds, test_ds = _tiny_image_data(seed=10)
    def run():
        cfg = TrainConfig(epochs=2, batch_size=16, base_lr=0.05, seed=11,
                          objective=ObjectiveConfig(lambda1=1e-3))
        return train(_tiny_convnet(True, seed=12), train_ds, test_ds, cfg)
    m1, m2 = run(), run()
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def test_train_refuses_a_split_smaller_than_one_batch():
    train_ds = synth_classification(8, 3, 4, seed=19)
    cfg = TrainConfig(epochs=2, batch_size=32)
    with pytest.raises(ValueError, match="no batch of 32"):
        train(Mlp(4, (5,), 3, seed=20), train_ds, train_ds, cfg)


def test_nan_abort_names_first_bad_tensor():
    train_ds, test_ds = _tiny_image_data(seed=13)
    model = _tiny_convnet(True, seed=14)
    model.head.w[0, 0] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.05, seed=15)
    with pytest.raises(TrainDivergence, match="first non-finite tensor is op="):
        train(model, train_ds, test_ds, cfg)


# a small weight-gated MLP that diverges, by overflow, in two places
DIVERGING = {"schema_version": 1, "arch": "mlp", "granularity": "weight",
             "dataset": "synth-class", "data_n": 16, "data_test_n": 4, "batch_size": 4,
             "epochs": 1, "mlp_hidden": [4], "data_dim": 5, "data_classes": 3, "seed": 0}


# the first overflows in training step 3; the second passes every step's checks
# and overflows in the epoch-end evaluation, after the epoch's 4 steps
@pytest.mark.parametrize("base_lr,alpha_init,step", [(1.0, 1e6, 3), (0.1, 1000.0, 4)],
                         ids=["in-a-step", "in-the-evaluation"])
def test_overflow_ends_in_train_divergence_not_a_warning(base_lr, alpha_init, step):
    cfg = validate_config(dict(DIVERGING, base_lr=base_lr, alpha_init=alpha_init))
    train_ds, test_ds = build_datasets(cfg)
    # pyproject turns a RuntimeWarning into an error, which would fail this
    with pytest.raises(TrainDivergence,
                       match=f"at step {step}: overflow encountered in matmul"):
        train(build_model(cfg), train_ds, test_ds, train_config_from(cfg))


class _InfGradMlp(Mlp):
    """Finite loss, but the backward pass hands fc1.b an inf gradient."""

    def forward(self, tape, x, mode="train"):
        out = super().forward(tape, x, mode)
        b = tape.params["fc1.b"]
        poison = custom_grad(0.0, (b,), lambda g: (np.full(b.shape, np.inf),),
                             op="poison")
        return add(out, poison)


def test_nonfinite_gradient_aborts_before_update():
    train_ds = synth_classification(32, 3, 4, seed=16)
    model = _InfGradMlp(4, (5,), 3, seed=17)
    before = {n: p.copy() for n, p in model.params().items()}
    cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.05, seed=18)
    with pytest.raises(TrainDivergence, match=r"gradient at step 0.*'fc1\.b'"):
        train(model, train_ds, train_ds, cfg)
    for name, p in model.params().items():
        assert np.array_equal(p, before[name]), name


def test_checkpoint_round_trip_reproduces_evaluation(tmp_path):
    train_ds, test_ds = _tiny_image_data(seed=16)
    model = _tiny_convnet(True, seed=17)
    cfg = TrainConfig(epochs=2, batch_size=16, base_lr=0.05, seed=18,
                      objective=ObjectiveConfig(lambda1=1e-3))
    train(model, train_ds, test_ds, cfg)
    before = evaluate(model, test_ds)["test_error"]
    save_checkpoint(str(tmp_path / "ck"), model.persistent_arrays(), {"note": "test"})
    arrays, manifest = load_checkpoint(str(tmp_path / "ck"))
    fresh = _tiny_convnet(True, seed=99)    # different init, then overwritten
    fresh.load_params(arrays)
    after = evaluate(fresh, test_ds)["test_error"]
    assert before == after
    for name, arr in model.persistent_arrays().items():
        assert np.array_equal(arrays[name], arr)
    assert manifest["meta"]["note"] == "test"


def test_checkpoint_rejects_corrupt_archive(tmp_path):
    model = _tiny_convnet(True, seed=19)
    save_checkpoint(str(tmp_path / "ck"), model.params())
    bin_path = tmp_path / "ck" / "tensors.bin"
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(str(tmp_path / "ck"))


@pytest.mark.parametrize("edit,match", [
    (lambda t: t.append(dict(t[0])), "bad tensor directory entry"),
    (lambda t: t[1].update(name=t[0]["name"]), "named twice"),
    (lambda t: t[1].update(offset=t[1]["offset"] - 1), "bad tensor directory entry"),
    (lambda t: t.pop(), "covers"),
], ids=["copied", "named-twice", "overlapping", "dropped"])
def test_checkpoint_rejects_a_tensor_directory_that_does_not_tile_the_archive(tmp_path, edit,
                                                                                match):
    # the archive's sha256 does not cover the manifest, so a directory edit
    # must fail its own check, not load with one entry silently winning
    model = _tiny_convnet(True, seed=19)
    ck = tmp_path / "ck"
    save_checkpoint(str(ck), model.params())
    manifest = json.loads((ck / "manifest.json").read_text())
    edit(manifest["tensors"])
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(str(ck))


def test_checkpoint_save_cut_short_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = _tiny_convnet(True, seed=21)
    ck = str(tmp_path / "ck")
    save_checkpoint(ck, model.params(), {"step": 1})
    first = {k: v.copy() for k, v in model.params().items()}
    for p in model.params().values():
        p += 1.0

    # the second flush is the manifest's: the archive is written, the renames not
    flushes = []
    flush = checkpoint._flush_to_disk

    def cut(fh):
        flushes.append(fh.name)
        if len(flushes) == 2:
            raise OSError("disk full")
        flush(fh)

    monkeypatch.setattr(checkpoint, "_flush_to_disk", cut)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ck, model.params(), {"step": 2})
    monkeypatch.undo()
    assert [os.path.basename(f) for f in flushes] == ["tensors.bin.tmp", "manifest.json.tmp"]
    arrays, manifest = load_checkpoint(ck)
    assert manifest["meta"]["step"] == 1
    assert set(arrays) == set(first)
    for name, arr in first.items():
        assert np.array_equal(arrays[name], arr), name


def test_checkpoint_save_syncs_files_before_renames_and_directory_after(tmp_path,
                                                                      monkeypatch):
    # fsyncs are recorded by inode: a rename keeps the file's inode
    model = _tiny_convnet(True, seed=22)
    ck = tmp_path / "ck"
    calls = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "fsync", spy_fsync)
    monkeypatch.setattr(checkpoint.os, "replace", spy_replace)
    for step in (1, 2):                      # a fresh directory, then an overwrite
        calls.clear()
        save_checkpoint(str(ck), model.params(), {"step": step})
        ino = {p: os.stat(ck / p).st_ino for p in ("tensors.bin", "manifest.json")}
        assert calls == [("fsync", ino["tensors.bin"]), ("fsync", ino["manifest.json"]),
                         ("replace", "tensors.bin.tmp", "tensors.bin"),
                         ("replace", "manifest.json.tmp", "manifest.json"),
                         ("fsync", os.stat(ck).st_ino)]
    assert load_checkpoint(str(ck))[1]["meta"]["step"] == 2


def test_checkpoint_rejects_archive_under_older_manifest(tmp_path):
    # a save cut short between the two renames: the new tensors, same sizes,
    # under the previous save's manifest (its step and event log)
    model = _tiny_convnet(True, seed=20)
    ck = tmp_path / "ck"
    save_checkpoint(str(ck), model.params(), {"step": 1})
    first = (ck / "manifest.json").read_bytes()
    for p in model.params().values():
        p += 1.0
    save_checkpoint(str(ck), model.params(), {"step": 2})
    (ck / "manifest.json").write_bytes(first)
    with pytest.raises(ValueError, match="sha256"):
        load_checkpoint(str(ck))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_factor=1.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_epochs=(10, 5))
    for key, value in (("epochs", 0), ("momentum", 1.0), ("momentum", -0.1)):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
    TrainConfig(momentum=0.0)


def _counted_models():
    """One small model per gated kind the count test covers, with some gate
    components masked, and a batch for it."""
    rng = np.random.default_rng(31)
    images = rng.normal(size=(8, 2, 5, 5))
    labels = rng.integers(0, 3, size=8)
    mlp = Mlp(6, (5,), 3, seed=0, granularity="weight")
    toy = ToyConvNet((3, 4), in_channels=2, input_hw=(5, 5), classes=3, seed=0,
                     granularity="filter")
    resnet = ResNetSmall((3, 4), 2, in_channels=2, input_hw=(5, 5), classes=3, seed=0,
                         granularity="subnetwork")
    lstm = LstmClassifier(vocab=6, embed_dim=3, hidden=4, classes=3, stacks=2, seed=0,
                          granularity="node")
    for model in (mlp, toy, resnet, lstm):
        for g in model.gates()[::2]:
            g.alpha[0] = 0.0
    return {"mlp/weight": (mlp, rng.normal(size=(8, 6)), labels),
            "toy-convnet/filter": (toy, images, labels),
            "resnet-small/subnetwork": (resnet, images, labels),
            "lstm-classifier/node": (lstm, rng.integers(0, 6, size=(8, 5)), labels)}


COUNTED = ["mlp/weight", "toy-convnet/filter", "resnet-small/subnetwork",
           "lstm-classifier/node"]


@pytest.mark.parametrize("name", COUNTED)
def test_each_gate_is_evaluated_once_per_step_and_eval_computes_no_surrogate(
        name, monkeypatch):
    model, x, y = _counted_models()[name]
    owner = {id(g.alpha): g.name for g in model.gates()}
    masks, terms = Counter(), Counter()
    hard_mask, surrogate_terms = gate_mod.hard_mask, gate_mod.surrogate_terms

    def spy_mask(alpha, t):
        masks[owner[id(alpha)]] += 1
        return hard_mask(alpha, t)

    def spy_terms(alpha, t, beta):
        terms[owner[id(alpha)]] += 1
        return surrogate_terms(alpha, t, beta)

    # wherever a module binds the function, so a second call site is counted too
    for mod in [m for n, m in sys.modules.items() if n.startswith("maskprune")]:
        for fn, spy in ((hard_mask, spy_mask), (surrogate_terms, spy_terms)):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, spy)
    # every term on, the hinge over budget: each gate's mask and m~' have
    # several readers
    cfg = TrainConfig(objective=ObjectiveConfig(lambda1=1e-3, lambda2=1e-3, lambda3=1.0,
                                                target_c=0.25))
    parts = train_step(PruneManager(model), x, y, cfg, {}, 0.1, 0)
    assert parts["hinge_term"] > 0.0
    assert terms == {name: 1 for name in owner.values()}
    assert masks == {name: 1 for name in owner.values()}
    terms.clear()
    evaluate(model, Dataset(x, y))
    assert not terms


@pytest.mark.parametrize("name", COUNTED)
def test_the_objective_gets_the_records_the_gated_blocks_made(name, monkeypatch):
    model, x, y = _counted_models()[name]
    made, handed = {}, []
    evaluation, total_objective = layers.evaluation, training.total_objective

    def spy_evaluation(tape, gate, alpha):
        made[gate.name] = evaluation(tape, gate, alpha)
        return made[gate.name]

    def spy_objective(task, groups, cfg):
        handed.extend(ev for ev, _ in groups)
        return total_objective(task, groups, cfg)

    monkeypatch.setattr(layers, "evaluation", spy_evaluation)
    monkeypatch.setattr(training, "total_objective", spy_objective)
    train_step(PruneManager(model), x, y, TrainConfig(), {}, 0.1, 0)
    assert len(handed) == len(made) == len(model.gates())
    assert all(ev is made[ev.gate.name] for ev in handed)


@pytest.mark.parametrize("name", COUNTED)
def test_a_step_and_an_evaluation_leave_no_reference_cycle(name):
    # a gate's record refers to its alpha node and lives on the tape, which
    # nothing in the graph refers to; were there a cycle through a record,
    # each step's gradients and surrogate terms would wait for the cyclic
    # collector, and a large gate's would pile up
    model, x, y = _counted_models()[name]
    cfg = TrainConfig(objective=ObjectiveConfig(lambda1=1e-3, lambda2=1e-3, lambda3=1.0,
                                                target_c=0.25))
    gc.collect()
    train_step(PruneManager(model), x, y, cfg, {}, 0.1, 0)
    evaluate(model, Dataset(x, y))
    assert gc.collect() == 0

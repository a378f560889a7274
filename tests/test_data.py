import os
import tracemalloc

import numpy as np
import pytest

from maskprune.data import (AUGMENT_PAD, CIFAR_MEAN, CIFAR_STD, MARKER_A, MARKER_B, Dataset,
                            augment, load_cifar10, synth_classification, synth_sequences)


def _write_cifar_archive(directory, pixel_value=0, special=None):
    """Standard 3073-byte records; optionally plant known pixels in record 0."""
    rec = np.full((10000, 3073), pixel_value, dtype=np.uint8)
    rec[:, 0] = np.arange(10000) % 10
    if special is not None:
        rec[0, 1:4] = special          # first three red-channel pixels
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        rec.tofile(os.path.join(directory, name))


def test_cifar_loader_counts(tmp_path):
    _write_cifar_archive(tmp_path)
    # each split is normalized in place, so the load peaks near 1.04x its
    # float64 output, and near 1.89x when each image is normalized on its own
    # and the results stacked
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train, test = load_cifar10(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out_bytes = train.inputs.nbytes + test.inputs.nbytes
    assert peak <= 1.25 * out_bytes, f"peak {peak / out_bytes:.2f}x the output"
    assert len(train) == 50000
    assert len(test) == 10000
    assert train.inputs.shape == (50000, 3, 32, 32)
    assert test.inputs.shape == (10000, 3, 32, 32)
    assert set(np.unique(train.labels)) == set(range(10))


def test_cifar_loader_rejects_truncated_file(tmp_path):
    _write_cifar_archive(tmp_path)
    path = tmp_path / "data_batch_3.bin"
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError, match="data_batch_3.bin"):
        load_cifar10(str(tmp_path))


def test_cifar_loader_rejects_missing_file(tmp_path):
    _write_cifar_archive(tmp_path)
    os.remove(tmp_path / "test_batch.bin")
    with pytest.raises(FileNotFoundError, match="test_batch.bin"):
        load_cifar10(str(tmp_path))


def test_cifar_known_bytes_normalize_to_hand_computed_values():
    _hand = lambda b, ch: (b / 255.0 - CIFAR_MEAN[ch]) / CIFAR_STD[ch]
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        _write_cifar_archive(d, special=[0, 128, 255])
        train, _ = load_cifar10(d)
        img = train.inputs[0]
        assert abs(img[0, 0, 0] - _hand(0, 0)) < 1e-12
        assert abs(img[0, 0, 1] - _hand(128, 0)) < 1e-12
        assert abs(img[0, 0, 2] - _hand(255, 0)) < 1e-12


@pytest.mark.parametrize("shape", [(6, 3, 32, 32), (1, 3, 8, 8), (5, 2, 1, 1), (4, 1, 3, 7)])
def test_augment_matches_per_image_pad_crop_flip(shape):
    # the reference pads, crops and mirrors one image at a time, with the
    # same draws in the same order: offsets (y, x), then the coin
    def reference(batch, seed, pad=AUGMENT_PAD):
        rng = np.random.default_rng(seed)
        H, W = batch.shape[2:]
        out = np.empty_like(batch)
        for i, img in enumerate(batch):
            oy, ox = rng.integers(0, 2 * pad + 1, size=2)
            crop = np.pad(img, ((0, 0), (pad, pad), (pad, pad)))[:, oy:oy + H, ox:ox + W]
            out[i] = crop[:, :, ::-1] if rng.random() < 0.5 else crop
        return out

    batch = np.random.default_rng(sum(shape)).normal(size=shape)
    for seed in range(8):
        assert np.array_equal(augment(batch, seed), reference(batch, seed))


def test_augment_deterministic_and_shape_preserving():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(6, 3, 32, 32))
    a1 = augment(batch, seed=42)
    a2 = augment(batch, seed=42)
    assert np.array_equal(a1, a2)
    assert a1.shape == batch.shape
    assert not np.array_equal(a1, augment(batch, seed=43))


def test_synth_classification_balanced_and_deterministic():
    ds1 = synth_classification(1000, classes=10, dim=16, seed=5)
    ds2 = synth_classification(1000, classes=10, dim=16, seed=5)
    assert len(ds1) == 1000
    counts = np.bincount(ds1.labels, minlength=10)
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(ds1.inputs, ds2.inputs)
    assert np.array_equal(ds1.labels, ds2.labels)


def test_synth_classification_linear_probe_oracle():
    # at margin 10 a closed-form least-squares probe classifies almost perfectly
    train = synth_classification(2000, classes=5, dim=24, seed=6, margin=10.0)
    test = synth_classification(1000, classes=5, dim=24, seed=6, margin=10.0,
                                split="test")
    onehot = np.eye(5)[train.labels]
    X = np.hstack([train.inputs, np.ones((len(train), 1))])
    W, *_ = np.linalg.lstsq(X, onehot, rcond=None)
    Xt = np.hstack([test.inputs, np.ones((len(test), 1))])
    pred = (Xt @ W).argmax(axis=1)
    assert (pred != test.labels).mean() <= 0.01


def test_synth_classification_splits_share_means_not_noise():
    train = synth_classification(500, classes=4, dim=12, seed=13, margin=8.0)
    test = synth_classification(500, classes=4, dim=12, seed=13, margin=8.0,
                                split="test")
    assert not np.array_equal(train.inputs, test.inputs)
    m_tr = np.stack([train.inputs[train.labels == k].mean(0) for k in range(4)])
    m_te = np.stack([test.inputs[test.labels == k].mean(0) for k in range(4)])
    assert np.all(np.linalg.norm(m_tr - m_te, axis=1) < 2.0)


def test_synth_classification_image_variant():
    ds = synth_classification(100, classes=4, seed=8, image_shape=(3, 8, 8))
    assert ds.inputs.shape == (100, 3, 8, 8)


def test_majority_corpus_labels_match_counting_oracle():
    ds = synth_sequences(500, vocab=16, length=16, seed=9, kind="majority")
    count_a = (ds.inputs == MARKER_A).sum(axis=1)
    count_b = (ds.inputs == MARKER_B).sum(axis=1)
    oracle = (count_a > count_b).astype(np.int64)
    assert np.array_equal(oracle, ds.labels)
    assert np.all(count_a != count_b)


@pytest.mark.parametrize("vocab,length,what", [(4, 16, "vocab"), (16, 2, "length"),
                                               (16, 1, "length")])
def test_majority_corpus_refuses_sizes_it_cannot_build(vocab, length, what):
    # fillers are ids >= 4, and at least three markers are planted
    with pytest.raises(ValueError, match=what):
        synth_sequences(10, vocab=vocab, length=length, kind="majority")
    ds = synth_sequences(200, vocab=5, length=3, seed=9, kind="majority")  # the smallest
    assert np.array_equal((ds.inputs == MARKER_A).sum(axis=1)
                          > (ds.inputs == MARKER_B).sum(axis=1),
                          ds.labels.astype(bool))


def test_markov_corpus_targets_are_the_stream_shifted_by_one():
    ds = synth_sequences(100, vocab=16, length=12, seed=10, kind="markov")
    assert ds.inputs.shape == (100, 12)
    assert ds.labels.shape == (100, 12)
    # targets are the stream shifted by one position
    assert np.array_equal(ds.inputs[:, 1:], ds.labels[:, :-1])


def test_sequence_corpus_deterministic():
    d1 = synth_sequences(50, seed=11)
    d2 = synth_sequences(50, seed=11)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.labels, d2.labels)


def test_dataset_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))

"""Datasets: the standard CIFAR-10 binary format plus seeded synthetic
generators sized for desk-scale experiments, and the pad/crop/flip training
augmentation of He et al. (arXiv:1512.03385).

A ``Dataset`` is its inputs and labels, nothing more.  Everything here is a
pure function of its arguments and seed; loaders reject truncated files rather
than returning partial datasets.  The CIFAR loader and ``augment`` work on a
whole batch of images at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465])
CIFAR_STD = np.array([0.247, 0.243, 0.261])
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]
_CIFAR_RECORD = 1 + 3 * 32 * 32
_CIFAR_RECORDS_PER_FILE = 10000


@dataclass
class Dataset:
    inputs: np.ndarray          # float images [n,c,H,W] or int token ids [n,T]
    labels: np.ndarray          # [n] class ids, or [n,T] next-token ids

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"inputs ({len(self.inputs)}) and labels ({len(self.labels)}) differ")

    def __len__(self):
        return len(self.inputs)


def _check_cifar_file(path: str) -> None:
    expected = _CIFAR_RECORD * _CIFAR_RECORDS_PER_FILE
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing CIFAR-10 batch file {path} "
                                f"(expected {expected} bytes)")
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(f"truncated CIFAR-10 file {path}: {size} bytes, "
                         f"expected {expected}")


def _read_cifar_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype=np.uint8)
    rec = raw.reshape(_CIFAR_RECORDS_PER_FILE, _CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    images = rec[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(directory: str) -> tuple[Dataset, Dataset]:
    """Load the six standard binary batches; 50k train / 10k test.

    Every file's presence and size is checked before any is read, so a bad
    archive fails at once.  Each split's bytes are scaled to [0,1] and
    standardized per channel in place, so the loader holds about one copy of
    the float64 images.
    """
    for f in CIFAR_TRAIN_FILES + CIFAR_TEST_FILES:
        _check_cifar_file(os.path.join(directory, f))

    def load(files):
        images, labels = zip(*(_read_cifar_file(os.path.join(directory, f)) for f in files))
        x = np.concatenate(images) / 255.0
        x -= CIFAR_MEAN[:, None, None]
        x /= CIFAR_STD[:, None, None]
        return Dataset(x, np.concatenate(labels))

    return load(CIFAR_TRAIN_FILES), load(CIFAR_TEST_FILES)


AUGMENT_PAD = 4


def augment(batch: np.ndarray, seed: int) -> np.ndarray:
    """Zero-pad by ``AUGMENT_PAD`` -> random crop -> coin-flip horizontal
    mirror, per image of a [n, c, H, W] batch.

    The batch is padded once; each image draws its crop offset (y, x), then
    its coin, and copies its crop, or the crop's mirror, out of that array.
    """
    rng = np.random.default_rng(seed)
    p = AUGMENT_PAD
    H, W = batch.shape[2:]
    padded = np.pad(batch, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.empty_like(batch)
    for i in range(len(batch)):
        oy, ox = rng.integers(0, 2 * p + 1, size=2)
        crop = padded[i, :, oy:oy + H, ox:ox + W]
        out[i] = crop[:, :, ::-1] if rng.random() < 0.5 else crop
    return out


def synth_classification(n: int, classes: int = 10, dim: int = 32, seed: int = 0,
                         margin: float = 6.0, image_shape: tuple | None = None,
                         split: str = "train") -> Dataset:
    """Gaussian class blobs with unit noise and mean separation ``margin``.

    The class means depend only on ``seed``, so train and test splits of the
    same seed share one distribution; the noise stream differs per split.
    With ``image_shape=(c, H, W)`` the samples come back as image tensors
    (dim is then c*H*W); a linear probe separates the classes whenever the
    margin comfortably exceeds the noise scale.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if image_shape is not None:
        c, H, W = image_shape
        dim = c * H * W
    mean_rng = np.random.default_rng(seed)
    means = mean_rng.normal(size=(classes, dim))
    means *= margin / np.linalg.norm(means, axis=1, keepdims=True)
    rng = np.random.default_rng([seed, 0 if split == "train" else 1])
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    x = means[labels] + rng.normal(size=(n, dim))
    if image_shape is not None:
        x = x.reshape((n,) + tuple(image_shape))
    return Dataset(x, labels)


MARKER_A, MARKER_B = 2, 3   # reserved marker tokens for the majority rule
# smallest (vocab, length) per corpus kind: majority fillers are ids >= 4, and
# it plants at least three markers
SEQ_MINIMUM = {"majority": (5, 3), "markov": (4, 1)}


def synth_sequences(n: int, vocab: int = 16, length: int = 16, seed: int = 0,
                    kind: str = "majority") -> Dataset:
    """Token-sequence corpora with analytically known structure.

    ``majority``: filler tokens plus planted markers; the label is which
    marker occurs more often (counts always differ, so the rule is exact).
    ``markov``: a two-state chain (stay probability 0.9) emitting tokens from
    two disjoint halves of the vocabulary; targets are the next token.
    """
    if kind not in SEQ_MINIMUM:
        raise ValueError(f"unknown sequence corpus kind {kind!r}")
    for what, value, low in zip(("vocab", "length"), (vocab, length), SEQ_MINIMUM[kind]):
        if value < low:
            raise ValueError(f"{kind} corpus: {what} must be >= {low}, got {value}")
    rng = np.random.default_rng(seed)
    if kind == "majority":
        seqs = rng.integers(4, vocab, size=(n, length))
        labels = rng.integers(0, 2, size=n)
        n_marks = max(3, length // 3) | 1          # odd count: no ties
        for i in range(n):
            pos = rng.choice(length, size=n_marks, replace=False)
            major = MARKER_A if labels[i] else MARKER_B
            minor = MARKER_B if labels[i] else MARKER_A
            k = n_marks // 2 + 1
            seqs[i, pos[:k]] = major
            seqs[i, pos[k:]] = minor
        return Dataset(seqs.astype(np.int64), labels.astype(np.int64))
    stay = 0.9
    half = vocab // 2
    states = np.empty((n, length + 1), dtype=np.int64)
    states[:, 0] = rng.integers(0, 2, size=n)
    flips = rng.random(size=(n, length)) > stay
    for t in range(length):
        states[:, t + 1] = np.where(flips[:, t], 1 - states[:, t], states[:, t])
    # emit uniformly from the state's half of the vocabulary
    offsets = rng.integers(0, half, size=(n, length + 1))
    tokens = states * half + offsets
    return Dataset(tokens[:, :-1], tokens[:, 1:])


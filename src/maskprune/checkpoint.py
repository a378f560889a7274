"""Checkpoints: a flat little-endian float64 archive plus a JSON manifest.

The manifest carries the tensor directory (name, shape, offset in elements),
the archive's sha256, gate metadata, and whatever run metadata the caller
supplies; the archive is the concatenation of the tensors in manifest order.
The archive is written first, so a save cut short between the two files
leaves a new archive under the old manifest; loading refuses it by the
digest, verifies sizes and returns exact bit-for-bit copies.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

CHECKPOINT_SCHEMA_VERSION = 2        # 2: the manifest records archive_sha256
MANIFEST_NAME = "manifest.json"
ARCHIVE_NAME = "tensors.bin"


def save_checkpoint(dirpath: str, arrays: dict[str, np.ndarray], gates=(),
                    meta: dict | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    offset = 0
    names = sorted(arrays)
    for name in names:
        arr = np.asarray(arrays[name], dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "count": int(arr.size)})
        offset += arr.size
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "dtype": "<f8",
        "total_elements": offset,
        "tensors": entries,
        "gates": [{"name": g.name, "threshold": g.threshold, "beta": g.beta,
                   "granularity": g.granularity, "dim": g.dim} for g in gates],
        "meta": meta or {},
    }
    digest = hashlib.sha256()
    with open(os.path.join(dirpath, ARCHIVE_NAME), "wb") as fh:
        for name in names:
            chunk = np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
            digest.update(chunk)
            fh.write(chunk)
    manifest["archive_sha256"] = digest.hexdigest()
    with open(os.path.join(dirpath, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_checkpoint(dirpath: str) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (arrays, manifest); raises on missing or corrupt files."""
    man_path = os.path.join(dirpath, MANIFEST_NAME)
    bin_path = os.path.join(dirpath, ARCHIVE_NAME)
    if not os.path.exists(man_path) or not os.path.exists(bin_path):
        raise FileNotFoundError(f"{dirpath} is not a checkpoint directory")
    with open(man_path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema "
                         f"{manifest.get('schema_version')!r}")
    with open(bin_path, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != manifest["archive_sha256"]:
        raise ValueError("corrupt checkpoint: the archive's sha256 does not match "
                         "the manifest (a save cut short, or a modified file)")
    flat = np.frombuffer(raw, dtype="<f8")
    if flat.size != manifest["total_elements"]:
        raise ValueError(f"corrupt checkpoint: archive holds {flat.size} elements, "
                         f"manifest says {manifest['total_elements']}")
    arrays = {}
    for entry in manifest["tensors"]:
        lo = entry["offset"]
        arr = flat[lo:lo + entry["count"]].reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64)
    return arrays, manifest

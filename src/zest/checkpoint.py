"""Atomic file writes, JSON artifacts and deterministic model checkpoints.

Every writer here writes a temp file beside its target and moves it into
place, so a crash never leaves a half-written file.

Checkpoint layout: 8-byte magic, uint32 format version, uint64 manifest
length, manifest JSON (UTF-8, sorted keys), then a payload of little-endian
IEEE-754 float32 values. The manifest lists (name, shape, offset) per
tensor plus an echo of the model config, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"ZSTCKPT\x01"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb",
                 newline: str | None = None):
    """Yield a file open on a temp file beside `path`; move it into place
    when the block ends without an error, and delete it otherwise.
    `newline` is passed to `open` (text modes only)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path: str | Path, payload: dict | list) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")


def read_json(path: str | Path) -> dict | list:
    with open(path) as fh:
        return json.load(fh)


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config: dict) -> None:
    names = sorted(tensors)
    entries = []
    offset = 0
    payload = bytearray()
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        raw = arr.tobytes()
        payload.extend(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "tensors": entries,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (manifest_len,) = struct.unpack("<Q", fh.read(8))
        manifest = json.loads(fh.read(manifest_len))
        payload = fh.read()
    tensors = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        tensors[entry["name"]] = arr.reshape(shape).copy()
    return tensors, manifest["config"]

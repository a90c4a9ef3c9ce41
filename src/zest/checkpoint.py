"""Atomic file writes, JSON artifacts, npz array files and deterministic
model checkpoints.

Every writer here writes a temp file beside its target and moves it into
place, so a crash never leaves a half-written file.

A JSON artifact holds JSON-native values only: a numpy value in its
payload is a `TypeError`, and the old file stays.

Every array file of a run is an npz archive written by `save_arrays`: it
loads without pickle, and identical arrays give identical bytes. A
checkpoint is one too: one float32 array per tensor, in sorted name order,
then the model config as a JSON string under the reserved key `CONFIG_KEY`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CONFIG_KEY = "__config__"


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb",
                 newline: str | None = None):
    """Yield a file open on a temp file beside `path`, making its directory;
    move it into place when the block ends without an error, and delete it
    otherwise. `newline` is passed to `open` (text modes only)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, payload: dict | list) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> dict | list:
    with open(path) as fh:
        return json.load(fh)


def save_arrays(path: str | Path, **arrays: np.ndarray) -> None:
    """The arrays as one npz archive, in argument order."""
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config: dict) -> None:
    arrays = {name: np.ascontiguousarray(tensors[name], dtype="<f4")
              for name in sorted(tensors)}
    arrays[CONFIG_KEY] = np.array(json.dumps(config, sort_keys=True))
    save_arrays(path, **arrays)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    tensors = load_arrays(path)
    return tensors, json.loads(str(tensors.pop(CONFIG_KEY)))

"""Latents and attribute vectors from a trained SANE encoder.

`extract_latents` runs the encoder once over a (P, n, f) tensor and returns
both latent taps of every sequence: l (width M) and lambda (width N); the
classifier head's logits are not used. A device's attribute vector is the
mean of its lambda latents.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .sane import SaneModel


def extract_latents(model: SaneModel, x: np.ndarray,
                    batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """(l, lambda), one row per sequence of `x`, in input order."""
    if len(x) == 0:
        raise ValueError("no sequences to encode")
    out = model.predict_arrays(x, batch_size=batch_size)
    return out["l"], out["lam"]


def compute_attributes(lam: np.ndarray,
                       device_ids) -> dict[str, np.ndarray]:
    """Mean of each device's rows of `lam`; `device_ids` names the device
    of each row."""
    if len(lam) == 0:
        raise ValueError("no latents to average")
    device_ids = np.asarray(device_ids)
    return {str(dev): lam[device_ids == dev].mean(axis=0)
            for dev in np.unique(device_ids)}


def save_attributes_csv(attrs: dict[str, np.ndarray],
                        path: str | Path) -> None:
    devices = sorted(attrs)
    dim = attrs[devices[0]].shape[0]
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["device_id"] + [f"a_{i}" for i in range(dim)])
        for dev in devices:
            writer.writerow([dev] + [f"{v:.8f}" for v in attrs[dev]])


def load_attributes_csv(path: str | Path) -> dict[str, np.ndarray]:
    attrs: dict[str, np.ndarray] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            attrs[row[0]] = np.asarray([float(v) for v in row[1:]],
                                       dtype=np.float32)
    return attrs

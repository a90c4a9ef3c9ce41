"""Latents and attribute vectors from a trained SANE encoder.

`extract_latents` runs the encoder once over a (P, n, f) tensor and returns
both latent taps of every sequence: l (width M) and lambda (width N); the
classifier head's logits are not used. A class's attribute vector is the
mean of its lambda latents, and the attributes of all classes are one
(num_classes, N) array indexed by class label.
"""

from __future__ import annotations

import numpy as np

from .sane import SaneModel


def extract_latents(model: SaneModel, x: np.ndarray,
                    batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """(l, lambda), one row per sequence of `x`, in input order."""
    if len(x) == 0:
        raise ValueError("no sequences to encode")
    out = model.predict_arrays(x, batch_size=batch_size)
    return out["l"], out["lam"]


def compute_attributes(lam: np.ndarray, labels: np.ndarray,
                       num_classes: int) -> np.ndarray:
    """(num_classes, N): row c is the mean of the rows of `lam` whose label
    is c. Every class needs at least one row."""
    if len(lam) == 0:
        raise ValueError("no latents to average")
    labels = np.asarray(labels)
    empty = np.flatnonzero(np.bincount(labels, minlength=num_classes) == 0)
    if len(empty):
        raise ValueError(f"no latents of classes {empty.tolist()}")
    return np.stack([lam[labels == c].mean(axis=0)
                     for c in range(num_classes)])

"""Comparison pipelines over the shared attention-extracted features:
VAE-K (VAE compression to the attribute width + k-means), SeqCR (k-means on
the narrow latents), SeqCS (k-means seeded with attribute vectors), and DEFT
(random forest on SeqCS cluster labels). Includes Lloyd k-means and optimal
cluster-to-label accuracy scoring.

Every pipeline is called as `(fit_x, fit_y, tests, attrs, seed)` and makes
one cluster per row of `attrs`, the (num_classes, N) class attributes. It
fits its model (k-means, plus the VAE or the forest) once on the fit rows,
then scores every evaluation setting's test split against it: `tests` maps
a setting name to that split's (features, labels), and the result maps it
to one `EvalReport`. The fit never sees test rows, so the ZSL and GZSL
reports come from one and the same model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .classifier import EvalReport, build_report
from .cvae import CvaeConfig, train_cvae
from .forest import RandomForest

logger = logging.getLogger("zest.baselines")


class BaselineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

@dataclass
class ClusterResult:
    assignments: np.ndarray
    centers: np.ndarray
    inertia: float
    inertia_history: list[float] = field(default_factory=list)
    n_iter: int = 0

    def assign(self, points: np.ndarray) -> np.ndarray:
        d = ((np.asarray(points, dtype=np.float64)[:, None, :]
              - self.centers[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)


def kmeans(points: np.ndarray, k: int, init: np.ndarray | None = None,
           max_iter: int = 100, seed: int = 0) -> ClusterResult:
    """Lloyd iterations to an assignment fixpoint from the centers `init`,
    or from k points drawn by `seed` when it is None. Empty clusters are
    re-seeded at the point farthest from its current center."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if k > n:
        raise BaselineError(f"k={k} exceeds number of points {n}")
    if init is None:
        rng = np.random.default_rng(seed)
        centers = x[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = np.asarray(init, dtype=np.float64).copy()
        if centers.shape != (k, x.shape[1]):
            raise BaselineError(
                f"seeded init shape {centers.shape} != ({k}, {x.shape[1]})")

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignments = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), new_assignments].sum())
        history.append(inertia)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        for c in range(k):
            mask = assignments == c
            if mask.any():
                centers[c] = x[mask].mean(axis=0)
            else:
                # farthest point from its own center becomes the new seed
                per_point = dists[np.arange(n), assignments]
                centers[c] = x[int(per_point.argmax())]
    return ClusterResult(assignments=assignments, centers=centers,
                         inertia=history[-1], inertia_history=history,
                         n_iter=len(history))


# ---------------------------------------------------------------------------
# cluster accuracy (optimal one-to-one mapping)
# ---------------------------------------------------------------------------

def cluster_label_mapping(assignments: np.ndarray, labels: np.ndarray,
                          k: int) -> np.ndarray:
    """Optimal one-to-one cluster -> label mapping maximizing matched count
    (Hungarian assignment on the contingency matrix)."""
    assignments = np.asarray(assignments, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if assignments.shape != labels.shape:
        raise BaselineError(
            f"length mismatch: {assignments.shape} vs {labels.shape}")
    contingency = np.zeros((k, k), dtype=np.int64)
    np.add.at(contingency, (assignments, labels), 1)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    mapping = np.full(k, -1, dtype=np.int64)
    mapping[rows] = cols
    return mapping


def cluster_accuracy(assignments: np.ndarray, labels: np.ndarray,
                     k: int) -> float:
    """Accuracy under the optimal cluster <-> label mapping."""
    labels = np.asarray(labels, dtype=np.int64)
    mapping = cluster_label_mapping(assignments, labels, k)
    mapped = mapping[np.asarray(assignments, dtype=np.int64)]
    return float((mapped == labels).mean())


# ---------------------------------------------------------------------------
# baseline pipelines
# ---------------------------------------------------------------------------

# evaluation setting -> its test split's (features, labels)
Tests = dict[str, tuple[np.ndarray, np.ndarray]]


def _test_report(setting: str, test_labels: np.ndarray, test_pred: np.ndarray,
                 extra: dict) -> EvalReport:
    return build_report(setting, test_labels, test_pred,
                        sorted(set(int(v) for v in test_labels)),
                        extra=dict(extra))


def _clustering_reports(cluster: ClusterResult, train_labels: np.ndarray,
                        tests: Tests, pipeline: str,
                        seed: int) -> dict[str, EvalReport]:
    """Map clusters to labels on the training data, then score each
    setting's held-out test points routed through nearest centers and the
    same mapping."""
    k = len(cluster.centers)
    mapping = cluster_label_mapping(cluster.assignments, train_labels, k)
    extra = {"pipeline": pipeline, "seed": seed,
             "train_accuracy": cluster_accuracy(cluster.assignments,
                                                train_labels, k)}
    return {setting: _test_report(setting, test_labels,
                                  mapping[cluster.assign(test_points)], extra)
            for setting, (test_points, test_labels) in tests.items()}


def seqcr(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int) -> dict[str, EvalReport]:
    """k-means with random centers on the narrow latents."""
    cluster = kmeans(train_lam, k=len(attrs), seed=seed)
    return _clustering_reports(cluster, train_labels, tests, "seqcr", seed)


def seqcs(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int) -> dict[str, EvalReport]:
    """Seeded k-means: initial centers are the attribute vectors of all
    devices."""
    cluster = kmeans(train_lam, k=len(attrs), init=attrs, seed=seed)
    return _clustering_reports(cluster, train_labels, tests, "seqcs", seed)


def deft(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
         attrs: np.ndarray, seed: int) -> dict[str, EvalReport]:
    """Seeded clustering followed by a random forest trained on the cluster
    labels; test predictions route through the clustering's label mapping."""
    cluster = kmeans(train_lam, k=len(attrs), init=attrs, seed=seed)
    mapping = cluster_label_mapping(cluster.assignments, train_labels,
                                    len(attrs))
    forest = RandomForest(seed=seed).fit(train_lam, cluster.assignments)
    extra = {"pipeline": "deft", "seed": seed}
    return {setting: _test_report(setting, test_labels,
                                  mapping[forest.predict(test_lam)], extra)
            for setting, (test_lam, test_labels) in tests.items()}


def vae_k(train_l: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int,
          epochs: int = 100) -> dict[str, EvalReport]:
    """A plain VAE, the CVAE given zero-width attributes, compresses the
    wide latents to the attribute width N (the columns of `attrs`, whose
    values seed nothing here), then random-init k-means clusters the
    compressed features. `epochs=0` keeps the initial, untrained
    compression."""
    config = CvaeConfig(input_dim=train_l.shape[1], cond_dim=0,
                        z_dim=attrs.shape[1], epochs=epochs, seed=seed)
    model, _ = train_cvae(train_l, np.empty((len(train_l), 0)), config)

    def encode(x: np.ndarray) -> np.ndarray:
        return model.encode_arrays(x, np.empty((len(x), 0)))[0]

    cluster = kmeans(encode(train_l), k=len(attrs), seed=seed)
    encoded = {setting: (encode(test_l), test_labels)
               for setting, (test_l, test_labels) in tests.items()}
    return _clustering_reports(cluster, train_labels, encoded, "vae_k", seed)

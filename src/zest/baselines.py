"""Comparison pipelines over the shared attention-extracted features:
VAE-K (VAE compression to the attribute width + k-means), SeqCR (k-means on
the narrow latents), SeqCS (k-means seeded with attribute vectors), and DEFT
(random forest on SeqCS cluster labels). Includes Lloyd k-means and the
optimal one-to-one cluster-to-label mapping that scores a clustering, solved
in-module so that the package needs numpy alone.

Every pipeline is called as `(fit_x, fit_y, tests, attrs, seed)` and makes
one cluster per row of `attrs`, the (num_classes, N) class attributes. It
fits its model (k-means, plus the VAE or the forest) once on the fit rows,
then predicts every evaluation setting's test split with it: `tests` maps a
setting name to that split's features, and the pipeline returns
`({setting: predicted labels}, extra)`, where `extra` describes the fit. A
pipeline sees no test label; the caller scores the predictions, so the ZSL
and GZSL reports come from one and the same model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cvae import CvaeConfig, train_cvae
from .forest import RandomForest

logger = logging.getLogger("zest.baselines")
# most Lloyd iterations of one k-means run
MAX_ITER = 100


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
           seed: int = 0) -> ClusterResult:
    """At most MAX_ITER Lloyd iterations to an assignment fixpoint from the
    centers `init`, or from k points drawn by `seed` when it is None. Empty
    clusters are re-seeded at the point farthest from its current center."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if init is None:
        rng = np.random.default_rng(seed)
        centers = x[rng.choice(n, size=k, replace=False)].copy()
    else:
        centers = np.asarray(init, dtype=np.float64).copy()
        if centers.shape != (k, x.shape[1]):
            raise ValueError(
                f"seeded init shape {centers.shape} != ({k}, {x.shape[1]})")

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(MAX_ITER):
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
# optimal one-to-one cluster -> label mapping
# ---------------------------------------------------------------------------

def _max_assignment(gain: np.ndarray) -> list[int]:
    """The column assigned to each row of a square matrix so that the summed
    gain is largest. A port of scipy's `linear_sum_assignment` for the
    square case (Crouse's shortest augmenting path, IEEE TAES 2016): float64
    costs are the negated gains, and the scan order, tie rule, dual updates
    and augmentation are scipy's, so ties resolve to the same columns."""
    cost = (-np.asarray(gain, dtype=np.float64)).tolist()
    k = len(cost)
    u, v = [0.0] * k, [0.0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur_row in range(k):
        # reverse order makes a constant matrix solve to the identity
        remaining = list(range(k - 1, -1, -1))
        shortest = [np.inf] * k
        visited_rows, visited_cols = set(), set()
        i, min_val, sink = cur_row, 0.0, -1
        while sink == -1:
            index, lowest = -1, np.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                # at equal cost, a free column ends the path
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                visited_rows.add(i)
            visited_cols.add(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for r in visited_rows:
            u[r] += min_val - shortest[col4row[r]]
        for c in visited_cols:
            v[c] -= min_val - shortest[c]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def cluster_label_mapping(assignments: np.ndarray, labels: np.ndarray,
                          k: int) -> np.ndarray:
    """The one-to-one cluster -> label mapping that matches the most points:
    `mapping[c]` is cluster c's label, from a maximum-weight assignment on
    the (k, k) cluster-by-label contingency table. A cluster with no points
    still gets the label no other cluster took."""
    assignments = np.asarray(assignments, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if assignments.shape != labels.shape:
        raise ValueError(
            f"length mismatch: {assignments.shape} vs {labels.shape}")
    contingency = np.zeros((k, k), dtype=np.int64)
    np.add.at(contingency, (assignments, labels), 1)
    return np.array(_max_assignment(contingency), dtype=np.int64)


# ---------------------------------------------------------------------------
# baseline pipelines
# ---------------------------------------------------------------------------

# evaluation setting -> its test split's features
Tests = dict[str, np.ndarray]
# ({setting: predicted labels}, what the fit reports of itself)
Predictions = tuple[dict[str, np.ndarray], dict]


def _clustering_predictions(cluster: ClusterResult, train_labels: np.ndarray,
                            tests: Tests, pipeline: str) -> Predictions:
    """Map clusters to labels on the training data, then route each
    setting's held-out test points through nearest centers and the same
    mapping."""
    k = len(cluster.centers)
    mapping = cluster_label_mapping(cluster.assignments, train_labels, k)
    train_accuracy = float((mapping[cluster.assignments]
                            == train_labels).mean())
    return ({setting: mapping[cluster.assign(points)]
             for setting, points in tests.items()},
            {"pipeline": pipeline, "train_accuracy": train_accuracy})


def seqcr(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int) -> Predictions:
    """k-means with random centers on the narrow latents."""
    cluster = kmeans(train_lam, k=len(attrs), seed=seed)
    return _clustering_predictions(cluster, train_labels, tests, "seqcr")


def seqcs(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int) -> Predictions:
    """Seeded k-means: initial centers are the attribute vectors of all
    devices."""
    cluster = kmeans(train_lam, k=len(attrs), init=attrs, seed=seed)
    return _clustering_predictions(cluster, train_labels, tests, "seqcs")


def deft(train_lam: np.ndarray, train_labels: np.ndarray, tests: Tests,
         attrs: np.ndarray, seed: int) -> Predictions:
    """Seeded clustering followed by a random forest trained on the cluster
    labels; test predictions route through the clustering's label mapping."""
    cluster = kmeans(train_lam, k=len(attrs), init=attrs, seed=seed)
    mapping = cluster_label_mapping(cluster.assignments, train_labels,
                                    len(attrs))
    forest = RandomForest(seed=seed).fit(train_lam, cluster.assignments)
    return ({setting: mapping[forest.predict(test_lam)]
             for setting, test_lam in tests.items()}, {"pipeline": "deft"})


def vae_k(train_l: np.ndarray, train_labels: np.ndarray, tests: Tests,
          attrs: np.ndarray, seed: int, epochs: int = 100) -> Predictions:
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
    encoded = {setting: encode(test_l) for setting, test_l in tests.items()}
    return _clustering_predictions(cluster, train_labels, encoded, "vae_k")

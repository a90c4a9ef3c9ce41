"""Random forest of Gini decision trees, as DEFT uses it: each tree grows on
a bootstrap sample and each split weighs sqrt(d) randomly drawn features.
The trees are stored as flat node arrays.

Every node of every tree is one index into `feature`, `threshold`, `left`,
`right` and `label`; `roots` holds each tree's root. A leaf has feature -1
and is its own left and right child, so `max_depth` branch steps from the
roots, taken for all rows and trees at once, end on every row's leaves.
Prediction is a majority vote over trees, ties going to the lowest label;
with a single tree it is that tree's output.
"""

from __future__ import annotations

import numpy as np


def _gini_best_split(x: np.ndarray, y: np.ndarray, features: np.ndarray,
                     num_classes: int) -> tuple[int, float, float]:
    """Best (feature, threshold) by weighted Gini over candidate features;
    returns (-1, 0, inf) when no split separates anything."""
    best_feature, best_threshold, best_gini = -1, 0.0, np.inf
    n = y.shape[0]
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        # cumulative class counts for every prefix
        onehot = np.zeros((n, num_classes))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        total = left_counts[-1]
        # split between consecutive distinct values
        distinct = np.flatnonzero(xs[1:] > xs[:-1])
        if distinct.size == 0:
            continue
        nl = (distinct + 1).astype(np.float64)
        nr = n - nl
        lc = left_counts[distinct]
        rc = total - lc
        gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        gini = (nl * gini_l + nr * gini_r) / n
        i = int(gini.argmin())
        if gini[i] < best_gini:
            best_gini = float(gini[i])
            best_feature = int(f)
            best_threshold = float((xs[distinct[i]] + xs[distinct[i] + 1]) / 2.0)
    return best_feature, best_threshold, best_gini


class RandomForest:
    def __init__(self, n_trees: int = 50, max_depth: int = 10,
                 seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.num_classes = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.num_classes = int(y.max()) + 1
        nodes: list[list] = []
        roots = []
        for t in range(self.n_trees):
            rng = np.random.default_rng([self.seed, t])
            idx = rng.integers(0, x.shape[0], size=x.shape[0])
            roots.append(self._build(nodes, x[idx], y[idx], depth=0,
                                     rng=np.random.default_rng([self.seed, t,
                                                                1])))
        feature, threshold, left, right, label = zip(*nodes)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.label = np.asarray(label, dtype=np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        return self

    def _build(self, nodes: list[list], x: np.ndarray, y: np.ndarray,
               depth: int, rng: np.random.Generator) -> int:
        """Append the tree for (x, y) to `nodes` in pre-order, as
        [feature, threshold, left, right, label] rows; returns its root."""
        counts = np.bincount(y, minlength=self.num_classes)
        node = len(nodes)
        nodes.append([-1, 0.0, node, node, int(counts.argmax())])
        if depth >= self.max_depth or counts.max() == y.size or y.size < 2:
            return node
        dim = x.shape[1]
        m = max(1, int(np.sqrt(dim)))
        features = rng.choice(dim, size=m, replace=False)
        feature, threshold, gini = _gini_best_split(x, y, features,
                                                    self.num_classes)
        if feature < 0:
            return node
        mask = x[:, feature] <= threshold
        if not mask.any() or mask.all():
            return node
        left = self._build(nodes, x[mask], y[mask], depth + 1, rng)
        right = self._build(nodes, x[~mask], y[~mask], depth + 1, rng)
        nodes[node][:4] = [feature, threshold, left, right]
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        rows = np.arange(x.shape[0])[:, None]
        node = np.broadcast_to(self.roots, (x.shape[0], self.roots.size))
        for _ in range(self.max_depth):
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        votes = (self.label[node][:, :, None]
                 == np.arange(self.num_classes)).sum(axis=1)
        return votes.argmax(axis=1)

"""Random forest of Gini decision trees with bootstrap sampling and sqrt(d)
feature subsampling per split. Prediction is majority vote over trees; with a
single tree and bootstrap disabled it reduces to that tree's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    label: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


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


class DecisionTree:
    def __init__(self, max_depth: int = 10, feature_subsample: bool = True,
                 seed: int = 0):
        self.max_depth = max_depth
        self.feature_subsample = feature_subsample
        self.seed = seed
        self.root: _Node | None = None
        self.num_classes = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.num_classes = int(y.max()) + 1
        rng = np.random.default_rng(self.seed)
        self.root = self._build(x, y, depth=0, rng=rng)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int,
               rng: np.random.Generator) -> _Node:
        counts = np.bincount(y, minlength=self.num_classes)
        majority = int(counts.argmax())
        if depth >= self.max_depth or counts.max() == y.size or y.size < 2:
            return _Node(label=majority)
        dim = x.shape[1]
        if self.feature_subsample:
            m = max(1, int(np.sqrt(dim)))
            features = rng.choice(dim, size=m, replace=False)
        else:
            features = np.arange(dim)
        feature, threshold, gini = _gini_best_split(x, y, features,
                                                    self.num_classes)
        if feature < 0:
            return _Node(label=majority)
        mask = x[:, feature] <= threshold
        if not mask.any() or mask.all():
            return _Node(label=majority)
        return _Node(feature=feature, threshold=threshold,
                     left=self._build(x[mask], y[mask], depth + 1, rng),
                     right=self._build(x[~mask], y[~mask], depth + 1, rng),
                     label=majority)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0], dtype=np.int64)
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.label
        return out


class RandomForest:
    def __init__(self, n_trees: int = 50, max_depth: int = 10,
                 bootstrap: bool = True, feature_subsample: bool = True,
                 seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.bootstrap = bootstrap
        self.feature_subsample = feature_subsample
        self.seed = seed
        self.trees: list[DecisionTree] = []
        self.num_classes = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.num_classes = int(y.max()) + 1
        self.trees = []
        for t in range(self.n_trees):
            rng = np.random.default_rng([self.seed, t])
            if self.bootstrap:
                idx = rng.integers(0, x.shape[0], size=x.shape[0])
            else:
                idx = np.arange(x.shape[0])
            tree = DecisionTree(max_depth=self.max_depth,
                                feature_subsample=self.feature_subsample)
            tree.num_classes = self.num_classes
            tree.root = tree._build(x[idx], y[idx], depth=0,
                                    rng=np.random.default_rng([self.seed, t, 1]))
            self.trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        votes = np.stack([tree.predict(x) for tree in self.trees])
        out = np.empty(votes.shape[1], dtype=np.int64)
        for i in range(votes.shape[1]):
            out[i] = int(np.bincount(votes[:, i],
                                     minlength=self.num_classes).argmax())
        return out

"""Final supervised classifier and the ZSL/GZSL evaluation protocols.

A linear one-vs-rest SVM is trained on pseudo latents by subgradient descent
on the L2-regularized hinge objective, with the weights of all classes in one
(classes, dim) matrix updated together, stored as an npz archive of its
classes, weights and biases, and evaluated on real latents extracted from
held-out test traffic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_arrays, save_arrays

logger = logging.getLogger("zest.classifier")


@dataclass
class SvmConfig:
    c_reg: float = 1.0
    epochs: int = 300
    lr: float = 1.0

    def __post_init__(self):
        if not self.c_reg > 0:
            raise ValueError(f"c_reg must be > 0, got {self.c_reg}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class SvmModel:
    """Per-class weights/biases of a linear one-vs-rest SVM over one class
    or more; with one class, every input is predicted as that class."""

    classes: list[int]
    weights: np.ndarray      # (num_classes, dim)
    biases: np.ndarray       # (num_classes,)

    def save(self, path: str | Path) -> None:
        save_arrays(path, classes=np.asarray(self.classes, dtype=np.int64),
                    weights=self.weights, biases=self.biases)

    @classmethod
    def load(cls, path: str | Path) -> "SvmModel":
        arrays = load_arrays(path)
        return cls(classes=arrays["classes"].tolist(),
                   weights=arrays["weights"], biases=arrays["biases"])


def hinge_objective(w: np.ndarray, margins: np.ndarray,
                    c_reg: float) -> np.ndarray:
    """Per class c: 0.5*||w_c||^2 + C * mean(max(0, margins_c)), for weights
    w (classes, dim) and margins (n, classes), 1 - y_c*(w_c.x + b_c) with
    signed targets y_c."""
    hinge = np.maximum(0.0, margins).mean(axis=0)
    return 0.5 * (w * w).sum(axis=1) + c_reg * hinge


def train_svm(x: np.ndarray, y: np.ndarray, config: SvmConfig) -> SvmModel:
    """One-vs-rest linear SVM on a balanced labeled set of one class or
    more, every class fitted at once by full-batch subgradient descent with
    1/t decay from zero weights. Each class keeps the iterate with its
    lowest objective (subgradient descent is not monotone). Each iterate's
    margins give both its objective and the next subgradient. Raises when
    there are no rows."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not len(y):
        raise ValueError("no rows to fit the SVM on")
    classes = sorted(set(int(v) for v in y))
    y_signed = np.where(y[:, None] == np.asarray(classes), 1.0, -1.0)
    n = x.shape[0]
    w = np.zeros((len(classes), x.shape[1]))
    b = np.zeros(len(classes))
    margins = 1.0 - y_signed * (x @ w.T + b)
    best_obj = hinge_objective(w, margins, config.c_reg)
    best_w, best_b = w.copy(), b.copy()
    for t in range(1, config.epochs + 1):
        active = np.where(margins > 0, y_signed, 0.0)
        grad_w = w - config.c_reg * (active.T @ x) / n
        grad_b = -config.c_reg * active.sum(axis=0) / n
        step = config.lr / t
        w = w - step * grad_w
        b = b - step * grad_b
        margins = 1.0 - y_signed * (x @ w.T + b)
        obj = hinge_objective(w, margins, config.c_reg)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_w[better], best_b[better] = w[better], b[better]
    return SvmModel(classes=classes, weights=best_w, biases=best_b)


def predict(model: SvmModel, latents: np.ndarray) -> np.ndarray:
    """Argmax over class scores; ties break to the lowest class index."""
    scores = (np.asarray(latents, dtype=np.float64) @ model.weights.T
              + model.biases)
    return np.asarray(model.classes, dtype=np.int64)[scores.argmax(axis=1)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Accuracy summary for one evaluation run."""

    setting: str                       # "zsl" | "gzsl" | "supervised"
    accuracy: float
    class_labels: list[int]
    per_class_accuracy: dict[int, float]
    confusion: np.ndarray              # true x predicted over class_labels
    num_test: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "accuracy": self.accuracy,
            "class_labels": self.class_labels,
            "per_class_accuracy": {str(k): v for k, v in
                                   self.per_class_accuracy.items()},
            "confusion": self.confusion.tolist(),
            "num_test": self.num_test,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(setting=d["setting"], accuracy=d["accuracy"],
                   class_labels=list(d["class_labels"]),
                   per_class_accuracy={int(k): v for k, v in
                                       d["per_class_accuracy"].items()},
                   confusion=np.asarray(d["confusion"], dtype=np.int64),
                   num_test=d["num_test"], extra=d.get("extra", {}))

    def format_table(self) -> str:
        lines = [f"setting: {self.setting}",
                 f"accuracy: {self.accuracy:.4f}  (n={self.num_test})",
                 "per-class accuracy:"]
        for label in self.class_labels:
            if label in self.per_class_accuracy:
                lines.append(f"  class {label}: "
                             f"{self.per_class_accuracy[label]:.4f}")
        return "\n".join(lines)


def build_report(setting: str, y_true: np.ndarray, y_pred: np.ndarray,
                 class_labels: list[int], extra: dict | None = None) -> EvalReport:
    """Confusion over class_labels; predictions outside the set count as a
    dedicated overflow column so row sums equal per-class test counts."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    labels = np.asarray(class_labels, dtype=np.int64)
    k = len(labels)
    row_hit = y_true[:, None] == labels
    if not row_hit.any(axis=1).all():
        raise ValueError(f"true labels outside {list(class_labels)}")
    col_hit = y_pred[:, None] == labels
    cols = np.where(col_hit.any(axis=1), col_hit.argmax(axis=1), k)
    confusion = np.zeros((k, k + int((cols == k).any())), dtype=np.int64)
    np.add.at(confusion, (row_hit.argmax(axis=1), cols), 1)
    per_class = {}
    for c in class_labels:
        mask = y_true == c
        if mask.any():
            per_class[c] = float((y_pred[mask] == c).mean())
    accuracy = float((y_true == y_pred).mean())
    return EvalReport(setting=setting, accuracy=accuracy,
                      class_labels=list(class_labels),
                      per_class_accuracy=per_class, confusion=confusion,
                      num_test=len(y_true), extra=extra or {})


def evaluate(setting: str, model: SvmModel, test_latents: np.ndarray,
             test_labels: np.ndarray, extra: dict | None = None) -> EvalReport:
    """Score a trained classifier on real test latents.

    ZSL: the model's label set is the unseen classes and test latents must
    come from unseen devices only. GZSL: label set is seen + unseen.
    """
    if setting not in ("zsl", "gzsl"):
        raise ValueError(f"unknown setting {setting!r}")
    test_labels = np.asarray(test_labels, dtype=np.int64)
    declared = set(model.classes)
    stray = set(int(v) for v in test_labels) - declared
    if stray:
        raise ValueError(
            f"test latents contain labels {sorted(stray)} outside the "
            f"declared label set {sorted(declared)}")
    y_pred = predict(model, test_latents)
    return build_report(setting, test_labels, y_pred, list(model.classes),
                        extra=extra)

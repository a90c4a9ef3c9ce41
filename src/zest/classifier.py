"""Final supervised classifier and the one report builder.

A linear one-vs-rest SVM is trained on pseudo latents by subgradient descent
on the L2-regularized hinge objective, with the weights of all classes in one
(classes, dim) matrix updated together. A fitted SVM is a plain dict of its
int64 `classes`, (classes, dim) `weights` and (classes,) `biases`, the very
dict that `save_arrays` writes and `load_arrays` reads back. `evaluate`
builds every report, ZEST's and each baseline's: one setting's true and
predicted labels scored over the classes the setting covers. A report is
a plain dict of JSON values, the very dict that `write_json` writes and
`read_json` reads back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .params import check_fields

logger = logging.getLogger("zest.classifier")


@dataclass
class SvmConfig:
    c_reg: float = 1.0
    epochs: int = 300
    lr: float = 1.0

    def __post_init__(self):
        check_fields(self, {"epochs": ">= 0"})


def hinge_objective(w: np.ndarray, margins: np.ndarray, c_reg: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Per class c: 0.5*||w_c||^2 + C * mean(max(0, margins_c)), for weights
    w (classes, dim) and margins (n, classes), 1 - y_c*(w_c.x + b_c) with
    signed targets y_c; the hinge max(0, margins) is written into `out`
    when given."""
    hinge = np.maximum(0.0, margins, out=out).mean(axis=0)
    return 0.5 * (w * w).sum(axis=1) + c_reg * hinge


def train_svm(x: np.ndarray, y: np.ndarray, config: SvmConfig) -> dict:
    """One-vs-rest linear SVM on a balanced labeled set of one class or
    more, as {"classes", "weights", "biases"}, classes sorted; with one
    class, every input is predicted as that class. Every class is fitted at
    once by full-batch subgradient descent with 1/t decay from zero weights.
    Each class keeps the iterate with its lowest objective (subgradient
    descent is not monotone). Each iterate's margins give both its
    objective and the next subgradient. Raises when there are no rows."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not len(y):
        raise ValueError("no rows to fit the SVM on")
    classes = np.unique(y)
    y_signed = np.where(y[:, None] == classes, 1.0, -1.0)
    n = x.shape[0]
    w = np.zeros((len(classes), x.shape[1]))
    b = np.zeros(len(classes))
    # each epoch's (n, classes) margins, their hinge and the active mask,
    # written in place by the operations of their plain expressions
    margins, hinge, active = (np.empty(y_signed.shape) for _ in range(3))
    mask = np.empty(y_signed.shape, dtype=bool)

    def objective(w, b):
        np.add(np.matmul(x, w.T, out=margins), b, out=margins)
        np.subtract(1.0, np.multiply(y_signed, margins, out=margins),
                    out=margins)
        return hinge_objective(w, margins, config.c_reg, out=hinge)

    best_obj = objective(w, b)
    best_w, best_b = w.copy(), b.copy()
    for t in range(1, config.epochs + 1):
        # y_c where the margin is positive, else 0.0: adding 0.0 turns the
        # -0.0 of a masked -1 into the 0.0 that np.where gives
        np.multiply(y_signed, np.greater(margins, 0, out=mask), out=active)
        active += 0.0
        grad_w = w - config.c_reg * (active.T @ x) / n
        grad_b = -config.c_reg * active.sum(axis=0) / n
        step = config.lr / t
        w = w - step * grad_w
        b = b - step * grad_b
        obj = objective(w, b)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_w[better], best_b[better] = w[better], b[better]
    return {"classes": classes, "weights": best_w, "biases": best_b}


def predict(svm: dict, latents: np.ndarray) -> np.ndarray:
    """Argmax over class scores; ties break to the lowest class index."""
    scores = (np.asarray(latents, dtype=np.float64) @ svm["weights"].T
              + svm["biases"])
    return svm["classes"][scores.argmax(axis=1)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def format_report(report: dict) -> str:
    """The plain-text table of one report: its accuracy, then each class's."""
    per_class = report["per_class_accuracy"]
    lines = [f"setting: {report['setting']}",
             f"accuracy: {report['accuracy']:.4f}  (n={report['num_test']})",
             "per-class accuracy:"]
    lines += [f"  class {label}: {per_class[str(label)]:.4f}"
              for label in report["class_labels"] if str(label) in per_class]
    return "\n".join(lines)


def evaluate(setting: str, y_true: np.ndarray, y_pred: np.ndarray,
             class_labels: list[int], extra: dict | None = None) -> dict:
    """The report of one setting ("zsl" or "gzsl"): accuracy, per-class
    accuracy (keyed by label as a string) and the confusion (nested lists)
    over `class_labels`, which must hold every true label. Predictions
    outside the set count in a dedicated overflow column, so row sums equal
    per-class test counts."""
    if setting not in ("zsl", "gzsl"):
        raise ValueError(f"unknown setting {setting!r}")
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    labels = np.asarray(class_labels, dtype=np.int64)
    k = len(labels)
    row_hit = y_true[:, None] == labels
    if not row_hit.any(axis=1).all():
        raise ValueError(f"true labels outside {labels.tolist()}")
    col_hit = y_pred[:, None] == labels
    cols = np.where(col_hit.any(axis=1), col_hit.argmax(axis=1), k)
    confusion = np.zeros((k, k + int((cols == k).any())), dtype=np.int64)
    np.add.at(confusion, (row_hit.argmax(axis=1), cols), 1)
    # each class's hits over its support, for the classes with any
    per_class = {str(c): hits / support for c, hits, support in zip(
        labels.tolist(), confusion.diagonal().tolist(),
        confusion.sum(axis=1).tolist()) if support}
    return {"setting": setting,
            "accuracy": float((y_true == y_pred).mean()),
            "class_labels": labels.tolist(),
            "per_class_accuracy": per_class,
            "confusion": confusion.tolist(),
            "num_test": len(y_true), "extra": extra or {}}

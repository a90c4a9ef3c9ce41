"""Linear one-vs-rest SVM training, prediction rules, and evaluation
protocols."""

import itertools

import numpy as np
import pytest

from zest.checkpoint import load_arrays, read_json, save_arrays, write_json
from zest.classifier import (SvmConfig, evaluate, format_report,
                             hinge_objective, predict, train_svm)


def _blobs(centers, per_class=30, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(np.asarray(center) + spread * rng.normal(
            size=(per_class, len(center))))
        ys.extend([label] * per_class)
    return np.concatenate(xs), np.array(ys)


def _svm(epochs):
    """The step size the unit tests were tuned for, with C = 1."""
    return SvmConfig(c_reg=1.0, epochs=epochs, lr=0.01)


def test_separable_blobs_perfect_training_accuracy():
    x, y = _blobs([(-3.0, 0.0), (3.0, 0.0)])
    model = train_svm(x, y, _svm(200))
    assert (predict(model, x) == y).all()


def test_multiclass_blobs():
    x, y = _blobs([(-4, 0), (4, 0), (0, 4)], per_class=40)
    model = train_svm(x, y, _svm(300))
    assert (predict(model, x) == y).mean() >= 0.99
    assert model["classes"].tolist() == [0, 1, 2]
    assert model["weights"].shape == (3, 2)


def test_duplicated_data_same_decision_function():
    x, y = _blobs([(-2, 1), (2, -1)], per_class=25, seed=3)
    model_a = train_svm(x, y, _svm(150))
    model_b = train_svm(np.concatenate([x, x]), np.concatenate([y, y]),
                        _svm(150))
    gx, gy = np.meshgrid(np.linspace(-4, 4, 21), np.linspace(-4, 4, 21))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    np.testing.assert_array_equal(predict(model_a, grid),
                                  predict(model_b, grid))


def _margins(w, b, x, y_signed):
    """1 - y*(w.x + b) for each point (rows) and weight row (columns)."""
    return 1.0 - y_signed[:, None] * (x @ w.T + b)


def test_objective_within_two_percent_of_grid_optimum():
    # tiny 2-class problem in 2-d; dense grid search over (w, b) is the oracle
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(size=(10, 2)) * 0.4 + [1.5, 0.5],
                        rng.normal(size=(10, 2)) * 0.4 - [1.5, 0.5]])
    y_signed = np.array([1.0] * 10 + [-1.0] * 10)
    c_reg = 1.0

    # every grid point is one row of the weight matrix
    ws = np.linspace(-2.0, 2.0, 41)
    bs = np.linspace(-1.0, 1.0, 21)
    grid = np.array(list(itertools.product(ws, ws, bs)))
    best_grid = hinge_objective(
        grid[:, :2], _margins(grid[:, :2], grid[:, 2], x, y_signed), c_reg).min()

    # convergent schedule for the oracle comparison: the objective has unit
    # strong convexity, so lr/t with lr=1.0 is the textbook step size
    model = train_svm(x, (y_signed > 0).astype(int),
                      SvmConfig(c_reg=c_reg, epochs=1000, lr=1.0))
    row = model["classes"].tolist().index(1)
    w, b = model["weights"][row:row + 1], model["biases"][row:row + 1]
    ours = hinge_objective(w, _margins(w, b, x, y_signed), c_reg)[0]
    assert ours <= best_grid * 1.02


def test_single_class_fits_and_predicts_it():
    x = np.random.default_rng(4).normal(size=(6, 3))
    model = train_svm(x, np.full(6, 7), _svm(20))
    assert model["classes"].tolist() == [7]
    assert model["weights"].shape == (1, 3)
    assert model["biases"][0] > 0       # fitted: every margin pushes it up
    grid = np.random.default_rng(5).normal(size=(10, 3)) * 5
    assert predict(model, grid).tolist() == [7] * 10


def test_no_rows_fatal():
    with pytest.raises(ValueError, match="no rows"):
        train_svm(np.zeros((0, 3)), np.zeros(0, dtype=int), _svm(20))


@pytest.mark.parametrize("field, value", [("c_reg", 0.0), ("c_reg", -1.0),
                                          ("lr", 0), ("epochs", -1)])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SvmConfig(**{field: value})


def test_tie_breaks_to_lowest_class_index():
    model = {"classes": np.array([1, 3]), "weights": np.zeros((2, 2)),
             "biases": np.zeros(2)}
    # all scores are zero: tie between class 1 and class 3
    assert predict(model, np.ones((4, 2))).tolist() == [1, 1, 1, 1]


def test_prediction_invariant_to_positive_rescaling():
    x, y = _blobs([(-2, 0), (2, 0), (0, 2)], per_class=20, seed=7)
    model = train_svm(x, y, _svm(100))
    scaled = {"classes": model["classes"], "weights": 3.7 * model["weights"],
              "biases": 3.7 * model["biases"]}
    grid = np.random.default_rng(8).normal(size=(50, 2)) * 3
    np.testing.assert_array_equal(predict(model, grid),
                                  predict(scaled, grid))


def test_deterministic_training():
    x, y = _blobs([(-1, 0), (1, 0)], seed=9)
    a = train_svm(x, y, _svm(50))
    b = train_svm(x, y, _svm(50))
    np.testing.assert_array_equal(a["weights"], b["weights"])
    np.testing.assert_array_equal(a["biases"], b["biases"])


def test_svm_serialization_roundtrip(tmp_path):
    x, y = _blobs([(-1, 0), (1, 0)])
    model = train_svm(x, y, _svm(30))
    save_arrays(tmp_path / "svm.npz", **model)
    restored = load_arrays(tmp_path / "svm.npz")
    assert list(restored) == list(model) == ["classes", "weights", "biases"]
    for name, array in model.items():
        assert restored[name].dtype == array.dtype
        np.testing.assert_array_equal(restored[name], array)


class TestEvaluate:
    def _model(self):
        x, y = _blobs([(-3, 0), (3, 0), (0, 3)], per_class=30, seed=1)
        return train_svm(x, y, _svm(200)), x, y

    def test_perfect_predictor_accuracy_one(self):
        model, x, y = self._model()
        report = evaluate("gzsl", y, predict(model, x), model["classes"])
        assert report["accuracy"] == 1.0
        assert report["num_test"] == len(y)
        assert np.trace(np.asarray(report["confusion"])) == len(y)

    def test_row_sums_match_class_counts(self):
        model, x, y = self._model()
        report = evaluate("gzsl", y, predict(model, x), model["classes"])
        for i, label in enumerate(report["class_labels"]):
            assert sum(report["confusion"][i]) == (y == label).sum()

    def test_per_class_weighted_average_is_accuracy(self):
        model, x, y = self._model()
        # corrupt some points so accuracy is below 1
        x2 = x.copy()
        x2[:10] = -x2[:10]
        report = evaluate("gzsl", y, predict(model, x2), model["classes"])
        weighted = sum(report["per_class_accuracy"][str(c)] * (y == c).sum()
                       for c in report["class_labels"]) / len(y)
        assert report["accuracy"] == pytest.approx(weighted)

    def test_stray_test_labels_fatal(self):
        model, x, y = self._model()
        y_bad = y.copy()
        y_bad[0] = 99
        with pytest.raises(ValueError, match="true labels outside"):
            evaluate("zsl", y_bad, predict(model, x), model["classes"])

    def test_unknown_setting_fatal(self):
        model, x, y = self._model()
        with pytest.raises(ValueError, match="setting"):
            evaluate("train", y, predict(model, x), model["classes"])

    def test_report_json_roundtrip(self, tmp_path):
        model, x, y = self._model()
        report = evaluate("gzsl", y, predict(model, x), model["classes"],
                          extra={"pipeline": "zest"})
        path = tmp_path / "report.json"
        write_json(path, report)
        assert read_json(path) == report
        assert report["extra"] == {"pipeline": "zest"}


def test_report_with_predictions_outside_label_set():
    # baselines can predict seen classes for unseen-only test data
    y_true = np.array([5, 5, 6, 6])
    y_pred = np.array([5, 2, 6, 1])
    report = evaluate("zsl", y_true, y_pred, [5, 6])
    assert report["accuracy"] == 0.5
    confusion = np.asarray(report["confusion"])
    assert confusion.shape == (2, 3)      # overflow column
    assert confusion.sum() == 4


def test_report_true_label_outside_label_set_fatal():
    with pytest.raises(ValueError, match="outside"):
        evaluate("gzsl", np.array([0, 9]), np.array([0, 0]), [0, 1])
    # an SVM's classes are an int64 array: the message lists plain ints
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        evaluate("gzsl", np.array([0, 9]), np.array([0, 0]),
                 np.array([0, 1], dtype=np.int64))


def test_twelve_class_report_file_is_the_report(tmp_path):
    # per-class keys are strings, so the file lists them in text order
    labels = list(range(12))
    y_true = np.repeat(labels, 3)
    y_pred = np.roll(y_true, 1)
    report = evaluate("gzsl", y_true, y_pred, labels)
    path = tmp_path / "report_gzsl.json"
    write_json(path, report)
    assert read_json(path) == report
    lines = path.read_text().splitlines()
    start = lines.index('  "per_class_accuracy": {') + 1
    assert [line.split(":")[0].strip() for line in lines[start:start + 5]] \
        == ['"0"', '"1"', '"10"', '"11"', '"2"']


def test_format_report_lists_each_class_with_support():
    report = evaluate("zsl", np.array([5, 5, 7]), np.array([5, 6, 7]),
                      [5, 6, 7])
    assert format_report(report) == "\n".join([
        "setting: zsl", "accuracy: 0.6667  (n=3)", "per-class accuracy:",
        "  class 5: 0.5000", "  class 7: 1.0000"])

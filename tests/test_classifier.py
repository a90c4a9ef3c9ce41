"""Linear one-vs-rest SVM training, prediction rules, and evaluation
protocols."""

import itertools

import numpy as np
import pytest

from zest.checkpoint import write_json
from zest.classifier import (EvalReport, SvmConfig, SvmModel, build_report,
                             evaluate, hinge_objective, predict, train_svm)


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
    assert model.classes == [0, 1, 2]
    assert model.weights.shape == (3, 2)


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
    row = model.classes.index(1)
    w, b = model.weights[row:row + 1], model.biases[row:row + 1]
    ours = hinge_objective(w, _margins(w, b, x, y_signed), c_reg)[0]
    assert ours <= best_grid * 1.02


def test_single_class_fits_and_predicts_it():
    x = np.random.default_rng(4).normal(size=(6, 3))
    model = train_svm(x, np.full(6, 7), _svm(20))
    assert model.classes == [7]
    assert model.weights.shape == (1, 3)
    assert model.biases[0] > 0       # fitted: every margin pushes it up
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
    model = SvmModel(classes=[1, 3], weights=np.zeros((2, 2)),
                     biases=np.zeros(2))
    # all scores are zero: tie between class 1 and class 3
    assert predict(model, np.ones((4, 2))).tolist() == [1, 1, 1, 1]


def test_prediction_invariant_to_positive_rescaling():
    x, y = _blobs([(-2, 0), (2, 0), (0, 2)], per_class=20, seed=7)
    model = train_svm(x, y, _svm(100))
    scaled = SvmModel(classes=model.classes, weights=3.7 * model.weights,
                      biases=3.7 * model.biases)
    grid = np.random.default_rng(8).normal(size=(50, 2)) * 3
    np.testing.assert_array_equal(predict(model, grid),
                                  predict(scaled, grid))


def test_deterministic_training():
    x, y = _blobs([(-1, 0), (1, 0)], seed=9)
    a = train_svm(x, y, _svm(50))
    b = train_svm(x, y, _svm(50))
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.biases, b.biases)


def test_svm_serialization_roundtrip(tmp_path):
    x, y = _blobs([(-1, 0), (1, 0)])
    model = train_svm(x, y, _svm(30))
    model.save(tmp_path / "svm.npz")
    restored = SvmModel.load(tmp_path / "svm.npz")
    np.testing.assert_array_equal(model.weights, restored.weights)
    np.testing.assert_array_equal(model.biases, restored.biases)
    assert model.classes == restored.classes
    assert all(type(c) is int for c in restored.classes)
    with np.load(tmp_path / "svm.npz", allow_pickle=False) as archive:
        assert sorted(archive.files) == ["biases", "classes", "weights"]


class TestEvaluate:
    def _model(self):
        x, y = _blobs([(-3, 0), (3, 0), (0, 3)], per_class=30, seed=1)
        return train_svm(x, y, _svm(200)), x, y

    def test_perfect_predictor_accuracy_one(self):
        model, x, y = self._model()
        report = evaluate("gzsl", model, x, y)
        assert report.accuracy == 1.0
        assert report.num_test == len(y)
        assert np.trace(report.confusion) == len(y)

    def test_row_sums_match_class_counts(self):
        model, x, y = self._model()
        report = evaluate("gzsl", model, x, y)
        for i, label in enumerate(report.class_labels):
            assert report.confusion[i].sum() == (y == label).sum()

    def test_per_class_weighted_average_is_accuracy(self):
        model, x, y = self._model()
        # corrupt some points so accuracy is below 1
        x2 = x.copy()
        x2[:10] = -x2[:10]
        report = evaluate("gzsl", model, x2, y)
        weighted = sum(report.per_class_accuracy[c] * (y == c).sum()
                       for c in report.class_labels) / len(y)
        assert report.accuracy == pytest.approx(weighted)

    def test_stray_test_labels_fatal(self):
        model, x, y = self._model()
        y_bad = y.copy()
        y_bad[0] = 99
        with pytest.raises(ValueError, match="outside the declared"):
            evaluate("zsl", model, x, y_bad)

    def test_unknown_setting_fatal(self):
        model, x, y = self._model()
        with pytest.raises(ValueError, match="setting"):
            evaluate("train", model, x, y)

    def test_report_json_roundtrip(self, tmp_path):
        model, x, y = self._model()
        report = evaluate("gzsl", model, x, y, extra={"pipeline": "zest"})
        path = tmp_path / "report.json"
        write_json(path, report.to_dict())
        import json
        loaded = EvalReport.from_dict(json.loads(path.read_text()))
        assert loaded.accuracy == report.accuracy
        assert loaded.extra == {"pipeline": "zest"}
        np.testing.assert_array_equal(loaded.confusion, report.confusion)


def test_report_with_predictions_outside_label_set():
    # baselines can predict seen classes for unseen-only test data
    y_true = np.array([5, 5, 6, 6])
    y_pred = np.array([5, 2, 6, 1])
    report = build_report("zsl", y_true, y_pred, [5, 6])
    assert report.accuracy == 0.5
    assert report.confusion.shape == (2, 3)      # overflow column
    assert report.confusion.sum() == 4


def test_report_true_label_outside_label_set_fatal():
    with pytest.raises(ValueError, match="outside"):
        build_report("gzsl", np.array([0, 9]), np.array([0, 0]), [0, 1])

"""k-means, the optimal cluster-to-label mapping (against scipy's solver and
a factorial brute force), the random forest, and the four comparison
pipelines."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from zest import baselines as bl
from zest.baselines import (cluster_label_mapping, deft, kmeans, seqcr,
                            seqcs, vae_k)
from zest.forest import RandomForest


def _mapped_accuracy(assignments, labels, k):
    """Accuracy of the assignments under the optimal cluster -> label
    mapping."""
    mapping = cluster_label_mapping(assignments, labels, k)
    return float((mapping[assignments] == labels).mean())


def _points(table):
    """Cluster assignments and labels whose contingency table is `table`."""
    rows, cols = np.indices(table.shape)
    return (np.repeat(rows.ravel(), table.ravel()),
            np.repeat(cols.ravel(), table.ravel()))


@st.composite
def _tables(draw):
    """Square count tables; small maxima make many ties and zeros."""
    k = draw(st.integers(1, 12))
    top = draw(st.sampled_from([1, 2, 3, 50]))
    return draw(arrays(np.int64, (k, k), elements=st.integers(0, top)))


def _blobs(centers, per_class=30, spread=0.25, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(np.asarray(center, dtype=float) + spread * rng.normal(
            size=(per_class, len(center))))
        ys.extend([label] * per_class)
    return np.concatenate(xs), np.array(ys)


class TestKmeans:
    def test_points_at_k_locations_zero_inertia(self):
        base = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        points = np.repeat(base, 4, axis=0)
        result = kmeans(points, k=3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_two_blobs_recovered(self):
        x, y = _blobs([(-5, 0), (5, 0)], per_class=50)
        result = kmeans(x, k=2, seed=1)
        assert _mapped_accuracy(result.assignments, y, k=2) == 1.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            x = rng.normal(size=(100, 4))
            result = kmeans(x, k=6, seed=trial)
            hist = result.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=(60, 3))
        a = kmeans(x, k=4, seed=11)
        b = kmeans(x, k=4, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_k_larger_than_points_fatal(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((3, 2)), k=4)

    def test_seeded_centers_at_centroids_converge_fast(self):
        x, y = _blobs([(-4, 0), (4, 0), (0, 4)], per_class=40, seed=4)
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        result = kmeans(x, k=3, init=centroids, seed=0)
        assert result.n_iter <= 2
        assert _mapped_accuracy(result.assignments, y, k=3) == 1.0

    def test_seeded_init_shape_checked(self):
        with pytest.raises(ValueError, match="seeded"):
            kmeans(np.zeros((10, 2)), k=3, init=np.zeros((2, 2)))

    def test_assign_new_points(self):
        x, y = _blobs([(-5, 0), (5, 0)], per_class=30, seed=5)
        result = kmeans(x, k=2, seed=0)
        fresh, fresh_y = _blobs([(-5, 0), (5, 0)], per_class=10, seed=6)
        assigned = result.assign(fresh)
        mapping = cluster_label_mapping(result.assignments, y, k=2)
        assert (mapping[assigned] == fresh_y).mean() == 1.0


class TestClusterAccuracy:
    def test_permuted_labels_perfect(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assignments = np.array([2, 2, 0, 0, 1, 1])
        assert _mapped_accuracy(assignments, labels, k=3) == 1.0

    def test_uniform_random_near_chance(self):
        rng = np.random.default_rng(7)
        k = 12
        labels = np.repeat(np.arange(k), 400)
        assignments = rng.integers(0, k, size=labels.size)
        acc = _mapped_accuracy(assignments, labels, k=k)
        assert acc == pytest.approx(1.0 / k, abs=0.02)

    def test_matches_factorial_brute_force(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 4):
            for _ in range(10):
                n = 40
                assignments = rng.integers(0, k, size=n)
                labels = rng.integers(0, k, size=n)
                hungarian = _mapped_accuracy(assignments, labels, k=k)
                best = 0.0
                for perm in itertools.permutations(range(k)):
                    mapped = np.array([perm[a] for a in assignments])
                    best = max(best, float((mapped == labels).mean()))
                assert hungarian == pytest.approx(best)

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    @example(table=np.array([[7]]))
    @example(table=np.zeros((1, 1), dtype=np.int64))
    @example(table=np.zeros((5, 5), dtype=np.int64))
    @example(table=np.full((6, 6), 3))
    # a cluster with no training rows; two clusters with the same counts
    @example(table=np.array([[3, 1, 0], [0, 0, 0], [2, 2, 5]]))
    @example(table=np.array([[4, 1, 1, 0], [4, 1, 1, 0], [0, 2, 2, 2],
                             [1, 0, 3, 3]]))
    def test_matches_scipy_column_for_column(self, table):
        # ties resolve as scipy resolves them, so reports stay the same
        assignments, labels = _points(table)
        _, cols = linear_sum_assignment(table, maximize=True)
        np.testing.assert_array_equal(
            cluster_label_mapping(assignments, labels, len(table)), cols)

    def test_beats_any_fixed_mapping(self):
        rng = np.random.default_rng(9)
        assignments = rng.integers(0, 4, size=100)
        labels = rng.integers(0, 4, size=100)
        acc = _mapped_accuracy(assignments, labels, k=4)
        identity = float((assignments == labels).mean())
        assert acc >= identity

    def test_length_mismatch_fatal(self):
        with pytest.raises(ValueError, match="mismatch"):
            cluster_label_mapping(np.zeros(3, dtype=int),
                                  np.zeros(4, dtype=int), k=2)


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        # with one tree, the forest's output is that tree's leaf label
        x, y = _blobs([(-2, 0), (2, 0), (0, 2)], per_class=25, seed=10)
        forest = RandomForest(n_trees=1, seed=3).fit(x, y)
        grid = np.random.default_rng(11).normal(size=(60, 2)) * 3
        leaves = []
        for row in grid:
            node = forest.roots[0]
            while forest.left[node] != node:
                node = (forest.left[node]
                        if row[forest.feature[node]] <= forest.threshold[node]
                        else forest.right[node])
            leaves.append(forest.label[node])
        np.testing.assert_array_equal(forest.predict(grid), leaves)

    def test_forest_fits_separable_data(self):
        x, y = _blobs([(-3, 0), (3, 0), (0, 3)], per_class=40, seed=12)
        forest = RandomForest(n_trees=20, seed=0).fit(x, y)
        assert (forest.predict(x) == y).mean() >= 0.98

    def test_forest_deterministic(self):
        x, y = _blobs([(-2, 0), (2, 0)], per_class=30, seed=13)
        grid = np.random.default_rng(14).normal(size=(40, 2))
        a = RandomForest(n_trees=10, seed=5).fit(x, y).predict(grid)
        b = RandomForest(n_trees=10, seed=5).fit(x, y).predict(grid)
        np.testing.assert_array_equal(a, b)

    def test_max_depth_limits_tree(self):
        # both features separate the classes, so the one feature drawn for
        # the root split does
        x, y = _blobs([(-1, -1), (1, 1)], per_class=50, spread=1.5, seed=15)
        stump = RandomForest(n_trees=1, max_depth=1).fit(x, y)
        root = stump.roots[0]
        assert stump.left[root] != root
        for child in (stump.left[root], stump.right[root]):
            assert stump.left[child] == stump.right[child] == child
        assert len(stump.label) == 3


def _pipeline_data(seed=0):
    """Separable toy latents playing the role of extracted features."""
    num_classes = 4
    train_l, train_y = _blobs([(-4, 0, 1), (4, 0, -1), (0, 4, 0), (0, -4, 2)],
                              per_class=40, seed=seed)
    test_l, test_y = _blobs([(-4, 0, 1), (4, 0, -1), (0, 4, 0), (0, -4, 2)],
                            per_class=15, seed=seed + 100)
    # narrow features: first two dims
    train_lam, test_lam = train_l[:, :2], test_l[:, :2]
    attrs = np.stack([train_lam[train_y == c].mean(axis=0)
                      for c in range(num_classes)])
    return (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
            num_classes)


def _gzsl_accuracy(result, labels):
    """The accuracy of a pipeline's GZSL predictions."""
    predictions, _ = result
    return float((predictions["gzsl"] == labels).mean())


def _settings(features, labels):
    """The features of a ZSL split of the last two classes' test points,
    and of the GZSL split of all of them."""
    return {"zsl": features[labels >= 2], "gzsl": features}


class TestPipelines:
    def test_seqcr_and_seqcs_on_separable(self):
        (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
         k) = _pipeline_data()
        tests = {"gzsl": test_lam}
        acc_cr = _gzsl_accuracy(seqcr(train_lam, train_y, tests, attrs,
                                      seed=0), test_y)
        acc_cs = _gzsl_accuracy(seqcs(train_lam, train_y, tests, attrs,
                                      seed=0), test_y)
        assert acc_cs >= acc_cr
        assert acc_cs == 1.0

    def test_deft_close_to_seqcs_on_clean_clusters(self):
        (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
         k) = _pipeline_data()
        tests = {"gzsl": test_lam}
        acc_cs = _gzsl_accuracy(seqcs(train_lam, train_y, tests, attrs,
                                      seed=0), test_y)
        acc_df = _gzsl_accuracy(deft(train_lam, train_y, tests, attrs,
                                     seed=0), test_y)
        assert acc_df >= acc_cs - 0.02

    def test_vae_k_trained_vs_untrained(self):
        accs = {60: [], 0: []}
        for seed in range(3):
            (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
             k) = _pipeline_data(seed=seed)
            # class means of the wide features: compress to width 3
            attrs_l = np.stack([train_l[train_y == c].mean(axis=0)
                                for c in range(k)])
            for epochs in accs:
                accs[epochs].append(_gzsl_accuracy(
                    vae_k(train_l, train_y, {"gzsl": test_l}, attrs_l,
                          seed=seed, epochs=epochs), test_y))
        assert np.mean(accs[60]) >= np.mean(accs[0])

    def test_vae_k_compresses_to_attribute_width(self, monkeypatch):
        (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
         k) = _pipeline_data()
        clustered = []

        def spy(points, *args, **kwargs):
            clustered.append(points.shape)
            return kmeans(points, *args, **kwargs)

        monkeypatch.setattr(bl, "kmeans", spy)
        attrs_4 = np.hstack([attrs, attrs])            # N = 4
        vae_k(train_l, train_y, _settings(test_l, test_y), attrs_4, seed=0,
              epochs=2)
        assert clustered == [(len(train_l), 4)]

    def test_reports_tag_pipeline(self):
        (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
         k) = _pipeline_data()
        tests = _settings(test_lam, test_y)
        predictions, extra = seqcr(train_lam, train_y, tests, attrs, seed=0)
        assert list(predictions) == ["zsl", "gzsl"]
        assert extra["pipeline"] == "seqcr"
        for setting, pred in predictions.items():
            assert pred.shape == (len(tests[setting]),)

    @pytest.mark.parametrize("name", ["seqcr", "seqcs", "deft", "vae_k"])
    def test_one_fit_reports_as_one_fit_per_setting(self, name):
        # each setting's report equals that of a fit that saw only it
        (train_l, train_lam, train_y, test_l, test_lam, test_y, attrs,
         k) = _pipeline_data(seed=1)
        pipeline = getattr(bl, name)
        if name == "vae_k":
            train, tests = train_l, _settings(test_l, test_y)
            kwargs = {"epochs": 5}
        else:
            train, tests = train_lam, _settings(test_lam, test_y)
            kwargs = {}
        both, both_extra = pipeline(train, train_y, tests, attrs, 3, **kwargs)
        assert list(both) == ["zsl", "gzsl"]
        for setting, split in tests.items():
            alone, extra = pipeline(train, train_y, {setting: split}, attrs, 3,
                                    **kwargs)
            np.testing.assert_array_equal(both[setting], alone[setting])
            assert both_extra == extra

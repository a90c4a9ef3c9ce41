"""Latent extraction and attribute computation."""

import numpy as np
import pytest

from zest.attributes import compute_attributes, extract_latents


@pytest.fixture(scope="module")
def trained(tiny_trained):
    model, _, (x, y) = tiny_trained
    return model, x, y


def test_composition_identity(trained):
    model, x, _ = trained
    l, lam = extract_latents(model, x[:6])
    w = model.params["latent_lam.w"]
    b = model.params["latent_lam.b"]
    np.testing.assert_allclose(lam, l @ w + b, atol=1e-6)


def test_logits_reconstruction_identity(trained):
    model, x, _ = trained
    _, lam = extract_latents(model, x[:6])
    w = model.params["head.w"]
    b = model.params["head.b"]
    logits = model.predict_arrays(x[:6])["logits"]
    np.testing.assert_allclose(logits, lam @ w + b, atol=1e-6)


def test_extract_latents_repeatable(trained):
    model, x, _ = trained
    l1, lam1 = extract_latents(model, x[:4])
    l2, lam2 = extract_latents(model, x[:4])
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(lam1, lam2)


def test_extract_single_point(trained):
    model, x, _ = trained
    l, lam = extract_latents(model, x[:1])
    assert l.shape == (1, model.config.M)
    assert lam.shape == (1, model.config.N)


def test_extract_batch_invariance(trained):
    model, x, _ = trained
    l, lam = extract_latents(model, x[:8])
    for i in range(8):
        l1, lam1 = extract_latents(model, x[i:i + 1])
        np.testing.assert_allclose(l[i], l1[0], atol=1e-6)
        np.testing.assert_allclose(lam[i], lam1[0], atol=1e-6)


def test_duplicated_point_duplicates_latents(trained):
    model, x, _ = trained
    l, lam = extract_latents(model, x[[0, 0]])
    np.testing.assert_array_equal(l[0], l[1])
    np.testing.assert_array_equal(lam[0], lam[1])


def test_extract_empty_fatal(trained):
    model, x, _ = trained
    with pytest.raises(ValueError, match="no sequences"):
        extract_latents(model, x[:0])


def test_attribute_is_mean():
    lam = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
    attrs = compute_attributes(lam, [0, 0], 1)
    np.testing.assert_allclose(attrs, [[0.5, 0.5, 0.0]])


def test_attribute_of_constant_device():
    lam = np.tile(np.array([[0.3, -0.2, 1.1]], dtype=np.float32), (5, 1))
    attrs = compute_attributes(lam, [0] * 5, 1)
    np.testing.assert_allclose(attrs[0], [0.3, -0.2, 1.1], atol=1e-6)


def test_attribute_permutation_invariant(trained):
    model, x, y = trained
    x = x[y == y[0]][:10]
    shuffled = x[np.random.default_rng(0).permutation(len(x))]
    a1 = compute_attributes(extract_latents(model, x)[1], [0] * len(x), 1)
    a2 = compute_attributes(extract_latents(model, shuffled)[1],
                            [0] * len(x), 1)
    np.testing.assert_allclose(a1, a2, atol=1e-6)


def test_empty_latent_set_fatal():
    with pytest.raises(ValueError, match="no latents"):
        compute_attributes(np.zeros((0, 3), dtype=np.float32), [], 1)


def test_every_device_gets_one_attribute(trained):
    model, x, y = trained
    _, lam = extract_latents(model, x)
    attrs = compute_attributes(lam, y, len(set(y.tolist())))
    assert attrs.shape == (len(set(y.tolist())), model.config.N)
    assert attrs.dtype == lam.dtype
    for c in range(len(attrs)):
        np.testing.assert_array_equal(attrs[c], lam[y == c].mean(axis=0))


def test_rows_follow_labels_not_input_order():
    lam = np.array([[4.0], [1.0], [2.0], [3.0]], dtype=np.float32)
    attrs = compute_attributes(lam, [2, 0, 0, 1], 3)
    np.testing.assert_array_equal(attrs, [[1.5], [3.0], [4.0]])


def test_class_without_latents_fatal():
    lam = np.ones((3, 2), dtype=np.float32)
    with pytest.raises(ValueError, match=r"classes \[1, 3\]"):
        compute_attributes(lam, [0, 2, 2], 4)


def test_attributes_separate_distinct_devices(trained):
    # devices with distinct generators: between-device attribute distances
    # exceed the within-device lambda spread
    model, x, y = trained
    _, lam = extract_latents(model, x)
    attrs = compute_attributes(lam, y, len(set(y.tolist())))
    classes = range(len(attrs))
    within = max(float(np.linalg.norm(lam[y == c] - attrs[c], axis=1).std())
                 for c in classes)
    between = min(float(np.linalg.norm(attrs[a] - attrs[b]))
                  for a in classes for b in classes if a < b)
    assert between > within


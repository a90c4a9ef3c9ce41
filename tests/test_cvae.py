"""Conditional VAE loss components, training behavior, and pseudo-data
generation."""

from dataclasses import asdict

import numpy as np
import pytest

from zest import numerics as nm
from zest.checkpoint import save_checkpoint
from zest.cvae import (CvaeConfig, CvaeModel, PseudoDataset, cvae_loss,
                       generate_pseudo, train_cvae)


def _zeroed_model(config):
    """Model whose encoder emits mu=0, logvar=0 regardless of input."""
    model = CvaeModel(config)
    for name in ("enc.mu_w", "enc.mu_b", "enc.lv_w", "enc.lv_b"):
        model.params[name].data = np.zeros_like(model.params[name].data)
    return model


def test_kl_zero_for_standard_gaussian():
    config = CvaeConfig(input_dim=4, cond_dim=2, z_dim=3)
    model = _zeroed_model(config)
    batch = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
    cond = np.zeros((5, 2), dtype=np.float32)
    eps = np.zeros((5, 3))
    _, _, kl = cvae_loss(model, batch, cond, eps)
    assert kl == pytest.approx(0.0, abs=1e-7)


def test_kl_half_for_unit_mean():
    config = CvaeConfig(input_dim=4, cond_dim=0, z_dim=1)
    model = _zeroed_model(config)
    model.params["enc.mu_b"].data = np.ones(1, dtype=np.float32)
    batch = np.zeros((3, 4), dtype=np.float32)
    _, _, kl = cvae_loss(model, batch, None, np.zeros((3, 1)))
    assert kl == pytest.approx(0.5, abs=1e-6)


def test_kl_non_negative_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = nm.param(rng.normal(size=(4, 6)))
        logvar = nm.param(rng.normal(size=(4, 6)))
        assert float(nm.gaussian_kl(mu, logvar).data) >= 0.0


def test_full_loss_gradcheck():
    config = CvaeConfig(input_dim=5, cond_dim=2, z_dim=3, hidden_dim=8,
                        seed=3)
    model = CvaeModel(config, dtype=np.float64,
                      rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(2, 5))
    cond = rng.normal(size=(2, 2))
    eps = rng.normal(size=(2, 3))

    def f():
        loss, _, _ = cvae_loss(model, batch, cond, eps)
        return loss

    err = nm.grad_check(f, model.parameters())
    assert err < 1e-4, f"max relative error {err}"


def _toy_latents(num_classes=4, per_class=40, dim=8, attr_dim=3, seed=0,
                 spread=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, dim)) * spread
    attrs = rng.normal(size=(num_classes, attr_dim)) * 2.0
    latents, conds, labels = [], [], []
    for c in range(num_classes):
        pts = centers[c] + 0.3 * rng.normal(size=(per_class, dim))
        latents.append(pts)
        conds.append(np.tile(attrs[c], (per_class, 1)))
        labels.extend([c] * per_class)
    return (np.concatenate(latents).astype(np.float32),
            np.concatenate(conds).astype(np.float32),
            np.array(labels), centers, attrs)


def test_training_reduces_reconstruction():
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=150, seed=0)
    _, log = train_cvae(latents, conds, config)
    assert log[-1]["recon"] <= 0.5 * log[0]["recon"]


def test_training_deterministic():
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=20, seed=5)
    _, log_a = train_cvae(latents, conds, config)
    _, log_b = train_cvae(latents, conds, config)
    assert log_a[-1]["loss"] == log_b[-1]["loss"]


def test_training_isolated_from_extra_data():
    # adding or removing other-class data not passed to the trainer cannot
    # change the result: the trainer sees only what it is given
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=10, seed=1)
    model_a, _ = train_cvae(latents, conds, config)
    model_b, _ = train_cvae(latents.copy(), conds.copy(), config)
    for name in model_a.params:
        np.testing.assert_array_equal(model_a.params[name].data,
                                      model_b.params[name].data)


def test_attribute_shape_mismatch_fatal():
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3)
    with pytest.raises(ValueError, match="attribute"):
        train_cvae(latents, conds[:, :2], config)
    with pytest.raises(ValueError, match="attribute"):
        train_cvae(latents, None, config)


@pytest.mark.parametrize("field, value", [("batch_size", 0),
                                          ("batch_size", -3), ("epochs", -1)])
def test_config_rejects_bad_batch_size_and_epochs(field, value):
    with pytest.raises(ValueError, match=field):
        CvaeConfig(**{field: value})


@pytest.fixture(scope="module")
def trained():
    latents, conds, labels, centers, attrs = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=300, seed=2)
    model, _ = train_cvae(latents, conds, config)
    class_attrs = {c: attrs[c] for c in range(attrs.shape[0])}
    return model, class_attrs, latents, labels, centers


class TestGeneratePseudo:
    def test_balanced_counts(self, trained):
        model, class_attrs, _, _, _ = trained
        pseudo = generate_pseudo(model, class_attrs, k=50, seed=0)
        assert pseudo.samples.shape == (len(class_attrs) * 50, 8)
        counts = np.bincount(pseudo.labels)
        assert (counts == 50).all()

    def test_same_seed_identical(self, trained):
        model, class_attrs, _, _, _ = trained
        a = generate_pseudo(model, class_attrs, k=20, seed=3)
        b = generate_pseudo(model, class_attrs, k=20, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = generate_pseudo(model, class_attrs, k=20, seed=4)
        assert not np.array_equal(a.samples, c.samples)

    def test_pseudo_lands_near_own_class_centroid(self, trained):
        model, class_attrs, latents, labels, _ = trained
        pseudo = generate_pseudo(model, class_attrs, k=100, seed=5)
        real_centroids = np.stack([latents[labels == c].mean(axis=0)
                                   for c in sorted(class_attrs)])
        for c in sorted(class_attrs):
            cloud = pseudo.samples[pseudo.labels == c]
            dists = np.linalg.norm(cloud.mean(axis=0) - real_centroids,
                                   axis=1)
            assert dists.argmin() == c

    def test_k_must_be_positive(self, trained):
        model, class_attrs, _, _, _ = trained
        with pytest.raises(ValueError, match="k"):
            generate_pseudo(model, class_attrs, k=0, seed=0)


def test_checkpoint_roundtrip(tmp_path):
    config = CvaeConfig(input_dim=6, cond_dim=2, z_dim=3, seed=9)
    model = CvaeModel(config, rng=np.random.default_rng(9))
    path = tmp_path / "cvae.ckpt"
    model.save(path)
    loaded = CvaeModel.load(path)
    assert loaded.config == config
    z = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32)
    cond = np.zeros((4, 2), dtype=np.float32)
    np.testing.assert_array_equal(model.decode_arrays(z, cond),
                                  loaded.decode_arrays(z, cond))


def test_load_rejects_wrong_shaped_tensor(tmp_path):
    config = CvaeConfig(input_dim=6, cond_dim=2, z_dim=3, seed=9)
    state = CvaeModel(config).state_arrays()
    state["dec.w2"] = state["dec.w2"][:, :-1]
    path = tmp_path / "cvae.ckpt"
    save_checkpoint(path, state, asdict(config))
    with pytest.raises(ValueError, match="dec.w2"):
        CvaeModel.load(path)


def test_zero_epochs_returns_initial_model():
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=0, seed=4)
    model, log = train_cvae(latents, conds, config)
    assert log == []
    initial = CvaeModel(config).state_arrays()
    for name, arr in model.state_arrays().items():
        np.testing.assert_array_equal(arr, initial[name])

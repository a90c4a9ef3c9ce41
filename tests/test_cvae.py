"""Conditional VAE loss components, the one-node loss against the composite
of primitives it replaced, training behavior, and pseudo-data generation."""

from dataclasses import asdict

import numpy as np
import pytest

from conftest import (assert_flat_views, concat, model_node, mul,
                      param_leaves, scale)
from zest import cvae
from zest import numerics as nm
from zest.checkpoint import save_checkpoint
from zest.cvae import (CvaeConfig, CvaeModel, cvae_loss, generate_pseudo,
                       train_cvae)


def _zeroed_model(config):
    """Model whose encoder emits mu=0, logvar=0 regardless of input."""
    model = CvaeModel(config)
    for name in ("enc.mu_w", "enc.mu_b", "enc.lv_w", "enc.lv_b"):
        model.params[name][...] = 0
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
    model.params["enc.mu_b"][...] = 1
    batch = np.zeros((3, 4), dtype=np.float32)
    _, _, kl = cvae_loss(model, batch, np.zeros((3, 0)), np.zeros((3, 1)))
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

    leaves = param_leaves(model)

    def f():
        return model_node(model, leaves, cvae_loss(model, batch, cond, eps)[0])

    err = nm.grad_check(f, list(leaves.values()))
    assert err < 1e-4, f"max relative error {err}"


def test_unconditional_loss_gradcheck():
    config = CvaeConfig(input_dim=5, cond_dim=0, z_dim=3, hidden_dim=8,
                        seed=6)
    model = CvaeModel(config, dtype=np.float64,
                      rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(3, 5))
    eps = rng.normal(size=(3, 3))

    leaves = param_leaves(model)

    def f():
        return model_node(model, leaves,
                          cvae_loss(model, batch, np.zeros((3, 0)), eps)[0])

    err = nm.grad_check(f, list(leaves.values()))
    assert err < 1e-4, f"max relative error {err}"


def _graph_loss(model, batch, cond, eps):
    """`cvae_loss` as the composite of graph primitives it replaced, node
    for node, over the parameter leaves: its backward fills
    `model.grads`."""
    p = param_leaves(model)
    batch = np.asarray(batch, dtype=model.dtype)

    def with_cond(t):
        return concat([t, nm.param(np.asarray(cond, dtype=t.dtype))],
                      axis=-1)

    h = nm.gelu(nm.linear(with_cond(nm.param(batch)), p["enc.w1"],
                          p["enc.b1"]))
    mu = nm.linear(h, p["enc.mu_w"], p["enc.mu_b"])
    logvar = nm.linear(h, p["enc.lv_w"], p["enc.lv_b"])
    sigma = nm.exp(scale(logvar, 0.5))
    z = nm.add(mu, mul(sigma, nm.param(np.asarray(eps, dtype=model.dtype))))
    h = nm.gelu(nm.linear(with_cond(z), p["dec.w1"], p["dec.b1"]))
    recon = nm.linear(h, p["dec.w2"], p["dec.b2"])
    recon_term = nm.l1_loss(recon, batch)
    kl_term = nm.gaussian_kl(mu, logvar)
    loss = nm.add(recon_term, kl_term)
    loss.backward()
    for name, t in p.items():
        assert t.grad.dtype == model.dtype, name
        model.grads[name][...] = t.grad
    assert loss.dtype == model.dtype
    return float(loss.data), float(recon_term.data), float(kl_term.data)


@pytest.mark.parametrize("cond_dim", [3, 0])
def test_cvae_loss_matches_primitive_graph(cond_dim, monkeypatch):
    latents, conds, _, _, _ = _toy_latents(per_class=30)
    conds = conds[:, :cond_dim]
    config = CvaeConfig(input_dim=8, cond_dim=cond_dim, z_dim=4, epochs=10,
                        batch_size=24, seed=8)
    # a trained model, so that no weight is at its initial value
    model, _ = train_cvae(latents, conds, config)
    eps = np.random.default_rng(9).standard_normal((24, 4))
    batch = latents[10:34]
    cond = conds[10:34]
    results = []
    for loss_fn in (_graph_loss, cvae_loss):
        model.grad[...] = np.nan
        values = loss_fn(model, batch, cond, eps)
        results.append((values, {name: g.copy()
                                 for name, g in model.grads.items()}))
    (want, want_grads), (got, grads) = results
    assert got == want
    assert len(grads) == 10
    for name, g in grads.items():
        assert g.dtype == np.float32, name
        np.testing.assert_array_equal(g, want_grads[name], err_msg=name)

    # 5 batches an epoch for 10 epochs: 50 Adam steps either way
    trained, _ = train_cvae(latents, conds, config)
    monkeypatch.setattr(cvae, "cvae_loss", _graph_loss)
    reference, _ = train_cvae(latents, conds, config)
    for name, a in trained.params.items():
        np.testing.assert_array_equal(a, reference.params[name], err_msg=name)


def test_steps_write_every_gradient_into_one_buffer():
    config = CvaeConfig(input_dim=4, cond_dim=2, z_dim=2, hidden_dim=5)
    model = CvaeModel(config)
    rng = np.random.default_rng(0)
    batch, cond, eps = (rng.standard_normal((6, k)) for k in (4, 2, 2))
    opt = nm.Adam(model.data, model.grad, learning_rate=0.01)
    before = [(a, a.__array_interface__["data"])
              for a in (model.data, model.grad)]
    for _ in range(2):
        # each step overwrites every gradient in the same buffer
        model.grad[...] = np.nan
        cvae_loss(model, batch, cond, eps)
        assert np.isfinite(model.grad).all()
        opt.step()
    assert [(a, a.__array_interface__["data"])
            for a in (model.data, model.grad)] == before
    assert_flat_views(model)


@pytest.mark.parametrize("cond_dim, op", [(3, "concat"), (0, "concat")])
def test_nan_in_batch_is_fatal(cond_dim, op):
    config = CvaeConfig(input_dim=4, cond_dim=cond_dim, z_dim=2)
    batch = np.ones((3, 4), dtype=np.float32)
    batch[1, 2] = np.nan
    cond = np.zeros((3, cond_dim), dtype=np.float32)
    with pytest.raises(nm.NumericsError, match=f"'{op}'"):
        cvae_loss(CvaeModel(config), batch, cond, np.zeros((3, 2)))


def test_loss_rejects_unbatched_input():
    config = CvaeConfig(input_dim=4, cond_dim=0, z_dim=2)
    with pytest.raises(nm.NumericsError, match="batch"):
        cvae_loss(CvaeModel(config), np.ones(4), np.zeros(0), np.zeros(2))


def test_overflowing_logvar_is_fatal():
    # logvar = 1000 makes sigma = exp(500), beyond float32
    config = CvaeConfig(input_dim=4, cond_dim=2, z_dim=2)
    model = _zeroed_model(config)
    model.params["enc.lv_b"][...] = 1000
    with pytest.raises(nm.NumericsError, match="'exp'"):
        cvae_loss(model, np.ones((3, 4), dtype=np.float32),
                  np.zeros((3, 2), dtype=np.float32), np.zeros((3, 2)))


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
    np.testing.assert_array_equal(model_a.data, model_b.data)


def test_attribute_shape_mismatch_fatal():
    latents, conds, _, _, _ = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3)
    with pytest.raises(ValueError, match="attribute"):
        train_cvae(latents, conds[:, :2], config)
    with pytest.raises(ValueError, match="attribute"):
        train_cvae(latents, conds[:, :0], config)
    # a plain VAE takes zero-width attributes and no others
    plain = CvaeConfig(input_dim=8, cond_dim=0)
    with pytest.raises(ValueError, match="attribute"):
        train_cvae(latents, conds, plain)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -3), ("epochs", -1),
    ("input_dim", 0), ("cond_dim", -1), ("z_dim", 0), ("hidden_dim", 0),
    ("learning_rate", 0), ("learning_rate", -1)])
def test_config_rejects_bad_batch_size_and_epochs(field, value):
    with pytest.raises(ValueError, match=field):
        CvaeConfig(**{field: value})


@pytest.fixture(scope="module")
def trained():
    latents, conds, labels, centers, attrs = _toy_latents()
    config = CvaeConfig(input_dim=8, cond_dim=3, z_dim=4, epochs=300, seed=2)
    model, _ = train_cvae(latents, conds, config)
    return model, attrs, latents, labels, centers


class TestGeneratePseudo:
    def test_balanced_counts(self, trained):
        model, attrs, _, _, _ = trained
        samples, labels = generate_pseudo(model, attrs, k=50, seed=0)
        assert samples.shape == (len(attrs) * 50, 8)
        assert samples.dtype == np.float32
        counts = np.bincount(labels)
        assert (counts == 50).all()

    def test_row_c_of_attrs_is_class_c(self, trained):
        model, attrs, _, _, _ = trained
        samples, labels = generate_pseudo(model, attrs, k=5, seed=1)
        assert labels.dtype == np.int64
        assert labels.tolist() == np.repeat(range(len(attrs)), 5).tolist()
        for c in range(len(attrs)):
            noise = np.random.default_rng([1, c]).standard_normal(
                (5, model.config.z_dim)).astype(np.float32)
            cond = np.tile(attrs[c].astype(np.float32), (5, 1))
            np.testing.assert_array_equal(samples[labels == c],
                                          model.decode_arrays(noise, cond))

    def test_same_seed_identical(self, trained):
        model, attrs, _, _, _ = trained
        a, _ = generate_pseudo(model, attrs, k=20, seed=3)
        b, _ = generate_pseudo(model, attrs, k=20, seed=3)
        np.testing.assert_array_equal(a, b)
        c, _ = generate_pseudo(model, attrs, k=20, seed=4)
        assert not np.array_equal(a, c)

    def test_pseudo_lands_near_own_class_centroid(self, trained):
        model, attrs, latents, labels, _ = trained
        samples, pseudo_labels = generate_pseudo(model, attrs, k=100, seed=5)
        real_centroids = np.stack([latents[labels == c].mean(axis=0)
                                   for c in range(len(attrs))])
        for c in range(len(attrs)):
            cloud = samples[pseudo_labels == c]
            dists = np.linalg.norm(cloud.mean(axis=0) - real_centroids,
                                   axis=1)
            assert dists.argmin() == c

    def test_k_must_be_positive(self, trained):
        model, attrs, _, _, _ = trained
        with pytest.raises(ValueError, match="k"):
            generate_pseudo(model, attrs, k=0, seed=0)


def test_checkpoint_roundtrip(tmp_path):
    config = CvaeConfig(input_dim=6, cond_dim=2, z_dim=3, seed=9)
    model = CvaeModel(config, rng=np.random.default_rng(9))
    path = tmp_path / "cvae.npz"
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
    path = tmp_path / "cvae.npz"
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

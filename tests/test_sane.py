"""Feature extractor structure, gradients, training behavior, and
serialization."""

import numpy as np
import pytest

from conftest import TINY_N, make_tiny_splits, tiny_config
from zest import numerics as nm
from zest.cvae import CvaeConfig, CvaeModel, cvae_loss
from zest.sane import SaneConfig, SaneModel, evaluate_supervised, train_sane


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        SaneConfig(d_model=30, h=8)
    with pytest.raises(ValueError, match="N < M"):
        SaneConfig(M=3, N=3)
    with pytest.raises(ValueError, match="stack"):
        SaneConfig(e=0)
    with pytest.raises(ValueError, match="batch_size"):
        SaneConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        SaneConfig(epochs=-1)


def test_output_shapes(tiny_model):
    c = tiny_model.config
    x = np.random.default_rng(0).random((5, c.n, c.f), dtype=np.float32)
    out = tiny_model.forward(x)
    assert out["logits"].shape == (5, c.num_classes)
    assert out["l"].shape == (5, c.M)
    assert out["lam"].shape == (5, c.N)


def test_attention_rows_sum_to_one(tiny_model):
    # one-hot tokens and a value map that copies token t to slot t of every
    # head make the context equal to the attention probabilities
    c = tiny_model.config
    head_dim = c.d_model // c.h
    tokens = head_dim
    x = np.zeros((3, tokens, c.d_model), dtype=np.float32)
    x[:, np.arange(tokens), np.arange(tokens)] = 1.0
    wv = np.zeros((c.d_model, c.d_model), dtype=np.float32)
    for head in range(c.h):
        wv[np.arange(tokens), head * head_dim + np.arange(tokens)] = 1.0
    p = tiny_model.params
    ctx = nm.attention(nm.param(x), p["block0.attn.wq"], p["block0.attn.bq"],
                       p["block0.attn.wk"], nm.param(wv),
                       nm.param(np.zeros(c.d_model, np.float32)),
                       heads=c.h).data
    attn = ctx.reshape(3, tokens, c.h, head_dim).transpose(0, 2, 1, 3)
    assert (attn >= 0).all()
    assert attn.std() > 0
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


def test_permutation_invariance_with_zero_positional(tiny_model):
    c = tiny_model.config
    model = SaneModel(c, rng=np.random.default_rng(5))
    model.params["pos"].data = np.zeros_like(model.params["pos"].data)
    rng = np.random.default_rng(2)
    x = rng.random((1, c.n, c.f), dtype=np.float32)
    base = model.forward(x)
    for _ in range(3):
        perm = rng.permutation(c.n)
        out = model.forward(x[:, perm])
        np.testing.assert_allclose(out["logits"].data, base["logits"].data,
                                   atol=1e-5)
        np.testing.assert_allclose(out["l"].data, base["l"].data, atol=1e-5)


def test_full_loss_gradcheck_tiny_config():
    config = SaneConfig(n=4, f=3, d_model=8, e=1, h=2, d_mlp=16, M=5, N=2,
                        num_classes=3, seed=7)
    model = SaneModel(config, dtype=np.float64,
                      rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.random((2, 4, 3))
    y = np.array([0, 2])

    def f():
        return nm.cross_entropy(model.forward(x)["logits"], y)

    err = nm.grad_check(f, model.parameters())
    assert err < 1e-4, f"max relative error {err}"


@pytest.mark.parametrize("model_name", ["sane-tiny", "sane-default",
                                        "cvae"])
def test_every_parameter_moves_the_loss(model_name, tiny_splits):
    # a parameter whose gradient is rounding noise next to the others
    # cannot change the loss, and Adam's normalised step still moves it
    rng = np.random.default_rng(0)
    if model_name == "cvae":
        model = CvaeModel(CvaeConfig())
        c = model.config
        loss, _, _ = cvae_loss(model, rng.normal(size=(16, c.input_dim)),
                               rng.normal(size=(16, c.cond_dim)),
                               rng.standard_normal((16, c.z_dim)))
    else:
        config = (tiny_config() if model_name == "sane-tiny"
                  else SaneConfig(n=TINY_N, num_classes=3))
        model = SaneModel(config)
        x, y = tiny_splits[0]
        loss = nm.cross_entropy(model.forward(x[:16])["logits"], y[:16])
    loss.backward()
    peaks = {name: float(np.abs(t.grad).max())
             for name, t in model.params.items()}
    top = max(peaks.values())
    assert {name: peak / top for name, peak in peaks.items()
            if peak <= 1e-5 * top} == {}


def test_training_reaches_high_accuracy(tiny_trained):
    model, log, test = tiny_trained
    assert log[-1]["val_acc"] >= 0.95
    acc, confusion = evaluate_supervised(model, *test)
    assert acc >= 0.95
    assert confusion.sum() == len(test[1])


def test_training_determinism(tiny_splits):
    train, val, _, _ = tiny_splits
    config = tiny_config(epochs=3)
    _, log_a = train_sane(*train, *val, config)
    _, log_b = train_sane(*train, *val, config)
    assert log_a == log_b


def test_training_log_and_best_checkpoint(tiny_splits, tmp_path):
    train, val, _, _ = tiny_splits
    config = tiny_config(epochs=4)
    log_path = tmp_path / "log.csv"
    model, log = train_sane(*train, *val, config, log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_acc"
    assert len(lines) == 5
    best = max(log, key=lambda r: (r["val_acc"], -r["epoch"]))
    x, y = val
    acc = float((model.predict_arrays(x)["logits"].argmax(axis=1) == y).mean())
    assert acc == pytest.approx(best["val_acc"], abs=1e-9)


def test_encoder_stack_sweep_non_degrading():
    accs = {1: [], 2: []}
    for seed in range(3):
        train, val, test, _ = make_tiny_splits(seed=seed)
        for e in (1, 2):
            config = tiny_config(e=e, epochs=10, seed=seed,
                                 learning_rate=3e-3)
            model, _ = train_sane(*train, *val, config)
            acc, _ = evaluate_supervised(model, *test)
            accs[e].append(acc)
    assert np.mean(accs[2]) >= np.mean(accs[1]) - 1e-9


def test_empty_class_fatal(tiny_splits):
    train, val, _, _ = tiny_splits
    x, y = train
    with pytest.raises(ValueError, match="class 1"):
        train_sane(x[y != 1], y[y != 1], *val, tiny_config())


def test_empty_validation_split_fatal():
    # two sequences per device: the 60/20/20 split leaves no val sequence
    train, val, _, _ = make_tiny_splits(sessions=2)
    assert len(val[0]) == 0
    with pytest.raises(ValueError, match="validation split"):
        train_sane(*train, *val, tiny_config())


def test_empty_test_set_fatal(tiny_trained):
    model, _, _ = tiny_trained
    c = model.config
    with pytest.raises(ValueError, match="empty"):
        evaluate_supervised(model, np.zeros((0, c.n, c.f), dtype=np.float32),
                            np.zeros(0, dtype=np.int64))


def test_checkpoint_roundtrip_bit_exact(tiny_trained, tmp_path):
    model, _, test = tiny_trained
    path = tmp_path / "sane.npz"
    model.save(path)
    loaded = SaneModel.load(path)
    assert loaded.config == model.config
    x = test[0][:4]
    out_a = model.predict_arrays(x)
    out_b = loaded.predict_arrays(x)
    np.testing.assert_array_equal(out_a["logits"], out_b["logits"])
    np.testing.assert_array_equal(out_a["lam"], out_b["lam"])
    # identical bytes when saved again
    path2 = tmp_path / "sane2.npz"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_input_shape_fatal(tiny_model):
    with pytest.raises(nm.NumericsError, match="incompatible"):
        tiny_model.forward(np.zeros((2, 3, 8), dtype=np.float32))

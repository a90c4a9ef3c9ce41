"""Feature extractor structure, gradients against finite differences and
against the per-op graph it replaced, its step workspace, training behavior,
and serialization."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (TINY_N, assert_flat_views, backward_from, broadcast_to,
                      concat, make_tiny_splits, mean_pool, model_node,
                      param_leaves, reshape, tiny_config)
from zest import numerics as nm
from zest import sane
from zest.cvae import (CvaeConfig, CvaeModel, cvae_loss, generate_pseudo,
                       train_cvae)
from zest.sane import (SaneConfig, SaneModel, Workspace, evaluate_supervised,
                       train_sane)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        SaneConfig(d_model=30, h=8)
    with pytest.raises(ValueError, match="N < M"):
        SaneConfig(M=3, N=3)
    with pytest.raises(ValueError, match=r"^e must be >= 0"):
        SaneConfig(e=-1)
    with pytest.raises(ValueError, match="batch_size"):
        SaneConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        SaneConfig(epochs=-1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0"):
        SaneConfig(seed=-1)
    # zero-width attributes, and widths, heads and learning rates that
    # would fail only when a stage builds the model
    for field, value in (("N", 0), ("h", 0), ("d_model", 0), ("d_mlp", 0),
                         ("n", 0), ("f", 0), ("num_classes", 0),
                         ("learning_rate", 0), ("learning_rate", -1e-3)):
        with pytest.raises(ValueError, match=rf"^{field} must be > 0"):
            SaneConfig(**{field: value})
    with pytest.raises(ValueError, match=r"^M must be > 0"):
        SaneConfig(M=0, N=-1)


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
    p = param_leaves(tiny_model)
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
    model.params["pos"][...] = 0
    rng = np.random.default_rng(2)
    x = rng.random((1, c.n, c.f), dtype=np.float32)
    base = model.forward(x)
    for _ in range(3):
        perm = rng.permutation(c.n)
        out = model.forward(x[:, perm])
        np.testing.assert_allclose(out["logits"], base["logits"], atol=1e-5)
        np.testing.assert_allclose(out["l"], base["l"], atol=1e-5)


def _loss_node(model, leaves, x, y):
    """The cross-entropy of the model's logits as one graph node over
    `leaves`, whose backward runs the model's."""
    workspace = Workspace(model, len(x))
    loss, g = nm.cross_entropy_arrays(model.forward(x, workspace)["logits"],
                                      y)
    return model_node(model, leaves, loss,
                      lambda: model.backward(g, workspace))


def test_full_loss_gradcheck_tiny_config():
    config = SaneConfig(n=4, f=3, d_model=8, e=1, h=2, d_mlp=16, M=5, N=2,
                        num_classes=3, seed=7)
    model = SaneModel(config, dtype=np.float64,
                      rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.random((2, 4, 3))
    y = np.array([0, 2])
    leaves = param_leaves(model)

    err = nm.grad_check(lambda: _loss_node(model, leaves, x, y),
                        list(leaves.values()))
    assert err < 1e-4, f"max relative error {err}"


def test_full_loss_gradcheck_two_blocks():
    # the reverse block loop hands the residual gradient from one block to
    # the one before
    config = SaneConfig(n=4, f=3, d_model=8, e=2, h=2, d_mlp=16, M=5, N=2,
                        num_classes=3, seed=7)
    model = SaneModel(config, dtype=np.float64,
                      rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.random((2, 4, 3))
    y = np.array([0, 2])
    leaves = param_leaves(model)

    err = nm.grad_check(lambda: _loss_node(model, leaves, x, y),
                        list(leaves.values()))
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
        cvae_loss(model, rng.normal(size=(16, c.input_dim)),
                  rng.normal(size=(16, c.cond_dim)),
                  rng.standard_normal((16, c.z_dim)))
    else:
        config = (tiny_config() if model_name == "sane-tiny"
                  else SaneConfig(n=TINY_N, num_classes=3))
        model = SaneModel(config)
        x, y = tiny_splits[0]
        _step(model, x[:16], y[:16])
    peaks = {name: float(np.abs(g).max()) for name, g in model.grads.items()}
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


@pytest.mark.parametrize("labels, message", [
    ([0, 1, 2, -1], "training labels outside 0..2"),
    ([0, 1, 2, 3], "training labels outside 0..2"),
    ([0, 2, 2, 0], "no training data for class 1"),
    ([], "the training split is empty")],
    ids=["negative", "num-classes", "missing-class", "empty"])
def test_bad_training_labels_fatal(labels, message):
    c = tiny_config()
    x = np.zeros((len(labels), c.n, c.f), dtype=np.float32)
    x_val = np.zeros((1, c.n, c.f), dtype=np.float32)
    with pytest.raises(ValueError) as info:
        train_sane(x, np.array(labels, dtype=np.int64), x_val,
                   np.zeros(1, dtype=np.int64), c)
    assert str(info.value) == message


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


def _over(t, node):
    """`node` with its output written over t's data, as the per-op graph
    wrote GELU and the residual sums over the linear outputs they
    consumed."""
    t.data[...] = node.data
    node.data = t.data
    return node


def _graph_forward(model, x, p):
    """`SaneModel.forward` as the per-op graph it replaced, node for node:
    `numerics` primitives and the conftest helpers, over the parameter
    leaves p (`param_leaves`). The logits are a graph node."""
    c = model.config
    x = np.asarray(x, dtype=model.dtype)
    emb = nm.linear(nm.param(x, "input"), p["embed.w"], p["embed.b"])
    sla = broadcast_to(reshape(p["sla"], (1, 1, c.d_model)),
                       (len(x), 1, c.d_model))
    e = nm.add(concat([sla, emb], axis=-2), p["pos"])
    for i in range(c.e):
        w = {k[len(f"block{i}."):]: t for k, t in p.items()
             if k.startswith(f"block{i}.")}
        ctx = nm.attention(nm.layer_norm(e, w["ln1.gain"], w["ln1.bias"]),
                           *(w["attn." + k] for k in ("wq", "bq", "wk", "wv",
                                                      "bv")), heads=c.h)
        r1 = nm.linear(ctx, w["attn.wo"], w["attn.bo"])
        e_r1 = _over(r1, nm.add(e, r1))
        m = nm.linear(nm.layer_norm(e_r1, w["ln2.gain"], w["ln2.bias"]),
                      w["mlp.w1"], w["mlp.b1"])
        m = _over(m, nm.gelu(m))
        m = nm.linear(m, w["mlp.w2"], w["mlp.b2"])
        e = _over(m, nm.add(m, e_r1))
    latent_l = nm.linear(mean_pool(e), p["latent_l.w"], p["latent_l.b"])
    latent_lam = nm.linear(latent_l, p["latent_lam.w"], p["latent_lam.b"])
    logits = nm.linear(latent_lam, p["head.w"], p["head.b"])
    return {"logits": logits, "l": latent_l.data, "lam": latent_lam.data}


def _step(model, x, y, workspace=None):
    """Logits, l, lam, loss and every parameter gradient of one step, in
    `workspace` or in one of its own, as copies."""
    if workspace is None:
        workspace = Workspace(model, len(x))
    out = model.forward(x, workspace)
    loss, g = nm.cross_entropy_arrays(out["logits"], y)
    model.backward(g, workspace)
    return ([out[k].copy() for k in ("logits", "l", "lam")] + [loss],
            {name: g.copy() for name, g in model.grads.items()})


def _graph_step(model, x, y):
    """`_step` through the per-op graph."""
    leaves = param_leaves(model)
    out = _graph_forward(model, x, leaves)
    loss = nm.cross_entropy(out["logits"], y)
    loss.backward()
    return ([out["logits"].data.copy(), out["l"].copy(), out["lam"].copy(),
             loss.data.copy()],
            {name: t.grad.copy() for name, t in leaves.items()})


def _train_through_graph(monkeypatch):
    """Make `SaneModel.forward` build the per-op graph and
    `SaneModel.backward` run it from the logits' gradient into
    `model.grads`."""
    def forward(model, x, workspace=None):
        leaves = param_leaves(model)
        out = _graph_forward(model, x, leaves)
        model.graph = leaves, out["logits"]
        return out | {"logits": out["logits"].data}

    def backward(model, g, workspace):
        leaves, logits = model.graph
        backward_from(logits, g)
        for name, t in leaves.items():
            model.grads[name][...] = t.grad

    monkeypatch.setattr(SaneModel, "forward", forward)
    monkeypatch.setattr(SaneModel, "backward", backward)


def _last_region_widths(**overrides):
    """tiny_config (d_mlp 32), whose MLP region widens to hold attention's
    buffers, and the same with d_mlp 64, whose region holds them as it
    is."""
    return [tiny_config(**overrides, d_mlp=m) for m in (32, 64)]


def test_forward_matches_primitive_graph(tiny_splits, monkeypatch):
    train, val, test, _ = tiny_splits
    x, y = test
    configs = _last_region_widths(e=2, epochs=3)
    trained = []
    for config in configs:
        # a trained model, so that no weight is at its initial value
        model, log = train_sane(*train, *val, config)
        trained.append((model, log))
        # a full batch, and one shorter than the workspace it runs in
        for batch, args in ((16, ()), (9, (Workspace(model, 16),))):
            want = _graph_step(model, x[:batch], y[:batch])
            got = _step(model, x[:batch], y[:batch], *args)
            for g, w in zip(got[0], want[0]):
                assert g.dtype == w.dtype == np.float32
                np.testing.assert_array_equal(g, w)
            assert len(got[1]) == len(model.params)
            for name, g in got[1].items():
                assert g.dtype == np.float32, name
                np.testing.assert_array_equal(g, want[1][name], err_msg=name)

    # every step and validation forward through the graph: 3 epochs of
    # three batches of 16 and one of 6
    _train_through_graph(monkeypatch)
    for config, (model, log) in zip(configs, trained):
        reference, reference_log = train_sane(*train, *val, config)
        assert log == reference_log
        for name, a in model.params.items():
            np.testing.assert_array_equal(a, reference.params[name],
                                          err_msg=name)


# the rule itself, before `helper_thread` stands in for it
_HELPER_GETS_A_CPU = sane._helper_gets_a_cpu


@pytest.fixture(autouse=True, scope="module")
def helper_thread():
    """Steps here run their second halves on the helper thread, as where
    it gets a CPU of its own, whatever CPUs and BLAS threads this process
    has."""
    with mock.patch.object(sane, "_helper_gets_a_cpu", return_value=True):
        if sane._helper is False:
            sane._helper = None
        yield


@pytest.mark.parametrize("cpus, env, want", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (2, {"OMP_NUM_THREADS": "1"}, True),
    # OpenBLAS reads its own variable first
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    (2, {"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "1"}, True),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    # with no count set, BLAS runs one thread per CPU
    (2, {}, False),
    (2, {"MKL_NUM_THREADS": "1"}, False),
])
def test_the_helper_gets_a_cpu_only_beside_one_blas_thread(monkeypatch,
                                                            cpus, env, want):
    for var in (*sane._BLAS_THREAD_VARS, "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(sane.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    assert _HELPER_GETS_A_CPU() is want


def _serial(second_first):
    """A `sane._run_halves` that runs everything on this thread, one whole
    half after the other: a step whose halves share memory without a
    barrier between them then reads what the other half wrote. Its
    full-batch call runs before both halves, or after both, so that one
    order or the other shows a call that reads what a half writes or
    writes what a half reads."""
    def run(work, halves, first=None):
        calls = [lambda half=half: work(half) for half in halves]
        if first is not None:
            calls.insert(0, first)
        for call in reversed(calls) if second_first else calls:
            call()
    return run


@settings(max_examples=30, deadline=None)
@given(h=st.sampled_from([1, 2, 4]), head_width=st.integers(1, 4),
       d_mlp=st.integers(1, 48), e=st.integers(0, 3), batch=st.integers(1, 9))
# one config whose last MLP region widens (lo + 2 d > 2 d_mlp), one whose
# region holds attention's buffers as it is, and one with no encoder block
@example(h=2, head_width=8, d_mlp=20, e=3, batch=9)
@example(h=2, head_width=4, d_mlp=48, e=2, batch=4)
@example(h=2, head_width=4, d_mlp=48, e=0, batch=3)
def test_every_config_steps_as_the_primitive_graph(h, head_width, d_mlp, e,
                                                   batch):
    c = tiny_config(d_model=h * head_width, h=h, d_mlp=d_mlp, e=e)
    model = SaneModel(c, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    # no gain at 1 and no bias at 0
    model.data += rng.normal(0.0, 0.1, model.data.shape).astype(model.dtype)
    x = rng.standard_normal((batch, c.n, c.f), dtype=np.float32)
    y = np.arange(batch) % c.num_classes
    want = _graph_step(model, x, y)
    for order in ("first half first", "second half first"):
        with mock.patch.object(sane, "_run_halves",
                               _serial(order == "second half first")):
            got = _step(model, x, y)
        for g, w in zip(got[0], want[0]):
            np.testing.assert_array_equal(g, w, err_msg=order)
        for name, g in got[1].items():
            np.testing.assert_array_equal(g, want[1][name],
                                          err_msg=f"{name}, {order}")


def test_a_half_that_fails_raises_once_both_halves_return():
    returned = []

    def work(half):
        if half == "second":
            time.sleep(0.05)
        returned.append(half)
        if half != "ok":
            raise ValueError(half)

    # both fail: the first half's error, after the slower second returned
    with pytest.raises(ValueError, match="^first$"):
        sane._run_halves(work, ["first", "second"])
    assert sorted(returned) == ["first", "second"]
    with pytest.raises(ValueError, match="^second$"):
        sane._run_halves(work, ["ok", "second"])


def test_an_interrupted_wait_for_the_helper_raises_once_it_is_done(
        monkeypatch):
    with sane._helper_busy:
        jobs, outcomes = sane._helper_queues()

    class Interrupted:
        """The helper's outcomes, the first wait for which is interrupted."""

        def __init__(self):
            self.interrupts = 1

        def get(self):
            if self.interrupts:
                self.interrupts -= 1
                raise KeyboardInterrupt
            return outcomes.get()

    monkeypatch.setattr(sane, "_helper", (jobs, Interrupted()))
    returned = []

    def work(half):
        if half == "second":
            time.sleep(0.05)
        returned.append(half)

    with pytest.raises(KeyboardInterrupt):
        sane._run_halves(work, ["first", "second"])
    assert sorted(returned) == ["first", "second"]
    # no outcome is left for the next call
    assert outcomes.empty()


def test_a_non_finite_second_half_is_fatal_and_the_next_step_is_clean(
        tiny_model):
    c = tiny_model.config
    rng = np.random.default_rng(4)
    x = rng.random((6, c.n, c.f), dtype=np.float32)
    y = np.arange(6) % c.num_classes
    workspace = Workspace(tiny_model, 6)
    bad = x.copy()
    # rows 3 to 5 are the second half
    bad[4, 2, 0] = np.nan
    with pytest.raises(nm.NumericsError, match="op 'linear'"):
        tiny_model.forward(bad, workspace)
    with pytest.raises(nm.NumericsError, match="needs a pending forward"):
        tiny_model.backward(np.zeros((6, c.num_classes), np.float32),
                            workspace)
    want = _step(tiny_model, x, y, Workspace(tiny_model, 6))
    got = _step(tiny_model, x, y, workspace)
    for g, w in zip(got[0], want[0]):
        np.testing.assert_array_equal(g, w)
    for name, g in got[1].items():
        np.testing.assert_array_equal(g, want[1][name], err_msg=name)


def test_steps_on_more_threads_than_cores_keep_their_bits():
    # one thread at a time has its halves run by the helper; a step on any
    # other runs both of its halves itself
    c = tiny_config(e=2)
    rng = np.random.default_rng(6)
    xs = [rng.random((6, c.n, c.f), dtype=np.float32) for _ in range(4)]
    y = np.arange(6) % c.num_classes
    models = [SaneModel(c, rng=np.random.default_rng(3)) for _ in xs]
    want = [_step(model, x, y) for model, x in zip(models, xs)]
    got = [None] * len(xs)

    def run(i):
        workspace = Workspace(models[i], len(xs[i]))
        for _ in range(5):
            got[i] = _step(models[i], xs[i], y, workspace)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (outs, grads), (want_outs, want_grads) in zip(got, want):
        for g, w in zip(outs, want_outs):
            np.testing.assert_array_equal(g, w)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


def test_training_starts_at_most_one_thread(tiny_splits, monkeypatch):
    train, val, _, _ = tiny_splits
    # as in a process that has not yet started the helper
    monkeypatch.setattr(sane, "_helper", None)
    before = threading.active_count()
    for _ in range(2):
        train_sane(*train, *val, tiny_config(epochs=1))
    assert threading.active_count() <= before + 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_a_forked_child_steps_with_a_helper_of_its_own(tiny_model):
    c = tiny_model.config
    x = np.random.default_rng(7).random((6, c.n, c.f), dtype=np.float32)
    y = np.arange(6) % c.num_classes
    # the helper this process has: a forked child has none
    want = _step(tiny_model, x, y)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=lambda: sender.send(_step(tiny_model, x, y)))
    child.start()
    try:
        assert receiver.poll(60), "the child's step never returned"
        got = receiver.recv()
    finally:
        child.kill()
        child.join()
    for g, w in zip(got[0], want[0]):
        np.testing.assert_array_equal(g, w)
    for name, g in got[1].items():
        np.testing.assert_array_equal(g, want[1][name], err_msg=name)


def test_no_run_time_path_builds_a_graph_node(tiny_splits, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph node was built")

    monkeypatch.setattr(nm, "Tensor", refuse)
    train, val, test, _ = tiny_splits
    config = tiny_config(epochs=2)
    model, _ = train_sane(*train, *val, config)
    out = model.predict_arrays(test[0])
    cvae_model, _ = train_cvae(out["l"], out["lam"], CvaeConfig(
        input_dim=config.M, cond_dim=config.N, epochs=2))
    samples, _ = generate_pseudo(cvae_model, out["lam"][:3], k=4, seed=0)
    assert np.isfinite(samples).all()


def _arrays(workspace):
    """Every array a workspace holds, both halves' scratch included."""
    return [a for arrays in (*workspace.blocks, workspace.shared,
                             *workspace.scratch)
            for a in arrays.values()]


def test_steps_at_one_shape_allocate_no_workspace_array(tiny_model):
    c = tiny_model.config
    x = np.random.default_rng(0).random((4, c.n, c.f), dtype=np.float32)
    y = np.arange(4) % c.num_classes
    workspace = Workspace(tiny_model, 4)
    before = [(a, a.__array_interface__["data"])
              for a in _arrays(workspace) + [tiny_model.grad]]
    first = _step(tiny_model, x, y, workspace)
    # the second step overwrites every gradient in the same buffer
    tiny_model.grad[...] = np.nan
    out = tiny_model.forward(x, workspace)
    tiny_model.backward(nm.cross_entropy_arrays(out["logits"], y)[1],
                        workspace)
    assert [(a, a.__array_interface__["data"])
            for a in _arrays(workspace) + [tiny_model.grad]] == before
    assert_flat_views(tiny_model)
    # the outputs are workspace memory
    assert np.shares_memory(out["logits"], workspace.shared["logits"])
    assert np.shares_memory(out["l"], workspace.shared["l"])
    np.testing.assert_array_equal(out["logits"], first[0][0])
    for name, g in tiny_model.grads.items():
        np.testing.assert_array_equal(g, first[1][name])


def test_a_shorter_batch_in_a_larger_workspace_is_bit_identical():
    for c in _last_region_widths():
        model = SaneModel(c, rng=np.random.default_rng(3))
        rng = np.random.default_rng(1)
        small = rng.random((3, c.n, c.f), dtype=np.float32)
        large = rng.random((7, c.n, c.f), dtype=np.float32)
        y = np.arange(7) % c.num_classes
        want = _step(model, small, y[:3], Workspace(model, 3))
        workspace = Workspace(model, 7)
        _step(model, large, y, workspace)
        got = _step(model, small, y[:3], workspace)
        for g, w in zip(got[0], want[0]):
            np.testing.assert_array_equal(g, w)
        for name, g in got[1].items():
            np.testing.assert_array_equal(g, want[1][name], err_msg=name)
        with pytest.raises(ValueError, match="does not fit"):
            model.forward(np.concatenate([large, small]), workspace)


def test_backward_runs_once_per_forward(tiny_model):
    c = tiny_model.config
    x = np.random.default_rng(3).random((4, c.n, c.f), dtype=np.float32)
    y = np.arange(4) % c.num_classes
    workspace = Workspace(tiny_model, 4)
    want = _step(tiny_model, x, y, workspace)
    # a second backward would read the MLP's gradients as GELU's outputs
    with pytest.raises(nm.NumericsError, match="needs a pending forward"):
        tiny_model.backward(nm.cross_entropy_arrays(want[0][0], y)[1],
                            workspace)
    # and a workspace that never ran a forward has none either
    with pytest.raises(nm.NumericsError, match="needs a pending forward"):
        tiny_model.backward(nm.cross_entropy_arrays(want[0][0], y)[1],
                            Workspace(tiny_model, 4))
    got = _step(tiny_model, x, y, workspace)
    for g, w in zip(got[0], want[0]):
        np.testing.assert_array_equal(g, w)
    for name, g in got[1].items():
        np.testing.assert_array_equal(g, want[1][name], err_msg=name)


def test_predict_arrays_outputs_never_alias_the_workspace(tiny_model):
    c = tiny_model.config
    x = np.random.default_rng(2).random((10, c.n, c.f), dtype=np.float32)
    workspace = Workspace(tiny_model, 4)
    # several batches, and one
    for rows in (10, 4):
        out = tiny_model.predict_arrays(x[:rows], batch_size=4,
                                        workspace=workspace)
        for data in out.values():
            assert data.flags.owndata and len(data) == rows
            assert not any(np.shares_memory(data, a)
                           for a in _arrays(workspace))
    # with no workspace given it uses one of its own, and returns the same
    for name, data in tiny_model.predict_arrays(x[:4], batch_size=4).items():
        assert data.flags.owndata
        np.testing.assert_array_equal(data, out[name])


@pytest.mark.parametrize("n", [25, 200])
def test_predict_arrays_does_not_depend_on_the_batch_split(n):
    # a one-sequence batch is not covered: its head products differ in
    # the last bits from the same sequence's in a larger batch
    c = SaneConfig(n=n, num_classes=10)
    model = SaneModel(c)
    x = np.random.default_rng(n).standard_normal((64, n, c.f),
                                                 dtype=np.float32)
    want = model.predict_arrays(x, batch_size=64)
    for batch_size in (32, 8):
        got = model.predict_arrays(x, batch_size=batch_size)
        for name in ("l", "lam", "logits"):
            np.testing.assert_array_equal(got[name], want[name],
                                          err_msg=f"{name}, {batch_size}")


def _traced_training_peak(steps):
    """tracemalloc's peak over `train_sane` on `steps` batches of 16, with
    3 validation sequences: the validation forward is smaller than a
    training step's, so a one-step run holds one step's graph at its
    peak."""
    c = tiny_config(batch_size=16, epochs=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16 * steps, c.n, c.f), dtype=np.float32)
    y = np.arange(16 * steps) % c.num_classes
    x_val = rng.standard_normal((3, c.n, c.f), dtype=np.float32)
    y_val = np.arange(3) % c.num_classes
    tracemalloc.start()
    try:
        train_sane(x, y, x_val, y_val, c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_one_step_of_memory():
    # a step whose forward runs while the last step's graph is alive peaks
    # at about two graphs: 1.45 times a one-step run on this config
    assert _traced_training_peak(6) <= 1.05 * _traced_training_peak(1)


def test_a_training_step_keeps_only_what_backward_reads():
    made = []

    class Recording(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    c = tiny_config(e=2, batch_size=16, epochs=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, c.n, c.f), dtype=np.float32)
    x_val = rng.standard_normal((3, c.n, c.f), dtype=np.float32)
    with mock.patch.object(sane, "Workspace", Recording):
        train_sane(x, np.arange(16) % c.num_classes, x_val,
                   np.arange(3) % c.num_classes, c)
    (workspace,) = made
    _assert_workspace_bytes(workspace, c)


def test_a_default_shape_workspace_takes_at_most_55_mib():
    # 64 sequences of T = 201 tokens; np.empty touches no page of it
    c = SaneConfig(num_classes=10)
    workspace = Workspace(SaneModel(c), c.batch_size)
    assert _assert_workspace_bytes(workspace, c) <= 55 * 2 ** 20


# one default-shape training step in a fresh process: its peak RSS in
# bytes before and after. The peak is the process's VmHWM, not ru_maxrss:
# ru_maxrss keeps the peak of the process that forked it across exec, and a
# test process's peak lies far above a step's
FRESH_STEP = """
import re
# zest before numpy, so that BLAS runs one thread and the helper a half
from zest import numerics as nm
from zest.sane import SaneConfig, SaneModel, Workspace
import numpy as np

def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read())[1]) * 1024

c = SaneConfig(num_classes=10)
model = SaneModel(c)
rng = np.random.default_rng(0)
x = rng.standard_normal((c.batch_size, c.n, c.f), dtype=np.float32)
y = np.arange(c.batch_size) % c.num_classes
before = peak()
workspace = Workspace(model, c.batch_size)
_, g = nm.cross_entropy_arrays(model.forward(x, workspace)["logits"], y)
model.backward(g, workspace)
print(before, peak())
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from Linux's /proc")
def test_a_fresh_training_step_peaks_at_its_workspace():
    # the byte model counts the workspace's arrays; this also sees any
    # full-size temporary a step makes beside them
    c = SaneConfig(num_classes=10)
    src = Path(sane.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", FRESH_STEP], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    before, after = map(int, done.stdout.split())
    assert after - before <= _workspace_bytes(c) + 8 * 2 ** 20


@pytest.mark.parametrize("d_model, d_mlp, e", [
    (64, 64, 6), (16, 16, 6), (16, 40, 2), (64, 128, 2), (64, 158, 2),
    (64, 160, 2), (64, 256, 1), (64, 512, 6), (128, 256, 2), (128, 320, 3)])
def test_no_config_grows_its_workspace(d_model, d_mlp, e):
    c = SaneConfig(d_model=d_model, d_mlp=d_mlp, e=e, num_classes=10)
    total = _assert_workspace_bytes(Workspace(SaneModel(c), c.batch_size), c)
    rows = c.batch_size * (c.n + 1)
    # the earlier layout: each block but the last kept its own MLP region
    # of 2 d_mlp columns, and the last block's region, widened where
    # 2 d_mlp did not reach, also held the shared ln, projections and
    # context gradient
    lo = max(6 * d_model, d_mlp)
    earlier = total + 4 * rows * (
        e * 2 * d_mlp + max(0, lo + 2 * d_model - 2 * d_mlp)
        - max(2 * d_mlp, lo + 2 * d_model))
    assert total < earlier if e >= 2 else total == earlier


def _assert_workspace_bytes(workspace, c):
    """Assert that `workspace`, made for config c's batch size, holds what
    a step's backward reads and its shared arrays, and return its bytes:
    those of each memory buffer under its arrays, once."""
    buffers = {}
    for a in _arrays(workspace):
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a
    total = sum(a.nbytes for a in buffers.values())
    assert total == _workspace_bytes(c)
    return total


def _workspace_bytes(c):
    """The bytes of a workspace for config c's batch size."""
    b, t, d, h = c.batch_size, c.n + 1, c.d_model, c.h
    # per block, in (B, T) rows of float32, what backward reads and cannot
    # rebuild: both layer norms' xhat and the context (3 d), and the row
    # statistics: each layer norm's 1 / std (2) and attention's score max
    # and sum per head (2 h). No layer norm output, residual sum,
    # projection (q, k, v or their packed product) or MLP array is kept
    block = b * t * (3 * d + 2 + 2 * h)
    shared = (b * t * d                          # the stem
              + b * (d + c.M + c.N + c.num_classes)  # the head's outputs
              # the residual sum E + R1; in backward, a layer norm input
              # gradient
              + b * t * d
              # the head's gradients
              + b * (d + c.M + c.N))
    # one MLP region that every block shares: GELU's output, written over
    # the w1 output, and its derivative (2 d_mlp), which backward rebuilds
    # for each block but the last, and over them a layer norm output and
    # attention's projections (in backward, rebuilt ones) and the context
    # gradient: the packed qkv product from 0, q, k and v from 3 d, the
    # other two past both those and GELU's output, widening the region
    # where 2 d_mlp does not reach
    region = b * t * max(2 * c.d_mlp, max(6 * d, c.d_mlp) + 2 * d)
    # each row half's scratch, for its (b + 1) // 2 rows: attention's two
    # score and two context arrays per chunk, whose scores hold at most
    # half of ATTN_SCORE_ELEMS elements (whole sequences, or a run of one
    # sequence's heads), or GELU's four blocks over the same memory
    half, budget = (b + 1) // 2, nm.ATTN_SCORE_ELEMS // 2
    if h * t * t <= budget:
        chunk = min(half, budget // (h * t * t)) * h
    else:
        chunk = max(1, budget // (t * t))
    assert chunk * t * t <= budget
    scratch = max(2 * chunk * t * (t + d // h),
                  4 * min(half * t * c.d_mlp, nm.GELU_BLOCK_ELEMS))
    return 4 * (c.e * block + region + shared + 2 * scratch)

"""Shared fixtures: small synthetic datasets and trained tiny models; the
graph nodes the tests build reference composites from, which the models
no longer use: mul, scale, mean_pool, concat, reshape and broadcast_to;
and the adapter that puts a model, which runs on arrays, into a graph:
`param_leaves` and `model_node`; and `write_profiles`, which writes a
profile file."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings

from zest import numerics as nm
from zest.checkpoint import write_json
from zest.ingest import (apply_normalizer, build_dataset, fit_normalizer,
                         split_indices)
from zest.sane import SaneConfig, SaneModel, train_sane
from zest.synth import DeviceProfile, generate_records

# property tests draw the same examples on every run, and a failure prints
# the blob that replays it
settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")

TINY_N = 10


def tiny_profiles(num_devices=3, sessions=30):
    """Well-separated small devices for fast training tests."""
    ports = [53, 443, 123, 80, 1883, 5353]
    protos = ["udp", "tcp", "udp", "tcp", "tcp", "udp"]
    profiles = []
    for i in range(num_devices):
        profiles.append(DeviceProfile(
            device_id=f"tiny-{i:02d}",
            proto_probs={"tcp": 0.0, "udp": 0.0, "other": 0.0}
            | {protos[i]: 1.0},
            port_probs={ports[i]: 0.9, ports[(i + 1) % len(ports)]: 0.1},
            direction_probs={"out": 0.3 + 0.1 * i, "in": 0.7 - 0.1 * i},
            size_log_mean=4.0 + 0.5 * i, size_log_sigma=0.3,
            iat_log_mean=-2.0 + 0.5 * i, iat_log_sigma=0.4,
            sessions=sessions, packets_per_session=TINY_N,
        ))
    return profiles


def write_profiles(profiles, path):
    """A profile file: the JSON list of `profiles`, which a `profiles`
    source reads back to equal profiles."""
    write_json(path, [asdict(p) for p in profiles])


def mul(a, b):
    """Elementwise product as a graph node, with a finite check."""
    out_data = a.data * b.data
    nm.require_finite("mul", out_data)
    out = nm.Tensor(out_data, name="mul", _parents=(a, b))

    def bw(o):
        a._accumulate(nm._unbroadcast(o.grad * b.data, a.shape))
        b._accumulate(nm._unbroadcast(o.grad * a.data, b.shape))

    out._backward = bw
    return out


def scale(a, c):
    """a times the constant c as a graph node, with a finite check."""
    out_data = a.data * c
    nm.require_finite("scale", out_data)
    out = nm.Tensor(out_data, name="scale", _parents=(a,))
    out._backward = lambda o: a._accumulate(o.grad * c)
    return out


def mean_pool(x):
    """Mean over the row axis (second-to-last)."""
    if x.data.ndim < 2:
        raise nm.NumericsError("mean_pool needs at least 2 dims")
    n = x.data.shape[-2]
    out_data = x.data.mean(axis=-2)
    nm.require_finite("mean_pool", out_data)
    out = nm.Tensor(out_data, name="mean_pool", _parents=(x,))
    out._backward = lambda o: x._accumulate(
        np.repeat(np.expand_dims(o.grad / n, -2), n, axis=-2))
    return out


def concat(tensors, axis=-1):
    """np.concatenate as a graph node, with a finite check."""
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    nm.require_finite("concat", out_data)
    out = nm.Tensor(out_data, name="concat", _parents=tuple(tensors))

    def bw(o):
        offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(o.grad, offsets, axis=axis)):
            t._accumulate(piece)

    out._backward = bw
    return out


def reshape(x, shape):
    out = nm.Tensor(x.data.reshape(shape), name="reshape", _parents=(x,))
    out._backward = lambda o: x._accumulate(o.grad.reshape(x.shape))
    return out


def broadcast_to(x, shape):
    """x broadcast to `shape`, copied into an array of its own."""
    out = nm.Tensor(np.broadcast_to(x.data, shape).copy(), name="broadcast",
                    _parents=(x,))

    def bw(o):
        g = nm._unbroadcast(o.grad, x.shape)
        x._accumulate(g.copy() if g is o.grad else g)

    out._backward = bw
    return out


def param_leaves(model):
    """One leaf tensor per parameter of `model`, by name, over the model's
    own view of it: `nm.grad_check` then perturbs the model's parameters."""
    return {name: nm.param(view, name) for name, view in model.params.items()}


def model_node(model, leaves, loss, backward=lambda: None):
    """A model's scalar `loss` as one graph node whose parents are `leaves`
    (`param_leaves`). Its backward calls `backward()`, which fills
    `model.grads` unless the loss did, and hands each leaf its gradient
    times the node's."""
    out = nm.Tensor(np.asarray(loss, dtype=model.dtype), name="model",
                    _parents=tuple(leaves.values()))

    def bw(o):
        backward()
        for name, t in leaves.items():
            t._accumulate(o.grad * model.grads[name])

    out._backward = bw
    return out


def assert_flat_views(model):
    """Every parameter and gradient view of `model` lies in its flat `data`
    and `grad` buffers, and together the views tile them."""
    for views, flat in ((model.params, model.data), (model.grads, model.grad)):
        assert all(np.shares_memory(a, flat) for a in views.values())
        assert sum(a.size for a in views.values()) == flat.size


def backward_from(node, g):
    """Run the graph's backward from a non-scalar `node` whose gradient is
    g."""
    root = nm.Tensor(np.zeros((), node.dtype), _parents=(node,))
    root._backward = lambda o: node._accumulate(g)
    root.backward()


def tiny_config(num_classes=3, **overrides):
    defaults = dict(n=TINY_N, f=8, d_model=16, e=1, h=2, d_mlp=32, M=8, N=3,
                    num_classes=num_classes, batch_size=16, epochs=10,
                    learning_rate=5e-3, seed=0)
    defaults.update(overrides)
    return SaneConfig(**defaults)


def make_tiny_splits(num_devices=3, sessions=30, seed=0):
    """Normalized (x, y) pairs for train, val and test, plus the profiles."""
    profiles = tiny_profiles(num_devices, sessions)
    dataset = build_dataset(generate_records(profiles, seed=seed), n=TINY_N)
    idx = split_indices(dataset.labels, seed=seed)
    norm = fit_normalizer(dataset.features[idx["train"]])
    train, val, test = (
        (apply_normalizer(norm, dataset.features[idx[name]]),
         dataset.labels[idx[name]]) for name in ("train", "val", "test"))
    return train, val, test, profiles


@pytest.fixture(scope="session")
def tiny_splits():
    return make_tiny_splits()


@pytest.fixture(scope="session")
def tiny_trained(tiny_splits):
    train, val, test, _ = tiny_splits
    model, log = train_sane(*train, *val, tiny_config())
    return model, log, test


@pytest.fixture(scope="session")
def tiny_model():
    return SaneModel(tiny_config(), rng=np.random.default_rng(3))

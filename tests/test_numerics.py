"""Gradient correctness of every primitive against central finite
differences, the GELU kernel's error against the erf-based GELU, `linear`
and the flat Adam against reference forms, plus serialization."""

import json
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from conftest import broadcast_to, concat, mean_pool, mul, reshape, scale
from zest import numerics as nm
from zest.checkpoint import CONFIG_KEY, load_checkpoint, save_checkpoint
from zest.cvae import CvaeConfig, CvaeModel
from zest.params import Model

RNG_SEEDS = list(range(12))


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _l2_loss(out, target):
    """Sum of squared errors over the last axis, averaged over the batch,
    from primitives with their own checks: the l1 loss of d * d."""
    d = nm.add(out, nm.param(-np.asarray(target)))
    return nm.l1_loss(mul(d, d), np.zeros(out.shape))


def _check(f, params, tol=1e-4):
    err = nm.grad_check(f, params)
    assert err < tol, f"gradient error {err}"
    return err


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_add_mul_scale_exp(seed):
    rng = np.random.default_rng(seed)
    a = nm.param(_rand(rng, 3, 4))
    b = nm.param(_rand(rng, 3, 4))
    row = nm.param(_rand(rng, 4))
    w = nm.param(_rand(rng, 4, 2))

    def f():
        s = nm.add(a, b)
        s = nm.add(s, row)                 # broadcast add
        s = mul(s, b)
        s = scale(s, 0.7)
        s = nm.exp(scale(s, 0.1))
        s = nm.matmul(s, w)
        return _l2_loss(s, np.zeros((3, 2)))

    _check(f, [a, b, row, w])


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_linear_softmax_ce(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, 5, 4)
    w = nm.param(_rand(rng, 4, 3))
    b = nm.param(_rand(rng, 3))
    labels = rng.integers(0, 3, 5)

    def f():
        return nm.cross_entropy(nm.linear(nm.param(x), w, b), labels)

    _check(f, [w, b])


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_softmax_composite(seed):
    rng = np.random.default_rng(seed)
    x = nm.param(_rand(rng, 4, 6))
    w = nm.param(_rand(rng, 6, 6))

    def f():
        s = nm.softmax(nm.matmul(x, w))
        return _l2_loss(s, np.full((4, 6), 1.0 / 6.0))

    _check(f, [x, w])


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_layer_norm_gelu(seed):
    rng = np.random.default_rng(seed)
    x = nm.param(_rand(rng, 3, 8))
    gain = nm.param(1.0 + 0.1 * _rand(rng, 8))
    bias = nm.param(0.1 * _rand(rng, 8))

    def f():
        h = nm.layer_norm(x, gain, bias)
        h = nm.gelu(h)
        return _l2_loss(h, np.zeros((3, 8)))

    _check(f, [x, gain, bias])


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_pool_concat_reshape_transpose(seed):
    rng = np.random.default_rng(seed)
    a = nm.param(_rand(rng, 2, 3, 4))
    b = nm.param(_rand(rng, 2, 1, 4))

    def f():
        c = concat([b, a], axis=-2)           # (2, 4, 4)
        c = reshape(c, (2, 16))
        c = reshape(c, (2, 4, 4))
        p = mean_pool(c)                      # (2, 4)
        return _l2_loss(p, np.zeros((2, 4)))

    _check(f, [a, b])


def _attention_inputs(rng, batch, tokens, d):
    """x, wq, bq, wk, wv, bv as float64 leaf tensors."""
    return [nm.param(_rand(rng, *shape)) for shape in
            ((batch, tokens, d), (d, d), (d,), (d, d), (d, d), (d,))]


def _transpose(x, axes):
    """Axis permutation with its backward rule, for the reference below."""
    out = nm.Tensor(x.data.transpose(axes), _parents=(x,))
    out._backward = lambda o: x._accumulate(
        o.grad.transpose(np.argsort(axes)))
    return out


def _reference_attention(x, wq, bq, wk, wv, bv, heads):
    """Attention as a composite of linear, scale, reshape, matmul and
    softmax."""
    batch, tokens, d = x.shape

    def split_heads(t):
        t = reshape(t, (batch, tokens, heads, d // heads))
        return _transpose(t, (0, 2, 1, 3))

    q = scale(nm.linear(x, wq, bq), 1.0 / np.sqrt(d // heads))
    q, k, v = (split_heads(t) for t in
               (q, nm.matmul(x, wk), nm.linear(x, wv, bv)))
    attn = nm.softmax(nm.matmul(q, _transpose(k, (0, 1, 3, 2))))
    ctx = _transpose(nm.matmul(attn, v), (0, 2, 1, 3))
    return reshape(ctx, (batch, tokens, d))


@pytest.mark.parametrize("seed", RNG_SEEDS[:6])
def test_grad_attention(seed):
    rng = np.random.default_rng(seed)
    inputs = _attention_inputs(rng, 3, 5, 6)
    target = _rand(rng, 3, 5, 6)

    def f():
        return _l2_loss(nm.attention(*inputs, heads=2), target)

    _check(f, inputs)


@pytest.mark.parametrize("tokens, d, heads, full_chunks, w_scale, shift", [
    pytest.param(96, 8, 1, 2, 1.0, 0.0, id="1"),
    pytest.param(96, 8, 2, 2, 1.0, 0.0, id="2"),
    # SANE's short-sequence shape, weights at its Xavier scale 1/sqrt(d)
    pytest.param(26, 64, 8, 1, 0.125, 0.0, id="sane-short"),
    # a large component shared by every key adds the same amount to every
    # score of a query: the softmax is unchanged, but unshifted float32 exp
    # would overflow, and a shift that is not each query's own max can
    # leave a query's exp-sum 0: at 50, some query's max lies more than 745
    # below its chunk's max, where float64 exp underflows
    pytest.param(96, 8, 2, 1, 1.0, 50.0, id="large-scores"),
    # one sequence's scores exceed a chunk: each of the two sequences runs
    # in runs of 2, 2 and 1 of its 5 heads
    pytest.param(300, 10, 5, 2, 1.0, 0.0, id="heads-within-a-sequence"),
])
def test_attention_matches_composite_across_chunks(tokens, d, heads,
                                                   full_chunks, w_scale,
                                                   shift):
    step = nm.ATTN_SCORE_ELEMS // (heads * tokens * tokens)
    if step:
        # full chunks of whole sequences and a shorter last one
        batch = full_chunks * step + step // 2
        assert step >= 2 and batch % step
    else:
        # full_chunks sequences, each in runs of `run` of its heads and a
        # shorter last run
        run = nm.ATTN_SCORE_ELEMS // (tokens * tokens)
        batch = full_chunks
        assert 1 <= run < heads and heads % run
    rng = np.random.default_rng(heads)
    inputs = _attention_inputs(rng, batch, tokens, d)
    x, wq, bq, wk, wv, bv = (t.data for t in inputs)
    for w in (wq, wk, wv):
        w *= w_scale
    if shift:
        # x[..., 0] then reaches only k, where it is shared by every key
        wq[0] = wv[0] = 0.0
        x[..., 0] += shift
        q, k = (a.reshape(batch, tokens, heads, -1)
                for a in (x @ wq + bq, x @ wk))
        scores = np.einsum("bqhe,bkhe->bhqk", q, k) / np.sqrt(d // heads)
        assert np.abs(scores).max() > np.log(np.finfo(np.float32).max)
    target = _rand(rng, batch, tokens, d)
    grads = []
    for f in (nm.attention, _reference_attention):
        for t in inputs:
            t.zero_grad()
        out = f(*inputs, heads=heads)
        _l2_loss(out, target).backward()
        grads.append((out.data, [t.grad for t in inputs]))
    (out, got), (ref_out, want) = grads
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-12)


def test_attention_non_finite_is_fatal():
    rng = np.random.default_rng(4)
    inputs = _attention_inputs(rng, 2, 3, 4)
    inputs[0].data[1, 2, 0] = np.nan
    with pytest.raises(nm.NumericsError, match="attention"):
        nm.attention(*inputs, heads=2)
    # finite q and k whose dot product overflows float32 to -inf in a row
    # that also has a finite score, so the softmax alone would hide it
    x = np.array([[[1e20, 1e20], [1.0, 1.0]]], dtype=np.float32)
    eye, zero = np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32)
    weights = [eye, zero, -eye, eye, zero]
    with np.errstate(over="ignore"), \
            pytest.raises(nm.NumericsError, match="attention"):
        nm.attention(nm.param(x), *map(nm.param, weights), heads=1)


def test_attention_shape_mismatch():
    rng = np.random.default_rng(5)
    inputs = _attention_inputs(rng, 2, 3, 4)
    with pytest.raises(nm.NumericsError, match="attention shape"):
        nm.attention(*inputs, heads=3)
    inputs[3] = nm.param(_rand(rng, 4, 5))
    with pytest.raises(nm.NumericsError, match="attention shape"):
        nm.attention(*inputs, heads=2)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_l1_and_kl(seed):
    rng = np.random.default_rng(seed)
    mu = nm.param(_rand(rng, 4, 3))
    logvar = nm.param(0.5 * _rand(rng, 4, 3))
    pred = nm.param(_rand(rng, 4, 5) + 2.0)   # keep |diff| away from 0
    target = np.zeros((4, 5))

    def f():
        return nm.add(nm.l1_loss(pred, target), nm.gaussian_kl(mu, logvar))

    _check(f, [mu, logvar, pred])


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_grad_broadcast(seed):
    rng = np.random.default_rng(seed)
    v = nm.param(_rand(rng, 5))

    def f():
        t = broadcast_to(reshape(v, (1, 1, 5)), (2, 3, 5))
        return _l2_loss(mean_pool(t), np.zeros((2, 5)))

    _check(f, [v])


def test_grad_check_scalar_square():
    x = nm.param(np.array([3.0]))

    def f():
        return mul(x, x)

    x.zero_grad()
    out = f()
    out.backward()
    assert abs(x.grad[0] - 6.0) < 1e-12
    assert nm.grad_check(f, [x]) < 1e-8


def test_softmax_symmetry_and_rows():
    s = nm.softmax(nm.param(np.zeros((1, 3))))
    np.testing.assert_allclose(s.data, np.full((1, 3), 1 / 3), atol=1e-12)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 7))
    out = nm.softmax(nm.param(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=(4, 6))
        shift = rng.normal()
        a = nm.softmax(nm.param(x)).data
        b = nm.softmax(nm.param(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-6)


def _reference_layer_norm(x, gain, bias, g):
    """Output and x, gain and bias gradients by `np.mean`, in float64."""
    x, gain, bias, g = (np.asarray(a, dtype=np.float64)
                        for a in (x, gain, bias, g))
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True)
                            + nm.LN_EPS)
    xhat = centered * inv_std
    gxhat = g * gain
    gx = inv_std * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    d = x.shape[-1]
    return (gain * xhat + bias, gx, (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


def test_layer_norm_standardizes_and_shift_invariant():
    rng = np.random.default_rng(2)
    for width in (1, 3, 64):
        x = rng.normal(size=(6, width)) * 3 + 5
        gain = nm.param(np.ones(width))
        bias = nm.param(np.zeros(width))
        out = nm.layer_norm(nm.param(x), gain, bias).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-5)
        # a single value normalises to 0
        np.testing.assert_allclose(out.var(axis=1), float(width > 1),
                                   atol=1e-3)
        shifted = nm.layer_norm(nm.param(x + 7.5), gain, bias).data
        np.testing.assert_allclose(out, shifted, atol=1e-5)
        # float32, as the models run, against the float64 reference
        x, gain, bias, g = (rng.normal(size=shape).astype(np.float32)
                            for shape in ((4, 5, width), (width,), (width,),
                                          (4, 5, width)))
        x = x * 3 + 5
        leaves = [nm.param(a) for a in (x, gain, bias)]
        out = nm.layer_norm(*leaves)
        out.grad = g
        out._backward(out)
        want = _reference_layer_norm(x, gain, bias, g)
        for got, ref in zip([out.data] + [t.grad for t in leaves], want):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)


def test_matmul_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5))
    out = nm.matmul(nm.param(np.eye(3)), nm.param(a)).data
    np.testing.assert_allclose(out, a, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(nm.NumericsError):
        nm.matmul(nm.param(np.ones((2, 3))), nm.param(np.ones((2, 3))))


def test_cross_entropy_confident_limit():
    logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    loss = nm.cross_entropy(nm.param(logits), np.array([0, 1]))
    assert float(loss.data) < 1e-9


def test_cross_entropy_rejects_bad_labels():
    logits = nm.param(np.array([[0.0, 1.0, 2.0]]))
    nm.cross_entropy(logits, np.array([2]))
    for labels in (np.array([-1]), np.array([3]), np.array([2.0])):
        with pytest.raises(nm.NumericsError, match="cross_entropy labels"):
            nm.cross_entropy(logits, labels)


def test_non_finite_is_fatal():
    with pytest.raises(nm.NumericsError, match="exp"):
        nm.exp(nm.param(np.array([1e6])))


# signed zeros, subnormals, |x| > 6 up to the float32 limit, and a grid
# over the range where the cdf is neither 0 nor 1
_GELU_EDGES = np.concatenate([
    np.array([0.0, -0.0, 1e-45, -1e-45, 1e-39, -1e-39, 6.5, -6.5, 40.0,
              -40.0, 1e30, -1e30, 3.4e38, -3.4e38], dtype=np.float32),
    np.linspace(-8.0, 8.0, 4001, dtype=np.float32)])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float32, st.integers(1, 300),
              elements=st.floats(width=32, allow_nan=False,
                                 allow_infinity=False)),
       st.integers(256, 8192))
def test_gelu_within_5e7_of_erf_gelu(x, block):
    x = np.concatenate([x, _GELU_EDGES])
    x64 = x.astype(np.float64)
    want = x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    with mock.patch.object(nm, "GELU_BLOCK_ELEMS", block):
        got = nm.gelu(nm.param(x)).data
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 5e-7


def test_gelu_non_finite_is_fatal():
    for bad in (np.nan, np.inf, -np.inf):
        # the bad value sits in the second of three blocks
        x = np.linspace(-3.0, 3.0, 12, dtype=np.float32)
        x[6] = bad
        with mock.patch.object(nm, "GELU_BLOCK_ELEMS", 5), \
                pytest.raises(nm.NumericsError, match="gelu"):
            nm.gelu(nm.param(x))


def _bits(a):
    """The bytes of an array, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).tobytes()


# both sides of the clamp at |x| / sqrt 2 = 4, and float64 subnormals and
# magnitudes beyond the float32 range
_GELU_EDGES_64 = np.concatenate([
    _GELU_EDGES.astype(np.float64),
    [5.656, -5.656, 5.658, -5.658, 5e-324, -5e-324, 1e-310, 1e300, -1e300],
    np.linspace(-8.0, 8.0, 3001)])


@pytest.mark.parametrize("x", [
    np.concatenate([_GELU_EDGES, np.float32([5.656, -5.656, 5.658,
                                             -5.658])]),
    _GELU_EDGES_64], ids=["float32", "float64"])
def test_gelu_over_its_input_is_bit_identical(x):
    with mock.patch.object(nm, "GELU_BLOCK_ELEMS", 1000):
        want, want_deriv = nm.gelu_arrays(x)
        inplace = x.copy()
        got, got_deriv = nm.gelu_arrays(inplace, out=inplace)
    assert got is inplace
    assert _bits(got) == _bits(want) and _bits(got_deriv) == _bits(want_deriv)
    # and as a graph node, whose backward is one product with the derivative
    t = nm.param(x.reshape(1, -1).copy())
    g = nm.gelu(t)
    assert _bits(g.data) == _bits(want)
    nm.l1_loss(g, np.zeros(g.shape)).backward()
    np.testing.assert_array_equal(t.grad[0], np.sign(want) * want_deriv)


def test_gelu_over_its_input_non_finite_is_fatal():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.linspace(-3.0, 3.0, 12, dtype=np.float32)
        x[6] = bad
        with mock.patch.object(nm, "GELU_BLOCK_ELEMS", 5), \
                pytest.raises(nm.NumericsError, match="gelu"):
            nm.gelu_arrays(x, out=x)


def test_gelu_rejects_an_out_it_cannot_fill():
    x = np.zeros((4, 6), dtype=np.float32)
    for out in (np.zeros((4, 5), np.float32), np.zeros((4, 6)),
                np.zeros((6, 4), np.float32).T):
        with pytest.raises(nm.NumericsError, match="gelu out"):
            nm.gelu_arrays(x, out=out)


def _reference_linear(x, w, b, g):
    """Output and x, w, b gradients of x @ w + b for the upstream gradient
    g, with the input gradient as one 3-D product."""
    k, n = w.shape
    return (x @ w + b, g @ w.T, x.reshape(-1, k).T @ g.reshape(-1, n),
            g.reshape(-1, n).sum(axis=0))


@pytest.mark.parametrize("shape", [(4, 26, 64, 256), (3, 7, 256, 64),
                                   (2, 5, 8, 64)])
def test_linear_matches_3d_reference(shape):
    batch, tokens, k, n = shape
    rng = np.random.default_rng(k + n)
    # small integers: every product and sum is exact in float32, so any
    # summation order gives the same bits
    x, w, b, g = (rng.integers(-4, 5, size=s).astype(np.float32)
                  for s in ((batch, tokens, k), (k, n), (n,),
                            (batch, tokens, n)))
    xt, wt, bt = nm.param(x), nm.param(w), nm.param(b)
    out = nm.linear(xt, wt, bt)
    out.grad = g
    out._backward(out)
    want = _reference_linear(x, w, b, g)
    for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("x_shape", [(12, 16), (3, 4, 16)])
def test_linear_backward_may_write_x_gradient_over_x(x_shape):
    rng = np.random.default_rng(len(x_shape))
    k, n = x_shape[-1], 24
    x, w, g = (rng.standard_normal(s, dtype=np.float32)
               for s in (x_shape, (k, n), x_shape[:-1] + (n,)))

    def backward(x, gw, gb, gx):
        # the full-batch half reads x before the per-row half writes gx
        nm.linear_param_grads(g, x, gw, gb)
        nm.linear_input_grad(g, w, gx)

    want = (np.empty((k, n), np.float32), np.empty(n, np.float32),
            np.empty_like(x))
    backward(x, *want)
    got = (np.empty((k, n), np.float32), np.empty(n, np.float32), x.copy())
    backward(got[2], *got)
    for a, ref in zip(got, want):
        assert a.dtype == np.float32
        np.testing.assert_array_equal(a, ref)


def _adam(data, learning_rate):
    """Adam over the flat float array `data` and a zero gradient buffer."""
    data = np.array(data, dtype=float)
    return nm.Adam(data, np.zeros_like(data), learning_rate)


def _adam_step(opt, g):
    opt.grad[...] = g
    opt.step()


def test_adam_zero_gradient_keeps_params():
    opt = _adam([1.0, -2.0, 3.0], learning_rate=0.1)
    for _ in range(2):
        _adam_step(opt, 0.0)
        np.testing.assert_array_equal(opt.data, [1.0, -2.0, 3.0])


def test_adam_first_step_is_lr_times_sign():
    # bias correction: m_hat = g, v_hat = g^2, update = -lr*g/(|g|+eps)
    g = np.array([0.3, -4.0, 1e-3])
    opt = _adam(np.zeros(3), learning_rate=0.05)
    _adam_step(opt, g)
    np.testing.assert_allclose(opt.data, -0.05 * np.sign(g), rtol=1e-4)
    # the step reads the gradient and leaves it as it was
    np.testing.assert_array_equal(opt.grad, g)


def test_adam_constant_gradient_step_approaches_lr():
    # with constant g, m_hat/v_hat -> g/|g|, so |delta| -> lr
    opt = _adam([0.0], learning_rate=0.01)
    prev = opt.data.copy()
    for _ in range(500):
        prev = opt.data.copy()
        _adam_step(opt, 2.5)
    assert abs(abs(opt.data.item() - prev.item()) - 0.01) < 1e-4


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        opt = _adam(rng.normal(size=16), learning_rate=0.01)
        for i in range(10):
            _adam_step(opt, rng.normal(size=16))
        return opt.data

    np.testing.assert_array_equal(run(), run())


def _reference_adam(values, grads, lr):
    """Adam applied parameter by parameter, the rule the flat buffer
    implements; `grads` holds one list per step, None for a zero
    gradient."""
    b1, b2 = nm.ADAM_BETA1, nm.ADAM_BETA2
    params = [x.copy() for x in values]
    m = [np.zeros_like(x) for x in values]
    v = [np.zeros_like(x) for x in values]
    for t, step_grads in enumerate(grads, start=1):
        for i, g in enumerate(step_grads):
            if g is None:
                g = np.zeros_like(params[i])
            m[i] *= b1
            m[i] += (1 - b1) * g
            v[i] *= b2
            v[i] += (1 - b2) * g ** 2
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + nm.ADAM_EPS)
    return params


def test_adam_flat_buffer_matches_per_parameter_rule():
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (5,), (), (2, 1, 3)]
    values = [rng.normal(size=s).astype(np.float32) for s in shapes]
    # the third parameter never has a gradient; the last skips every 7th step
    grads = [[rng.normal(size=s).astype(np.float32)
              if i != 2 and not (i == 3 and t % 7 == 0) else None
              for i, s in enumerate(shapes)] for t in range(50)]
    model = Model(dict(enumerate(values)), np.float32)
    opt = nm.Adam(model.data, model.grad, learning_rate=3e-3)
    for step_grads in grads:
        for i, g in enumerate(step_grads):
            model.grads[i][...] = 0 if g is None else g
        opt.step()
    for i, want in enumerate(_reference_adam(values, grads, 3e-3)):
        got = model.params[i]
        assert got.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(model.params[2], values[2])


def test_adam_keeps_training_a_loaded_model():
    config = CvaeConfig(input_dim=4, cond_dim=2, z_dim=2, hidden_dim=5)
    model = CvaeModel(config)
    opt = nm.Adam(model.data, model.grad, learning_rate=0.1)
    loaded = CvaeModel(config, rng=np.random.default_rng(8)).params
    model.load_state_arrays(loaded)
    for name, a in model.params.items():
        np.testing.assert_array_equal(a, loaded[name])
    model.grad[...] = 1
    opt.step()
    for name, a in model.params.items():
        assert np.all(a != loaded[name]), name


def test_adam_rejects_bad_learning_rate_and_grad_shape():
    data = np.zeros(3)
    for learning_rate in (0.0, np.nan):
        with pytest.raises(ValueError, match="learning rate"):
            nm.Adam(data, np.zeros(3), learning_rate=learning_rate)
    for param, grad in ((data, np.zeros(4)), (data, np.zeros((3, 1))),
                        (np.zeros((3, 1)), np.zeros((3, 1))),
                        (data, np.zeros(3, dtype=np.float32))):
        with pytest.raises(nm.NumericsError, match="shape and dtype"):
            nm.Adam(param, grad, learning_rate=0.1)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    tensors = {
        "a.w": rng.normal(size=(5, 3)).astype(np.float32),
        "b": rng.normal(size=(7,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    config = {"n": 5, "name": "tiny"}
    path = tmp_path / "model.npz"
    save_checkpoint(path, tensors, config)
    loaded, cfg = load_checkpoint(path)
    assert cfg == config
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name],
                                      np.asarray(arr, dtype=np.float32))
    # identical bytes on re-save
    path2 = tmp_path / "model2.npz"
    save_checkpoint(path2, loaded, cfg)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_members_load_without_pickle(tmp_path):
    model = CvaeModel(CvaeConfig(input_dim=4, cond_dim=2, z_dim=2))
    config = asdict(model.config)
    path = tmp_path / "cvae.npz"
    model.save(path)
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == [*sorted(model.params), CONFIG_KEY]
        for name, a in model.params.items():
            arr = archive[name]
            assert arr.dtype == np.float32, name
            np.testing.assert_array_equal(arr, a, err_msg=name)
        assert json.loads(str(archive[CONFIG_KEY])) == config

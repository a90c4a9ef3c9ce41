"""Dense numeric core: tensors with hand-written backward rules, one Adam
optimizer, and finite-difference gradient checking.

This is intentionally *not* a general autodiff system. The models call
linear, attention, layer_norm, gelu, add, mean_pool, concat, reshape,
broadcast_to and the loss cross_entropy. A model may also make one node of
its own whose backward fills its parameters' gradients directly, as
`cvae.cvae_loss` does from `linear_arrays` and `gelu_arrays`. exp, matmul,
softmax, l1_loss and gaussian_kl have no caller in the models: the tests
build reference graphs from them, and the benchmark's tracer wraps them by
name. Each primitive has an explicit backward rule that is validated
against central finite differences in the test suite. Model computation
runs in float32; gradient checks run in float64.

`attention` and `layer_norm` take no reduction over a short last axis,
which numpy runs several times slower than the same sum as a BLAS product:
attention lays its scores out key-major, takes each query's softmax sum
as a product with a row of ones and divides the small context, not the
scores, by it; layer norm takes each row mean as a product with a column
of 1/d.

`gelu` evaluates the normal cdf through a rational approximation: it is
within 2.4e-7 absolute of the erf-based GELU for every float32 input (1e-8
in float64), and it works through its input in cache-sized blocks of
GELU_BLOCK_ELEMS elements.

`Adam` keeps the parameters and both moments in one flat buffer, which the
parameters' arrays view, and updates it with whole-buffer vector operations.
Its beta1, beta2 and epsilon are the constants of Kingma & Ba (arXiv
1412.6980); only the learning rate is set by the caller.

An `Arena` lends the outputs that a graph keeps their memory. While one is
active (`using_arena`), `add`, `linear_arrays`, `attention` (its q, k, v
and context), `layer_norm` (xhat and the output), `gelu_arrays` (output
and derivative), `concat` and `broadcast_to` take the i-th array they
allocate from the arena's i-th buffer, grown when it is too small, and
`rewind` starts the count again. A loop that rewinds before each forward of
the same shape then reuses one step's memory, where fresh arrays would fault
in new pages on every step, or be handed back to the OS and faulted in
again. Backward passes and temporaries inside an op allocate as usual, and
without an active arena every op does. The one rule: nothing built while an
arena was active is used after that arena rewinds, since the next forward
overwrites it.

`add` and `gelu` take an `out` array, as numpy's ufuncs do, and take
nothing from the arena when given one. It may be an input's `.data`, the
one exception to a graph's data being immutable, when nothing reads that
data afterwards: the output of a `linear`, whose backward reads only its
input and weight, consumed by nothing else. SANE and the CVAE write GELU
and SANE's residual sums over such outputs.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

LN_EPS = 1e-5
# most elements in one chunk of (b, h, T, T) attention scores: 1 MB of
# float32, so a chunk's scores stay in cache whatever the batch size
ATTN_SCORE_ELEMS = 2 ** 18

# most elements in one block of `gelu`: the seven arrays a block touches
# then take 0.9 MB in float32 and stay in L2 cache
GELU_BLOCK_ELEMS = 2 ** 15

# python floats: weak scalars that do not promote float32 arrays
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_LOG_INV_SQRT2PI = float(-0.5 * np.log(2.0 * np.pi))
# P(z) / Q(z) ~ sqrt(pi / 2) erfcx(z) on [0, 4], coefficients from the
# highest power down (Q monic of degree 4): a least-squares rational fit,
# reweighted toward minimax, with relative error below 5.1e-8 in exact
# arithmetic and 4.1e-7 in float32
_GELU_P = (0.7066299120, 3.857644465, 8.774835859, 9.333408649)
_GELU_Q = (5.443066811, 13.01329974, 15.40429427, 7.446983040)
_GELU_CLAMP = 4.0


class NumericsError(RuntimeError):
    """Shape mismatch or non-finite value in a numeric primitive."""


def require_finite(op: str, data: np.ndarray) -> None:
    # min/max propagate NaN and expose Inf without allocating a bool mask
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise NumericsError(f"non-finite output in op '{op}'")


class Arena:
    """Buffers lent in call order: the i-th `take` after a `rewind` returns
    a view of `buffers[i]`, replaced by a larger one when it is too small
    or of another dtype."""

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self._next = 0

    def rewind(self) -> None:
        self._next = 0

    def take(self, shape: tuple, dtype) -> np.ndarray:
        i = self._next
        self._next += 1
        size = math.prod(shape)
        if i == len(self.buffers):
            self.buffers.append(np.empty(size, dtype=dtype))
        elif self.buffers[i].dtype != dtype or self.buffers[i].size < size:
            self.buffers[i] = np.empty(size, dtype=dtype)
        return self.buffers[i][:size].reshape(shape)


_arena: Arena | None = None


def active_arena() -> Arena | None:
    return _arena


@contextlib.contextmanager
def using_arena(arena: Arena) -> Iterator[Arena]:
    """Make `arena` the active one for the body, then restore the one that
    was active before, also when the body raises."""
    global _arena
    previous, _arena = _arena, arena
    try:
        yield arena
    finally:
        _arena = previous


def _empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array for an output the graph keeps: from the
    active arena, if there is one."""
    if _arena is None:
        return np.empty(shape, dtype=dtype)
    return _arena.take(shape, dtype)


class Tensor:
    """N-d array plus an optional gradient buffer and a backward closure.

    Tensors form a DAG as ops are applied; calling ``backward()`` on a scalar
    result accumulates gradients into every tensor that contributed to it.
    Treat `.data` as immutable once the tensor has been fed into an op,
    except as the `out` of `add` or `gelu` when no op reads it afterwards
    (see the module docstring).
    """

    __slots__ = ("data", "grad", "name", "_parents", "_backward")

    def __init__(self, data, name: str = "", _parents: tuple = (), _backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, own: bool = False) -> None:
        """Add g to the gradient buffer. `own=True` promises g is freshly
        allocated and handed to this tensor only, so it can be adopted
        without a copy."""
        if self.grad is None:
            self.grad = g if own else g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output. Gradient buffers of
        intermediate nodes are released as soon as they have been consumed;
        only leaf tensors keep their gradients."""
        if self.data.size != 1:
            raise NumericsError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)
                if node._parents:
                    node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape}, dtype={self.dtype})"


def param(data, name: str = "") -> Tensor:
    """A leaf tensor (trainable parameter or constant input)."""
    return Tensor(np.asarray(data), name=name)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor, out: np.ndarray | None = None) -> Tensor:
    """a + b with numpy broadcasting, written into `out` when given."""
    if out is None:
        out = _empty(np.broadcast_shapes(a.shape, b.shape),
                     np.result_type(a.data, b.data))
    out_data = np.add(a.data, b.data, out=out)
    require_finite("add", out_data)
    out = Tensor(out_data, name="add", _parents=(a, b))

    def bw(o: Tensor) -> None:
        ga = _unbroadcast(o.grad, a.shape)
        a._accumulate(ga, own=ga is not o.grad)
        gb = _unbroadcast(o.grad, b.shape)
        b._accumulate(gb, own=gb is not o.grad)

    out._backward = bw
    return out


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)
    require_finite("exp", out_data)
    out = Tensor(out_data, name="exp", _parents=(a,))

    def bw(o: Tensor) -> None:
        a._accumulate(o.grad * o.data, own=True)

    out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched over leading axes via numpy matmul semantics."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise NumericsError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data
    require_finite("matmul", out_data)
    out = Tensor(out_data, name="matmul", _parents=(a, b))

    def bw(o: Tensor) -> None:
        ga = o.grad @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ o.grad
        a._accumulate(_unbroadcast(ga, a.shape), own=True)
        b._accumulate(_unbroadcast(gb, b.shape), own=True)

    out._backward = bw
    return out


def linear_arrays(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b over the last axis of x, on arrays."""
    if x.shape[-1] != w.shape[0]:
        raise NumericsError(
            f"linear shape mismatch: input {x.shape}, weight {w.shape}")
    out = np.matmul(x, w, out=_empty(x.shape[:-1] + w.shape[1:],
                                     np.result_type(x, w)))
    out += b
    require_finite("linear", out)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`linear_arrays` as a graph node."""
    out_data = linear_arrays(x.data, w.data, b.data)
    out = Tensor(out_data, name="linear", _parents=(x, w, b))

    def bw(o: Tensor) -> None:
        # products on 2-D views: one matrix product, where a (B, T, n)
        # gradient times w.T runs as B small ones
        g2 = o.grad.reshape(-1, o.grad.shape[-1])
        x2 = x.data.reshape(-1, x.data.shape[-1])
        x._accumulate((g2 @ w.data.T).reshape(x.shape), own=True)
        w._accumulate(x2.T @ g2, own=True)
        b._accumulate(g2.sum(axis=0), own=True)

    out._backward = bw
    return out


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    out_data = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)
    require_finite("softmax", out_data)
    out = Tensor(out_data, name="softmax", _parents=(x,))

    def bw(o: Tensor) -> None:
        dot = (o.grad * o.data).sum(axis=-1, keepdims=True)
        g = o.grad - dot
        g *= o.data
        x._accumulate(g, own=True)

    out._backward = bw
    return out


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor,
              bv: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over x (B, T, d).

    With q = x wq + bq, k = x wk and v = x wv + bv split into `heads` heads
    of width d / heads, returns the (B, T, d) context
    softmax(q k^T / sqrt(d / heads)) v, heads side by side.

    k has no bias: a key bias bk adds q.bk to every score of a query, which
    the softmax cancels, so its gradient is rounding noise. Whisper drops
    it for the same reason (Radford et al., arXiv 2212.04356).

    The batch runs in chunks whose scores hold at most ATTN_SCORE_ELEMS
    elements, and only each query's score max and exp-sum l are kept:
    backward recomputes E = exp(S - max) chunk by chunk (Rabe & Staats,
    arXiv 2112.05682), so no (B, h, T, T) array is ever stored.

    Scores are laid out key-major, (b, h, key, query), so that both
    statistics reduce over the second-to-last axis: the max as a numpy
    reduction there, the sum as a product with a row of ones. numpy's
    reductions over a short last axis are slow. With one BLAS thread, at
    (48, 8, 26, 26) the row max took 0.54 ms over the last axis and 0.24 ms
    over the key axis, and the row sum 0.18 ms against 0.025 ms as a
    product; at (1, 8, 201, 201), 0.11 against 0.057 ms and 0.074 against
    0.017 ms. The normalisation by l is deferred to the (T, head_dim)
    context, as in FlashAttention (Dao et al., arXiv 2205.14135): the
    forward divides the context by l, and backward works with E and dO / l,
    so no (T, T) array is divided.
    """
    if x.data.ndim != 3:
        raise NumericsError(
            f"attention expects (B, T, d) input, got {x.shape}")
    batch, tokens, d = x.shape
    if (heads < 1 or d % heads
            or any(w.shape != (d, d) for w in (wq, wk, wv))
            or any(b.shape != (d,) for b in (bq, bv))):
        raise NumericsError(
            f"attention shape mismatch: input {x.shape}, {heads} heads, "
            f"weights {[w.shape for w in (wq, wk, wv)]}, "
            f"biases {[b.shape for b in (bq, bv)]}")
    head_dim = d // heads
    c = 1.0 / float(np.sqrt(head_dim))
    w = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    # per-call scratch: backward reads only the q, k and v copied out of
    # it below, so it is not kept; the bias is added in place
    qkv = x.data @ w
    qkv += np.concatenate([bq.data, np.zeros_like(bq.data), bv.data])
    require_finite("attention", qkv)
    # (3, B, h, T, head_dim) views of q, k and v
    qkv = qkv.reshape(batch, tokens, 3, heads, head_dim)
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    # scale q rather than the much larger score matrix
    q, k, v = (_empty((batch, heads, tokens, head_dim), qkv.dtype)
               for _ in range(3))
    np.multiply(qkv[0], c, out=q)
    np.copyto(k, qkv[1])
    np.copyto(v, qkv[2])
    step = max(1, ATTN_SCORE_ELEMS // (heads * tokens * tokens))
    # per-query softmax statistics, laid out (B, h, 1, T) as the key-major
    # scores' reductions leave them
    row_max = np.empty((batch, heads, 1, tokens), dtype=q.dtype)
    row_sum = np.empty_like(row_max)
    ones = np.ones((1, tokens), dtype=q.dtype)
    out_data = _empty((batch, tokens, heads, head_dim), q.dtype)
    for start in range(0, batch, step):
        sl = slice(start, start + step)
        # key-major scores: column j holds query j's scores over the keys
        e = k[sl] @ np.swapaxes(q[sl], -1, -2)
        require_finite("attention", e)
        np.max(e, axis=-2, keepdims=True, out=row_max[sl])
        e -= row_max[sl]
        np.exp(e, out=e)
        np.matmul(ones, e, out=row_sum[sl])
        # normalise the (T, head_dim) context, not the (T, T) scores
        ctx = np.swapaxes(e, -1, -2) @ v[sl]
        ctx /= np.swapaxes(row_sum[sl], -1, -2)
        out_data[sl] = ctx.transpose(0, 2, 1, 3)
    out_data = out_data.reshape(batch, tokens, d)
    require_finite("attention", out_data)
    out = Tensor(out_data, name="attention",
                 _parents=(x, wq, bq, wk, wv, bv))

    def bw(o: Tensor) -> None:
        g = o.grad.reshape(batch, tokens, heads, head_dim)
        g = g.transpose(0, 2, 1, 3)
        # rowsum(dP * P) = rowsum(dO * O), since dP = dO v^T and O = P v:
        # a sum over head_dim, taken as one product with a ones vector
        dot = ((o.grad * o.data).reshape(-1, head_dim)
               @ np.ones(head_dim, dtype=q.dtype))
        dot = dot.reshape(batch, tokens, 1, heads).transpose(0, 3, 2, 1)
        # divided by l into a contiguous (B, h, 1, T) array: a strided one
        # slows the subtraction from every score row below
        dot = np.divide(dot, row_sum, order="C")
        # laid out as the forward's qkv, so it reshapes to (B*T, 3d)
        g_qkv = np.empty((batch, tokens, 3, heads, head_dim), dtype=q.dtype)
        gq, gk, gv = g_qkv.transpose(2, 0, 3, 1, 4)
        for start in range(0, batch, step):
            sl = slice(start, start + step)
            # key-major E again, by exactly the forward's operations
            e = k[sl] @ np.swapaxes(q[sl], -1, -2)
            e -= row_max[sl]
            np.exp(e, out=e)
            # dO / l, so that E = exp(S - max) stands in for P = E / l
            gl = np.divide(g[sl], np.swapaxes(row_sum[sl], -1, -2),
                           order="C")
            gv[sl] = e @ gl
            # softmax Jacobian folded into the key-major score gradient:
            # dS^T = E * (v (dO / l)^T - rowsum(dO * O) / l)
            gs = v[sl] @ np.swapaxes(gl, -1, -2)
            gs -= dot[sl]
            gs *= e
            gq[sl] = np.swapaxes(gs, -1, -2) @ k[sl]
            gk[sl] = gs @ q[sl]
        gq *= c
        g_qkv = g_qkv.reshape(batch * tokens, 3 * d)
        x._accumulate((g_qkv @ w.T).reshape(x.shape), own=True)
        g_w = np.split(x.data.reshape(-1, d).T @ g_qkv, 3, axis=1)
        g_bq, _, g_bv = np.split(g_qkv.sum(axis=0), 3)
        for t, g_t in zip((wq, wk, wv, bq, bv), g_w + [g_bq, g_bv]):
            t._accumulate(g_t, own=True)

    out._backward = bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise normalization over the last axis with learnable gain/bias.

    Every row mean, the forward's mean and variance and the backward's two,
    is a product with a (d, 1) column of 1/d: on (64, 26, 64) float32
    input, numpy's `mean` over the short last axis took 0.041 ms and the
    product 0.008 ms.
    """
    # numpy runs one (T, d) @ (d, 1) product per leading index, so a
    # sequence's statistics do not depend on its place in the batch; one
    # (B*T, d) product sums a row in an order that depends on where it is
    d = x.data.shape[-1]
    col = np.full((d, 1), 1.0 / d, dtype=x.dtype)
    centered = x.data - x.data @ col
    var = (centered ** 2) @ col
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(centered, inv_std, out=_empty(
        centered.shape, np.result_type(centered, inv_std)))
    out_data = np.multiply(gain.data, xhat, out=_empty(
        xhat.shape, np.result_type(gain.data, xhat)))
    out_data += bias.data
    require_finite("layer_norm", out_data)
    out = Tensor(out_data, name="layer_norm", _parents=(x, gain, bias))

    def bw(o: Tensor) -> None:
        gxhat = o.grad * gain.data
        # d xhat / d x folded analytically
        term = gxhat - gxhat @ col - xhat * ((gxhat * xhat) @ col)
        x._accumulate(term * inv_std, own=True)
        flat = (o.grad * xhat).reshape(-1, d)
        gain._accumulate(flat.sum(axis=0).reshape(gain.shape), own=True)
        bias._accumulate(o.grad.reshape(-1, d).sum(axis=0).reshape(bias.shape),
                         own=True)

    out._backward = bw
    return out


def gelu_arrays(x: np.ndarray, out: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian error linear unit x Phi(x), Phi the standard normal cdf, and
    its derivative Phi(x) + x pdf(x), of an array; the first is written into
    `out` when given, which may be x itself.

    Computed as max(x, 0) - |x| Phi(-|x|), from the tail mass
    Phi(-|x|) = pdf(x) R(|x| / sqrt 2), where R is a rational fit to
    sqrt(pi / 2) erfcx (the scaled complementary error function) on [0, 4],
    with its argument clamped there. Working on the tail rather than on erf
    near +-1 keeps the error at the rounding of the result: within 2.4e-7
    absolute of the erf-based GELU for every float32 input, and within 1e-8
    in float64. The input runs in blocks of GELU_BLOCK_ELEMS elements, so
    the temporaries stay in cache, and each block forms the derivative in
    the same pass. A non-finite output raises NumericsError.
    """
    flat = x.reshape(-1)
    if out is None:
        out = _empty(x.shape, x.dtype)
    elif (out.shape != x.shape or out.dtype != x.dtype
          or not out.flags.c_contiguous):
        raise NumericsError(f"gelu out must be a contiguous {x.dtype} "
                            f"array of shape {x.shape}")
    out_data = out.reshape(-1)
    deriv = _empty(flat.shape, flat.dtype)
    temps = np.empty((4, min(flat.size, GELU_BLOCK_ELEMS)), dtype=flat.dtype)
    # over: x^2 of a huge |x|, whose pdf is then 0; invalid: an inf or NaN
    # input, whose non-finite output is fatal below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, GELU_BLOCK_ELEMS):
            xb = flat[start:start + GELU_BLOCK_ELEMS]
            ob = out_data[start:start + GELU_BLOCK_ELEMS]
            db = deriv[start:start + GELU_BLOCK_ELEMS]
            ab, zb, pb, qb = temps[:, :xb.size]
            np.absolute(xb, out=ab)
            np.multiply(ab, _INV_SQRT2, out=zb)
            # db <- pdf(x) = exp(log(1 / sqrt(2 pi)) - z^2), z = |x| / sqrt 2
            np.multiply(zb, zb, out=db)
            np.subtract(_LOG_INV_SQRT2PI, db, out=db)
            np.exp(db, out=db)
            # pb <- Phi(-|x|) = pdf(x) P(z) / Q(z), z clamped to 4
            np.minimum(zb, _GELU_CLAMP, out=zb)
            np.multiply(zb, _GELU_P[0], out=pb)
            for c in _GELU_P[1:-1]:
                pb += c
                pb *= zb
            pb += _GELU_P[-1]
            np.add(zb, _GELU_Q[0], out=qb)
            for c in _GELU_Q[1:]:
                qb *= zb
                qb += c
            pb /= qb
            pb *= db
            ab *= pb
            # the derivative reads xb, so it comes before ob, which may be
            # xb: Phi(x) = 1/2 + sign(x) (1/2 - Phi(-|x|))
            np.subtract(0.5, pb, out=pb)
            np.copysign(pb, xb, out=pb)
            db *= xb
            db += pb
            db += 0.5
            # x Phi(x) = max(x, 0) - |x| Phi(-|x|)
            np.maximum(xb, 0.0, out=ob)
            ob -= ab
    require_finite("gelu", out)
    return out, deriv.reshape(x.shape)


def gelu(x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """`gelu_arrays` as a graph node: backward is one product with the
    derivative, taken in place in the node's own gradient."""
    out_data, deriv = gelu_arrays(x.data, out)
    out = Tensor(out_data, name="gelu", _parents=(x,))

    def bw(o: Tensor) -> None:
        o.grad *= deriv
        x._accumulate(o.grad, own=True)

    out._backward = bw
    return out


def mean_pool(x: Tensor) -> Tensor:
    """Mean over the row axis (second-to-last)."""
    if x.data.ndim < 2:
        raise NumericsError("mean_pool needs at least 2 dims")
    n = x.data.shape[-2]
    out_data = x.data.mean(axis=-2)
    require_finite("mean_pool", out_data)
    out = Tensor(out_data, name="mean_pool", _parents=(x,))

    def bw(o: Tensor) -> None:
        x._accumulate(np.repeat(np.expand_dims(o.grad / n, -2), n, axis=-2),
                      own=True)

    out._backward = bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]
    shape = list(datas[0].shape)
    shape[axis] = sum(a.shape[axis] for a in datas)
    out_data = np.concatenate(datas, axis=axis, out=_empty(
        tuple(shape), np.result_type(*datas)))
    require_finite("concat", out_data)
    out = Tensor(out_data, name="concat", _parents=tuple(tensors))

    def bw(o: Tensor) -> None:
        offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(o.grad, offsets, axis=axis)):
            t._accumulate(piece, own=True)

    out._backward = bw
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape), name="reshape", _parents=(x,))

    def bw(o: Tensor) -> None:
        x._accumulate(o.grad.reshape(x.shape), own=True)

    out._backward = bw
    return out


def broadcast_to(x: Tensor, shape: tuple) -> Tensor:
    out_data = _empty(shape, x.dtype)
    np.copyto(out_data, x.data)
    out = Tensor(out_data, name="broadcast", _parents=(x,))

    def bw(o: Tensor) -> None:
        g = _unbroadcast(o.grad, x.shape)
        x._accumulate(g, own=g is not o.grad)

    out._backward = bw
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise NumericsError(
            f"cross_entropy expects (B,C) logits and (B,) labels, got "
            f"{logits.data.shape} and {labels.shape}")
    classes = logits.data.shape[1]
    if not np.issubdtype(labels.dtype, np.integer):
        raise NumericsError(
            f"cross_entropy labels must be integers, got {labels.dtype}")
    # a negative label would index from the end and score class C - 1
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise NumericsError(
            f"cross_entropy labels outside [0, {classes}): "
            f"{labels.min()}..{labels.max()}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    batch = logits.data.shape[0]
    nll = -log_probs[np.arange(batch), labels].mean()
    require_finite("cross_entropy", np.asarray(nll))
    out = Tensor(np.asarray(nll, dtype=logits.dtype), name="cross_entropy",
                 _parents=(logits,))

    def bw(o: Tensor) -> None:
        probs = np.exp(log_probs)
        probs[np.arange(batch), labels] -= 1.0
        logits._accumulate(o.grad * probs / batch, own=True)

    out._backward = bw
    return out


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum of absolute errors over the last axis, averaged over the batch."""
    target = np.asarray(target)
    if pred.data.shape != target.shape:
        raise NumericsError(
            f"l1_loss shape mismatch: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    batch = pred.data.shape[0] if pred.data.ndim > 1 else 1
    val = np.abs(diff).sum() / batch
    require_finite("l1_loss", np.asarray(val))
    out = Tensor(np.asarray(val, dtype=pred.dtype), name="l1_loss",
                 _parents=(pred,))

    def bw(o: Tensor) -> None:
        pred._accumulate(o.grad * np.sign(diff) / batch, own=True)

    out._backward = bw
    return out


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, sigma) || N(0, 1)) summed over dims, averaged over the batch.

    Analytic form: 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2).
    """
    if mu.data.shape != logvar.data.shape:
        raise NumericsError("gaussian_kl shape mismatch")
    var = np.exp(logvar.data)
    batch = mu.data.shape[0] if mu.data.ndim > 1 else 1
    val = 0.5 * (mu.data ** 2 + var - 1.0 - logvar.data).sum() / batch
    require_finite("gaussian_kl", np.asarray(val))
    out = Tensor(np.asarray(val, dtype=mu.dtype), name="gaussian_kl",
                 _parents=(mu, logvar))

    def bw(o: Tensor) -> None:
        mu._accumulate(o.grad * mu.data / batch, own=True)
        logvar._accumulate(o.grad * 0.5 * (var - 1.0) / batch, own=True)

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference grads.

    `f` must be a deterministic closure over `params` returning a scalar
    Tensor. Relative error per element is
    |g_a - g_fd| / max(1, |g_a|, |g_fd|). Run params in float64.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().data.item()
            flat[i] = orig - eps
            f_minus = f().data.item()
            flat[i] = orig
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1.0, abs(ga_flat[i]), abs(g_fd))
            worst = max(worst, abs(ga_flat[i] - g_fd) / denom)
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed parameter list, in one flat buffer.

    `state` is a (3, total) array whose rows hold the parameters, the first
    moments and the second moments; each parameter owns the same slice of
    every row, in list order. Building the optimizer copies each parameter
    into its slice and makes its `.data` a view of it, so code that writes
    a parameter in place (`params.Model.load_state_arrays`) writes the
    buffer. `step()` gathers the gradients into one vector (zero where a
    parameter has none) and updates the whole buffer with one vector
    operation per term of the update rule."""

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise NumericsError(f"Adam needs parameters of one dtype, got "
                                f"{sorted(map(str, dtypes))}")
        self.learning_rate = learning_rate
        self.step_count = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.state = np.zeros((3, self._bounds[-1]), dtype=dtypes.pop())
        self._grad = np.empty_like(self.state[0])
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            view = self.state[0, lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, self.learning_rate
        g = self._grad
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            if p.grad is None:
                g[lo:hi] = 0
            elif p.grad.shape != p.data.shape:
                raise NumericsError(
                    f"Adam grad shape {p.grad.shape} != param shape {p.data.shape}")
            else:
                g[lo:hi] = p.grad.reshape(-1)
        x, m, v = self.state
        m *= b1
        m += (1 - b1) * g
        v *= b2
        g *= g
        g *= 1 - b2
        v += g
        # lr * m_hat / (sqrt(v_hat) + eps)
        update = m / (1 - b1 ** t)
        update *= lr
        denom = v / (1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        x -= update

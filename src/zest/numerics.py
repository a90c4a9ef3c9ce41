"""Dense numeric core: array primitives with hand-written backward rules,
one Adam optimizer, tensors that wrap the primitives as graph nodes, and
finite-difference gradient checking.

This is intentionally *not* a general autodiff system. The models run on
plain arrays: each has a hand-written backward that writes every
parameter's gradient into the model's flat gradient buffer
(`sane.SaneModel.backward`, `cvae.cvae_loss`), from array primitives: a
forward, then the halves of its backward, which a caller runs in turn:

- `linear_arrays`, `linear_param_grads`, `linear_input_grad` (gx may be x);
- `layer_norm_arrays`, `layer_norm_param_grads`, `layer_norm_input_grad`,
  and `layer_norm_output`, by which a backward rebuilds the output it does
  not keep;
- `attention_arrays`, `attention_row_dots`, `attention_input_grad`,
  `attention_param_grads`, over the arrays that `attention_saved` and
  `attention_scratch` allocate and projections that the caller places and
  may rebuild by `attention_projections`;
- `gelu_arrays`, whose backward is one product with its derivative;
- `cross_entropy_arrays`, which returns the loss and its gradient.

Each input gradient may overwrite what the half before it reads, and
attention's parameter gradients read what its input gradient leaves in
proj["qkv"]. The per-row half (`linear_input_grad`, `layer_norm_input_grad`,
`attention_input_grad`) gives a row of a (B, T, .) input its gradient from
that row alone: its products are 3-D, so numpy runs one (T, .) product per
sequence, and a sequence gets the same bits in a batch of any size or in
any part of one. A full-batch half (`linear_param_grads`,
`layer_norm_param_grads`, `attention_row_dots` and `attention_param_grads`)
sums over every row of the batch, or runs a 2-D product whose rows' bits
depend on how many rows it has; it must see the whole batch in one call.
`sane.SaneModel` runs each per-row half on two row halves of a batch at
once and each full-batch half once, on the calling thread; no primitive
here starts a thread.

Each writes its outputs, what its backward reads and its larger
temporaries into arrays it is given, so a caller that hands every step the
same arrays, as SANE's step workspace does, faults in no new pages after
its first step.

`Tensor` and the Tensor-level ops (linear, layer_norm, attention, gelu and
cross_entropy, which wrap the pairs as graph nodes, and add, exp, matmul,
softmax, l1_loss and gaussian_kl) have no caller on the run-time path: the
tests build reference graphs and gradient checks from them, and the
benchmark's tracer wraps them by name. Each backward rule is checked
against central finite differences. Models run in float32; gradient checks
run in float64.

`Adam` updates a model's flat parameter buffer from its flat gradient
buffer. Its beta1, beta2 and epsilon are the constants of Kingma & Ba
(arXiv 1412.6980); only the learning rate is set by the caller.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

LN_EPS = 1e-5
# most elements in one chunk of (b, h, T, T) attention scores, unless one
# head's T x T scores alone exceed it. 2^20, a whole T = 201 sequence per
# half's chunk, takes 3.1 MiB more scratch at the default shape, and on two
# threads of a shared 2-vCPU host ran a default-shape step faster in only 8
# of 10 alternating pairs (medians 327 and 353 ms), too few to keep it
ATTN_SCORE_ELEMS = 2 ** 18

# most elements in one block of `gelu`: the seven arrays a block touches
# then take 1.8 MB in float32 and stay in a 2 MB L2 cache. Half as many
# take no less time on one thread, and more on two, where every numpy call
# waits for the GIL: GELU of (32, 201, 256) float32 on each of two threads
# took 23.6 ms with 2^15-element blocks and 17.2 ms with 2^16
GELU_BLOCK_ELEMS = 2 ** 16

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
    # min/max propagate NaN and expose Inf without allocating a bool mask;
    # the ufunc reductions skip `ndarray.min`'s python wrapper: on (64, 32)
    # float32, 3.1 us a call against 4.1 us
    if data.size and not (math.isfinite(np.minimum.reduce(data, axis=None))
                          and math.isfinite(np.maximum.reduce(data, axis=None))):
        raise NumericsError(f"non-finite output in op '{op}'")


class Tensor:
    """N-d array plus an optional gradient buffer and a backward closure.

    Tensors form a DAG as ops are applied; calling ``backward()`` on a scalar
    result accumulates gradients into every tensor that contributed to it.
    Treat `.data` as immutable once the tensor has been fed into an op.
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

    def _accumulate(self, g: np.ndarray) -> None:
        """Add g to the gradient buffer, or adopt g as the buffer: g must be
        handed to this tensor only."""
        if self.grad is None:
            self.grad = g
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

def _node(op: str, data: np.ndarray, parents: tuple,
          backward: Callable) -> Tensor:
    """A graph node of `op`'s finite output `data`. Its backward calls
    `backward(g, grads)` with the node's gradient and one fresh array per
    parent, to be filled with that parent's gradient."""
    require_finite(op, data)
    out = Tensor(data, name=op, _parents=parents)

    def bw(o: Tensor) -> None:
        grads = [np.empty(t.shape, o.grad.dtype) for t in parents]
        backward(o.grad, grads)
        for t, g in zip(parents, grads):
            t._accumulate(g)

    out._backward = bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting."""

    def backward(g, grads):
        grads[0][...] = _unbroadcast(g, a.shape)
        grads[1][...] = _unbroadcast(g, b.shape)

    return _node("add", a.data + b.data, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)
    return _node("exp", out_data, (a,), lambda g, grads: np.multiply(
        g, out_data, out=grads[0]))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched over leading axes via numpy matmul semantics."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise NumericsError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward(g, grads):
        grads[0][...] = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        grads[1][...] = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _node("matmul", a.data @ b.data, (a, b), backward)


def linear_arrays(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b over the last axis of x, written into `out` when given."""
    if x.shape[-1] != w.shape[0]:
        raise NumericsError(
            f"linear shape mismatch: input {x.shape}, weight {w.shape}")
    out = np.matmul(x, w, out=out)
    out += b
    require_finite("linear", out)
    return out


def linear_param_grads(g: np.ndarray, x: np.ndarray, gw: np.ndarray,
                       gb: np.ndarray) -> None:
    """`linear_arrays`' full-batch backward half: w's gradient x^T g into gw
    and b's, the column sums of g, into gb, each one call over every row
    on 2-D views."""
    g2 = g.reshape(-1, g.shape[-1])
    np.matmul(x.reshape(-1, x.shape[-1]).T, g2, out=gw)
    g2.sum(axis=0, out=gb)


def linear_input_grad(g: np.ndarray, w: np.ndarray, gx: np.ndarray) -> None:
    """`linear_arrays`' per-row backward half: x's gradient g w^T into gx,
    which may be x but must not overlap g. A (B, T, n) g runs as B products
    of (T, n) by w^T."""
    np.matmul(g, w.T, out=gx)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The linear pair as a graph node."""
    return _node("linear", linear_arrays(x.data, w.data, b.data), (x, w, b),
                 lambda g, grads: (linear_param_grads(g, x.data, *grads[1:]),
                                   linear_input_grad(g, w.data, grads[0])))


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis."""
    out_data = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def backward(g, grads):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        np.multiply(g - dot, out_data, out=grads[0])

    return _node("softmax", out_data, (x,), backward)


def attention_saved(batch: int, tokens: int, d: int, heads: int,
                    dtype) -> dict[str, np.ndarray]:
    """Fresh arrays for what attention's backward reads and cannot rebuild,
    for (batch, tokens, d) inputs: each query's score "max" and exp-"sum",
    (batch, heads, 1, tokens)."""
    return {k: np.empty((batch, heads, 1, tokens), dtype)
            for k in ("max", "sum")}


def attention_scratch(batch: int, tokens: int, d: int, heads: int, dtype,
                      elems: int = ATTN_SCORE_ELEMS
                      ) -> dict[str, np.ndarray]:
    """Fresh per-chunk temporaries of attention's forward and backward for
    (batch, tokens, d) inputs, whose chunks' scores hold at most `elems`
    elements: the scores "s" and "s2", (c, g, tokens, tokens), and the
    context-shaped "o" and "o2", (c, g, tokens, d / heads). A chunk is c
    whole sequences when one sequence's scores fit, else a run of g of one
    sequence's heads: as many as fit, and at least one, whose
    tokens x tokens scores alone may exceed `elems`. Their shape is the
    chunking that `attention_arrays` and `attention_input_grad` follow. Not
    the projections: their caller places them."""
    per_head = tokens * tokens
    if heads * per_head <= elems:
        c, g = min(batch, elems // (heads * per_head)), heads
    else:
        c, g = 1, max(1, elems // per_head)
    scores, ctx = (c, g, tokens, tokens), (c, g, tokens, d // heads)
    shapes = {"s": scores, "s2": scores, "o": ctx, "o2": ctx}
    return {k: np.empty(s, dtype) for k, s in shapes.items()}


def _attention_chunks(batch: int, heads: int, scratch: dict):
    """(sequences, heads, scratch "s", "s2", "o", "o2" views) of each chunk
    that `scratch`'s shape plans, sequence by sequence, then head by head;
    the last run of heads may be shorter than the others."""
    c, g = scratch["s"].shape[:2]
    for start in range(0, batch, c):
        rows = min(c, batch - start)
        for head in range(0, heads, g):
            width = min(g, heads - head)
            yield (slice(start, start + rows), slice(head, head + width),
                   *(scratch[k][:rows, :width] for k in ("s", "s2", "o",
                                                          "o2")))


def attention_projections(x: np.ndarray, wq: np.ndarray, bq: np.ndarray,
                          wk: np.ndarray, wv: np.ndarray, bv: np.ndarray,
                          heads: int, proj: dict) -> None:
    """`attention_arrays`' projections of x (B, T, d): x [wq | wk | wv] +
    [bq, 0, bv] into the contiguous (B, T, 3 d) proj["qkv"], which must
    not overlap x, then q / sqrt(d / heads), k and v into proj's "q", "k"
    and "v", (B, heads, T, d / heads). The same inputs give the same bits,
    so a backward may rebuild the projections by this call, not keep them."""
    qkv = np.matmul(x, np.concatenate([wq, wk, wv], axis=1), out=proj["qkv"])
    qkv += np.concatenate([bq, np.zeros_like(bq), bv])
    # (3, B, h, T, head_dim) views of q, k and v
    q, k, v = qkv.reshape(x.shape[:2] + (3, heads, x.shape[2] // heads)
                          ).transpose(2, 0, 3, 1, 4)
    # scale q rather than the much larger score matrix
    np.multiply(q, 1.0 / float(np.sqrt(q.shape[-1])), out=proj["q"])
    np.copyto(proj["k"], k)
    np.copyto(proj["v"], v)


def attention_arrays(x: np.ndarray, wq: np.ndarray, bq: np.ndarray,
                     wk: np.ndarray, wv: np.ndarray, bv: np.ndarray,
                     heads: int, out: np.ndarray | None = None,
                     saved: dict | None = None, scratch: dict | None = None,
                     proj: dict | None = None
                     ) -> tuple[np.ndarray, dict, dict, dict]:
    """Multi-head scaled dot-product self-attention over x (B, T, d).

    With q = x wq + bq, k = x wk and v = x wv + bv split into `heads` heads
    of width d / heads, writes the (B, T, d) context
    softmax(q k^T / sqrt(d / heads)) v, heads side by side, into the
    contiguous `out`, and what backward cannot rebuild into `saved`;
    `scratch` holds the per-chunk temporaries and `proj` the projections
    (`attention_projections`). Returns all four: fresh ones when `out` is
    None. No array but `out` and `saved` is read after the call, so `proj`
    may lie in memory that the caller uses otherwise, if it rebuilds the
    projections for backward.

    k has no bias: a key bias bk adds q.bk to every score of a query, which
    the softmax cancels, so its gradient is rounding noise. Whisper drops
    it for the same reason (Radford et al., arXiv 2212.04356).

    The batch runs in the chunks that `scratch` plans
    (`attention_scratch`): runs of whole sequences, or of one sequence's
    heads, whose scores hold at most ATTN_SCORE_ELEMS elements when the
    call makes its own scratch. Only each query's score max and exp-sum l
    are kept: backward recomputes E = exp(S - max) chunk by chunk (Rabe &
    Staats, arXiv 2112.05682), so no (B, h, T, T) array is ever stored.

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
    if x.ndim != 3:
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
    if out is None:
        dims = (batch, tokens, d, heads, np.result_type(x, wq))
        out = np.empty(x.shape, dims[-1])
        proj = {"qkv": np.empty((batch, tokens, 3 * d), dims[-1])} | dict(
            zip("qkv", np.empty((3, batch, heads, tokens, d // heads),
                                dims[-1])))
        saved, scratch = attention_saved(*dims), attention_scratch(*dims)
    attention_projections(x, wq, bq, wk, wv, bv, heads, proj)
    # a rebuild gives the same bits, so only the forward checks them
    require_finite("attention", proj["qkv"])
    q, k, v = proj["q"], proj["k"], proj["v"]
    row_max, row_sum = saved["max"], saved["sum"]
    ones = np.ones((1, tokens), dtype=q.dtype)
    # (B, h, T, head_dim), as the context's heads
    out_heads = out.reshape(batch, tokens, heads, d // heads
                            ).transpose(0, 2, 1, 3)
    for sl, hs, e, _, ctx, _ in _attention_chunks(batch, heads, scratch):
        # key-major scores: column j holds query j's scores over the keys
        e = np.matmul(k[sl, hs], np.swapaxes(q[sl, hs], -1, -2), out=e)
        require_finite("attention", e)
        m, l = row_max[sl, hs], row_sum[sl, hs]
        np.max(e, axis=-2, keepdims=True, out=m)
        e -= m
        np.exp(e, out=e)
        np.matmul(ones, e, out=l)
        # normalise the (T, head_dim) context, not the (T, T) scores
        ctx = np.matmul(np.swapaxes(e, -1, -2), v[sl, hs], out=ctx)
        ctx /= np.swapaxes(l, -1, -2)
        out_heads[sl, hs] = ctx
    require_finite("attention", out)
    return out, saved, scratch, proj


def attention_row_dots(g: np.ndarray, out: np.ndarray, saved: dict,
                       heads: int, scratch: np.ndarray) -> np.ndarray:
    """A full-batch backward half of `attention_arrays`: each query's
    rowsum(dP * P) / l, a fresh contiguous (B, h, 1, T) array, with
    g * out held in the contiguous `scratch` of g's shape. The sum over
    head_dim is one 2-D product of all B T h rows with a ones vector, and
    that product's rows change in their last bits with the number of rows
    (OpenBLAS 0.3.31: between 12,864 and 25,728 rows), so it takes the
    whole batch."""
    batch, tokens, d = g.shape
    head_dim = d // heads
    # rowsum(dP * P) = rowsum(dO * O), since dP = dO v^T and O = P v
    dot = (np.multiply(g, out, out=scratch).reshape(-1, head_dim)
           @ np.ones(head_dim, dtype=g.dtype))
    dot = dot.reshape(batch, tokens, 1, heads).transpose(0, 3, 2, 1)
    # divided by l into a contiguous (B, h, 1, T) array: a strided one
    # slows the subtraction from every score row below
    return np.divide(dot, saved["sum"], order="C")


def attention_input_grad(g: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                         wv: np.ndarray, heads: int, saved: dict,
                         scratch: dict, proj: dict, dot: np.ndarray,
                         gx: np.ndarray) -> None:
    """The per-row backward half of `attention_arrays`: the gradients of q,
    k and v over proj["qkv"], laid out as the forward's projections, and
    x's gradient, their product with [wq | wk | wv]^T, into gx, from the
    rows' `attention_row_dots` in `dot`, chunk by chunk as `scratch` plans.
    q, k and v are `proj`'s, from the forward or `attention_projections`."""
    batch, tokens, d = g.shape
    head_dim = d // heads
    q, k, v = proj["q"], proj["k"], proj["v"]
    row_max, row_sum = saved["max"], saved["sum"]
    g_heads = g.reshape(batch, tokens, heads, head_dim).transpose(0, 2, 1, 3)
    gq, gk, gv = proj["qkv"].reshape(batch, tokens, 3, heads,
                                     head_dim).transpose(2, 0, 3, 1, 4)
    for sl, hs, e, gs, gl, o2 in _attention_chunks(batch, heads, scratch):
        # key-major E again, by exactly the forward's operations
        e = np.matmul(k[sl, hs], np.swapaxes(q[sl, hs], -1, -2), out=e)
        e -= row_max[sl, hs]
        np.exp(e, out=e)
        # dO / l, so that E = exp(S - max) stands in for P = E / l
        gl = np.divide(g_heads[sl, hs], np.swapaxes(row_sum[sl, hs], -1, -2),
                       out=gl)
        gv[sl, hs] = np.matmul(e, gl, out=o2)
        # softmax Jacobian folded into the key-major score gradient:
        # dS^T = E * (v (dO / l)^T - rowsum(dO * O) / l)
        gs = np.matmul(v[sl, hs], np.swapaxes(gl, -1, -2), out=gs)
        gs -= dot[sl, hs]
        gs *= e
        gq[sl, hs] = np.matmul(np.swapaxes(gs, -1, -2), k[sl, hs], out=o2)
        gk[sl, hs] = np.matmul(gs, q[sl, hs], out=o2)
    gq *= 1.0 / float(np.sqrt(head_dim))
    np.matmul(proj["qkv"], np.concatenate([wq, wk, wv], axis=1).T, out=gx)


def attention_param_grads(x: np.ndarray, proj: dict,
                          grads: Sequence[np.ndarray]) -> None:
    """The other full-batch backward half of `attention_arrays`: the
    gradients of wq, bq, wk, wv and bv into `grads`, sums over every row of
    x and of the projections' gradient in proj["qkv"]."""
    d = x.shape[-1]
    g_qkv = proj["qkv"].reshape(-1, 3 * d)
    g_w = np.split(x.reshape(-1, d).T @ g_qkv, 3, axis=1)
    g_bq, _, g_bv = np.split(g_qkv.sum(axis=0), 3)
    for dst, src in zip(grads, (g_w[0], g_bq, g_w[1], g_w[2], g_bv)):
        dst[...] = src


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor,
              bv: Tensor, heads: int) -> Tensor:
    """The attention pair as a graph node."""
    parents = (x, wq, bq, wk, wv, bv)
    out, saved, scratch, proj = attention_arrays(
        *(t.data for t in parents), heads)

    def backward(g, grads):
        dot = attention_row_dots(g, out, saved, heads, grads[0])
        attention_input_grad(g, wq.data, wk.data, wv.data, heads, saved,
                             scratch, proj, dot, grads[0])
        attention_param_grads(x.data, proj, grads[1:])

    return _node("attention", out, parents, backward)


def layer_norm_arrays(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      out: np.ndarray | None = None,
                      xhat: np.ndarray | None = None,
                      inv_std: np.ndarray | None = None) -> tuple:
    """Row-wise normalization over the last axis with learnable gain/bias.
    Returns (out, xhat, inv_std): gain * xhat + bias, the normalised input
    and each row's 1 / std, of shape x.shape[:-1] + (1,), each written into
    the array given for it. Backward reads xhat and inv_std.

    Every row mean, the forward's mean and variance and the backward's two,
    is a product with a (d, 1) column of 1/d: on (64, 26, 64) float32
    input, numpy's `mean` over the short last axis took 0.041 ms and the
    product 0.008 ms.
    """
    out, xhat, inv_std = (np.empty(shape, x.dtype) if a is None else a
                          for a, shape in ((out, x.shape), (xhat, x.shape),
                                           (inv_std, x.shape[:-1] + (1,))))
    # numpy runs one (T, d) @ (d, 1) product per leading index, so a
    # sequence's statistics do not depend on its place in the batch; one
    # (B*T, d) product sums a row in an order that depends on where it is
    d = x.shape[-1]
    col = np.full((d, 1), 1.0 / d, dtype=x.dtype)
    # the row means and then variances pass through inv_std, and the
    # centred rows and their squares through xhat and out
    np.matmul(x, col, out=inv_std)
    np.subtract(x, inv_std, out=xhat)
    np.square(xhat, out=out)
    np.matmul(out, col, out=inv_std)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    require_finite("layer_norm", layer_norm_output(xhat, gain, bias, out))
    return out, xhat, inv_std


def layer_norm_output(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """gain * xhat + bias into `out`: layer norm's last two operations."""
    np.multiply(gain, xhat, out=out)
    out += bias
    return out


def layer_norm_param_grads(g: np.ndarray, xhat: np.ndarray,
                           ggain: np.ndarray, gbias: np.ndarray,
                           scratch: np.ndarray) -> None:
    """`layer_norm_arrays`' full-batch backward half: gain's gradient, the
    column sums of g * xhat (formed in the contiguous `scratch` of g's
    shape), into ggain and bias's, the column sums of g, into gbias."""
    d = g.shape[-1]
    np.multiply(g, xhat, out=scratch)
    np.sum(scratch.reshape(-1, d), axis=0, out=ggain)
    np.sum(g.reshape(-1, d), axis=0, out=gbias)


def layer_norm_input_grad(g: np.ndarray, xhat: np.ndarray,
                          inv_std: np.ndarray, gain: np.ndarray,
                          scratch: np.ndarray) -> None:
    """`layer_norm_arrays`' per-row backward half: x's gradient, written over
    g, with `scratch`, an array of g's shape, for the temporary products."""
    col = np.full((g.shape[-1], 1), 1.0 / g.shape[-1], dtype=g.dtype)
    # d xhat / d x folded analytically: with gxhat = g gain, x's gradient
    # is (gxhat - mean(gxhat) - xhat mean(gxhat xhat)) inv_std
    g *= gain
    mean = g @ col
    np.multiply(g, xhat, out=scratch)
    mean_prod = scratch @ col
    g -= mean
    np.multiply(xhat, mean_prod, out=scratch)
    g -= scratch
    g *= inv_std


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """The layer norm pair as a graph node."""
    out, xhat, inv_std = layer_norm_arrays(x.data, gain.data, bias.data)

    def backward(g, grads):
        scratch = np.empty(g.shape, g.dtype)
        layer_norm_param_grads(g, xhat, *grads[1:], scratch)
        grads[0][...] = g
        layer_norm_input_grad(grads[0], xhat, inv_std, gain.data, scratch)

    return _node("layer_norm", out, (x, gain, bias), backward)


def gelu_arrays(x: np.ndarray, out: np.ndarray | None = None,
                deriv: np.ndarray | None = None,
                scratch: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian error linear unit x Phi(x), Phi the standard normal cdf, and
    its derivative Phi(x) + x pdf(x), of an array; the first is written into
    `out` when given, which may be x itself, and the second into `deriv`.
    `scratch`, a (4, m) array with m at least min(x.size,
    GELU_BLOCK_ELEMS), holds the temporaries. Backward is one product with
    the derivative.

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
        out = np.empty(x.shape, x.dtype)
    elif (out.shape != x.shape or out.dtype != x.dtype
          or not out.flags.c_contiguous):
        raise NumericsError(f"gelu out must be a contiguous {x.dtype} "
                            f"array of shape {x.shape}")
    if deriv is None:
        deriv = np.empty(x.shape, x.dtype)
    if scratch is None:
        scratch = np.empty((4, min(flat.size, GELU_BLOCK_ELEMS)), x.dtype)
    out_data = out.reshape(-1)
    deriv_data = deriv.reshape(-1)
    # the sign bit, and every other bit, of x's float format
    bits = np.dtype(f"u{x.dtype.itemsize}")
    sign = bits.type(1 << (8 * bits.itemsize - 1))
    magnitude = ~sign
    # over: x^2 of a huge |x|, whose pdf is then 0; invalid: an inf or NaN
    # input, whose non-finite output is fatal below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, GELU_BLOCK_ELEMS):
            xb = flat[start:start + GELU_BLOCK_ELEMS]
            ob = out_data[start:start + GELU_BLOCK_ELEMS]
            db = deriv_data[start:start + GELU_BLOCK_ELEMS]
            ab, zb, pb, qb = scratch[:, :xb.size]
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
            # xb: Phi(x) = 1/2 + sign(x) (1/2 - Phi(-|x|)), the sign copied
            # by bit operations (through zb, now free): on a 32,768-element
            # float32 block np.copysign took 28 us and these 14 to 18 us
            np.subtract(0.5, pb, out=pb)
            pbits, zbits = pb.view(bits), zb.view(bits)
            np.bitwise_and(pbits, magnitude, out=pbits)
            np.bitwise_and(xb.view(bits), sign, out=zbits)
            np.bitwise_or(pbits, zbits, out=pbits)
            db *= xb
            db += pb
            db += 0.5
            # x Phi(x) = max(x, 0) - |x| Phi(-|x|)
            np.maximum(xb, 0.0, out=ob)
            ob -= ab
    require_finite("gelu", out)
    return out, deriv


def gelu(x: Tensor) -> Tensor:
    """`gelu_arrays` as a graph node: backward is one product with the
    derivative."""
    out, deriv = gelu_arrays(x.data)
    return _node("gelu", out, (x,), lambda g, grads: np.multiply(
        g, deriv, out=grads[0]))


def cross_entropy_arrays(logits: np.ndarray, labels: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Mean negative log-likelihood of integer labels under softmax(logits),
    and its gradient with respect to the (B, C) logits."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise NumericsError(
            f"cross_entropy expects (B,C) logits and (B,) labels, got "
            f"{logits.shape} and {labels.shape}")
    batch, classes = logits.shape
    if not np.issubdtype(labels.dtype, np.integer):
        raise NumericsError(
            f"cross_entropy labels must be integers, got {labels.dtype}")
    # a negative label would index from the end and score class C - 1
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise NumericsError(
            f"cross_entropy labels outside [0, {classes}): "
            f"{labels.min()}..{labels.max()}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    nll = np.asarray(-log_probs[np.arange(batch), labels].mean(),
                     dtype=logits.dtype)
    require_finite("cross_entropy", nll)
    probs = np.exp(log_probs)
    probs[np.arange(batch), labels] -= 1.0
    probs /= batch
    return nll, probs


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The cross-entropy pair as a graph node."""
    nll, g_logits = cross_entropy_arrays(logits.data, labels)
    return _node("cross_entropy", nll, (logits,), lambda g, grads: (
        np.multiply(g, g_logits, out=grads[0])))


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum of absolute errors over the last axis, averaged over the batch."""
    target = np.asarray(target)
    if pred.data.shape != target.shape:
        raise NumericsError(
            f"l1_loss shape mismatch: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    batch = pred.data.shape[0] if pred.data.ndim > 1 else 1
    val = np.abs(diff).sum() / batch
    return _node("l1_loss", np.asarray(val, dtype=pred.dtype), (pred,),
                 lambda g, grads: np.divide(g * np.sign(diff), batch,
                                            out=grads[0]))


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, sigma) || N(0, 1)) summed over dims, averaged over the batch.

    Analytic form: 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2).
    """
    if mu.data.shape != logvar.data.shape:
        raise NumericsError("gaussian_kl shape mismatch")
    var = np.exp(logvar.data)
    batch = mu.data.shape[0] if mu.data.ndim > 1 else 1
    val = 0.5 * (mu.data ** 2 + var - 1.0 - logvar.data).sum() / batch

    def backward(g, grads):
        grads[0][...] = g * mu.data / batch
        grads[1][...] = g * 0.5 * (var - 1.0) / batch

    return _node("gaussian_kl", np.asarray(val, dtype=mu.dtype), (mu, logvar),
                 backward)


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
    """Bias-corrected Adam over one flat parameter buffer `data` and its
    gradient buffer `grad` (`params.Model`). `step()` updates `data` in
    place from `grad`, with one vector operation per term of the update
    rule, and reads `grad` without writing it."""

    def __init__(self, data: np.ndarray, grad: np.ndarray,
                 learning_rate: float):
        if not learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if (data.ndim != 1 or grad.shape != data.shape
                or grad.dtype != data.dtype):
            raise NumericsError(f"Adam needs a flat param and a grad of its "
                                f"shape and dtype, got {data.shape} "
                                f"{data.dtype} and {grad.shape} {grad.dtype}")
        self.data, self.grad = data, grad
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m, self.v, self._sq = (np.zeros_like(data) for _ in range(3))

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, self.learning_rate
        g, m, v = self.grad, self.m, self.v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        sq = np.multiply(g, g, out=self._sq)
        sq *= 1 - b2
        v += sq
        # lr * m_hat / (sqrt(v_hat) + eps)
        update = m / (1 - b1 ** t)
        update *= lr
        denom = v / (1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        self.data -= update

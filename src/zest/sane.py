"""Self-attention feature extractor over packet sequences.

A stack of pre-norm encoder blocks, in the one form the paper prints, over
packet embeddings with a learnable sequence-level aggregation (SLA) token
and positional embedding, average pooling, two latent heads (l of width M,
lambda of width N) and a softmax classifier over seen device classes.
Each block's self-attention is one `numerics.attention_arrays` call, which
recomputes the attention probabilities in backward, so no (B, h, n+1, n+1)
array is kept, followed by the output projection `wo`/`bo`.

The model runs on plain arrays, as the CVAE does: `forward` returns the
logits and latents, and `backward` takes the logits' gradient and writes
every parameter's gradient into the model's flat gradient buffer
(`params.Model`). It runs the blocks in reverse through the `numerics`
array backwards, with the float operations of the per-op graph it replaced
in the same order, so training is bit-identical to that graph's.

Every array a step writes lives in a `Workspace`, sized once for up to
`rows` sequences; a shorter batch takes leading-row views, so each step
reuses the memory of the step before. `train_sane`'s steps and validation
forwards share one, and `predict_arrays` makes its own unless given one.
A forward's outputs are valid until the next forward in its workspace,
and `backward` back-propagates the workspace's latest forward, once. A
block keeps only what backward reads and cannot rebuild (Chen et al.,
arXiv 1604.06174): its layer norms' xhat and 1 / std, attention's score
statistics and its context. The blocks share the rest: the residual
stream E and the sum E + R1, (B, T, d) arrays over which backward writes
its gradients, and one MLP region, which holds GELU's output and
derivative and, over them, the layer norm output, attention's projections
and the context gradient. Backward rebuilds these by the forward's own
operations: the projections from xhat1 through ln, and, for each block but
the last, whose MLP later blocks wrote over, ln2 from xhat2, w1 and GELU.
Attention's arrays may lie over GELU's, which are dead while any block's
attention runs.

A step splits its batch into two row halves (`Workspace.halves`) and runs
all per-sequence work on both at once, the first half on the calling
thread and the second on one helper thread (`_run_halves`): the embedding,
the layer norms, attention's chunks, GELU, the blocks' linear layers and
every input gradient. Their products are 3-D, one per sequence, so a
sequence gets the same bits in either half as in the whole batch. What
sums over the batch runs as one call over all of it on the calling
thread: every weight, bias, gain, `pos` and `sla` gradient, the head's 2-D
products, whose one-row batches differ, and attention backward's row dots
(`numerics.attention_row_dots`). Such a call runs between the halves'
runs, or, where it shares no array with a run's halves, while the helper
runs that run's second half. So a step gives the bits of a one-threaded
one. Each run ends when both halves have returned, a barrier. The MLP
region holds arrays of both halves at once, so a run also ends wherever
one half would write it over what the other still reads. In forward, each
block runs as attention | w1 | GELU and w2: w1 writes mlp over the other
half's projections, GELU writes dmlp over its ln, and the next block's
attention writes ln and the projections over its mlp and dmlp. In
backward, each block but the last first runs ln2 and w1 | GELU, whose
dmlp lies over the other half's ln, and ln is written over dmlp again
only once the MLP's gradient has consumed it. The helper is started
once, in a process that may run on two or more CPUs and whose BLAS runs
one thread (`_helper_gets_a_cpu`); elsewhere the calling thread runs both
halves in turn, by the same code and to the same bits. Only numpy work
runs on it.
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _BLAS_THREAD_VARS
from . import numerics as nm
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .ingest import NUM_FEATURES
from .params import Model, check_fields, xavier

logger = logging.getLogger("zest.sane")

# sequences per forward of `predict_arrays`
PREDICT_BATCH = 64
# attention's parameters, as `numerics.attention_arrays` takes them
_QKV = ("wq", "bq", "wk", "wv", "bv")
# the head's linear layers: parameter prefix, input and output
_HEAD = (("latent_l", "pooled", "l"), ("latent_lam", "l", "lam"),
         ("head", "lam", "logits"))


@dataclass
class SaneConfig:
    n: int = 200               # packets per sequence
    f: int = NUM_FEATURES      # raw features per packet
    d_model: int = 64
    e: int = 2                 # encoder blocks; 0 pools the embeddings
    h: int = 8                 # attention heads
    d_mlp: int = 256
    M: int = 20                # latent l width
    N: int = 3                 # latent lambda / attribute width
    num_classes: int = 10
    batch_size: int = 64
    epochs: int = 20
    learning_rate: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"e": ">= 0", "epochs": ">= 0", "seed": ">= 0"})
        if self.d_model % self.h != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by h={self.h}")
        if self.N >= self.M:
            raise ValueError(f"N < M is required, got N={self.N}, M={self.M}")


def _block(arrays: dict, i: int) -> dict:
    """Block i's entries of a dict keyed by parameter name, keyed by the
    rest of the name."""
    return {k.split(".", 1)[1]: v for k, v in arrays.items()
            if k.startswith(f"block{i}.")}


# the helper thread's queues of work and of outcomes, made and started on
# first use where `_helper_gets_a_cpu`; False where it does not
_helper: tuple | bool | None = None
# held by the thread whose halves the helper runs
_helper_busy = threading.Lock()


def _forget_helper() -> None:
    """In a forked child, which has no helper thread: decide afresh."""
    global _helper, _helper_busy
    _helper, _helper_busy = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _helper_gets_a_cpu() -> bool:
    """Whether the helper would run on a CPU of its own: the process may
    run on two or more CPUs, and BLAS runs each call on one thread. A BLAS
    with threads of its own already takes the other CPUs, and the helper
    then only contends with them: in a separable-12 pipeline with OpenBLAS
    on one thread per CPU, on 2 vCPUs, train-sane took 60.8 s with the
    helper and 54.9 s without it."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return cpus > 1 and int(value) == 1
    return False


def _outcome(fn, *args) -> list:
    """[] when fn(*args) returns, else [the exception it raised]."""
    try:
        fn(*args)
    except BaseException as exc:
        return [exc]
    return []


def _serve(jobs: queue.SimpleQueue, outcomes: queue.SimpleQueue) -> None:
    while True:
        outcomes.put(_outcome(*jobs.get()))


def _helper_outcome(outcomes: queue.SimpleQueue) -> list:
    """The outcome of the helper's job, then each interrupt that came while
    this thread waited for it: a call returns or raises only once its
    helper half has, so no half outlives its step and no outcome is left
    for the next call."""
    interrupts = []
    while True:
        try:
            return outcomes.get() + interrupts
        except BaseException as exc:
            interrupts.append(exc)


def _helper_queues() -> tuple | None:
    """The helper's job and outcome queues, the helper started on first
    use; None where it would get no CPU of its own. The caller holds
    `_helper_busy`."""
    global _helper
    if _helper is None:
        _helper = _helper_gets_a_cpu() and (queue.SimpleQueue(),
                                            queue.SimpleQueue())
        if _helper:
            threading.Thread(target=_serve, args=_helper, daemon=True,
                             name="sane-half").start()
    return _helper or None


def _run_halves(work, halves: list, first=None) -> None:
    """Call work(half) for each of the one or two `halves` of a batch
    (`Workspace.halves`) and return once every call has returned: the
    barrier at which a step's halves meet. The helper thread runs the
    second half while this thread runs `first()`, when given, and then the
    first half; so `first`, a full-batch call, must read nothing that the
    halves write and write nothing that they read. Where the helper gets
    no CPU of its own, or while another thread's halves hold it, this
    thread runs all in turn. Raises the first error of `first`, the first
    half and the second."""
    calls = ([(first,)] if first else []) + [(work, h) for h in halves]
    errors, helped = [], False
    if len(halves) > 1 and _helper_busy.acquire(blocking=False):
        try:
            queues = _helper_queues()
            if queues:
                helped = True
                queues[0].put(calls.pop())
                for call in calls:
                    errors += _outcome(*call)
                errors += _helper_outcome(queues[1])
        finally:
            _helper_busy.release()
    if not helped:
        for call in calls:
            errors += _outcome(*call)
    if errors:
        raise errors[0]


class Half(NamedTuple):
    """One row half of a batch in a workspace: its `rows` of the batch, and
    views of those rows of each block's arrays and of the shared ones, with
    that half's scratch among the shared (`Workspace.halves`)."""

    rows: slice
    blocks: list[dict]
    s: dict


def _expand(h: Half, w: dict) -> None:
    """w1 of the block whose parameters are w, from half h's ln to mlp."""
    nm.linear_arrays(h.s["ln"], w["mlp.w1"], w["mlp.b1"], out=h.s["mlp"])


def _gelu(h: Half) -> np.ndarray:
    """GELU over half h's mlp, its derivative into dmlp; returns mlp."""
    return nm.gelu_arrays(h.s["mlp"], out=h.s["mlp"], deriv=h.s["dmlp"],
                          scratch=h.s["gelu"])[0]


class Workspace:
    """Every array a SANE step writes, for batches of up to `rows`
    sequences of T = n + 1 tokens; a batch of b sequences takes each
    array's first b rows (`views`), and each of its two row halves the
    half of those rows (`halves`).

    - `blocks[i]`, what block i's backward reads and cannot rebuild:
      layer norm k's normalised input and row 1 / std ("xhatk", "invk"),
      attention's score statistics (`nm.attention_saved`) and context
      ("ctx");
    - `shared` by the blocks: the residual stream "stem" (in backward, its
      gradient), "res" (E + R1; in backward, layer norm's input gradient,
      then the embeddings'), the head's outputs and gradients ("g_*"), and
      the one MLP region: GELU's output, over which backward writes the
      MLP's gradient, and derivative ("mlp", "dmlp"), the last block's
      from forward and every other's rebuilt in backward, and over them
      what a block uses only while attention runs: the layer norm output
      "ln" and attention's projections "q", "k", "v" and "qkv", which
      backward rebuilds (over "qkv" it then writes their gradient), and
      the context gradient "g_ctx" (also layer norm backward's scratch).
      The region is widened to hold these where 2 d_mlp does not;
    - `scratch[k]`, row half k's own per-chunk attention scratch, for
      chunks of at most half of `nm.ATTN_SCORE_ELEMS` score elements, and
      its GELU scratch ("gelu") over the same memory;
    - `x`, the input of the forward that backward has yet to run, or None.

    Every array but the scratch is split by rows, so the halves write
    disjoint rows of each. But the MLP region holds several arrays at
    once: half A's rows of ln or of the projections can share memory with
    half B's rows of mlp or dmlp. So the halves meet at a barrier
    (`_run_halves`) before either writes one of these over what the other
    may still read."""

    def __init__(self, model: SaneModel, rows: int):
        c, dtype = model.config, model.dtype
        t, d, m = c.n + 1, c.d_model, c.d_mlp

        def new(**shapes):
            return {k: np.empty((rows,) + s, dtype) for k, s in shapes.items()}

        # the MLP region holds (rows, t, width) arrays `offset` rows * t
        # elements in, so that every leading-row view is contiguous: mlp and
        # qkv from 0, dmlp from m, q, k and v from 3 d, and ln and g_ctx
        # past those and mlp, since attention reads ln into them and w1
        # reads it into mlp
        def at(offset, width):
            return region[rows * t * offset:rows * t * (offset + width)
                          ].reshape(rows, t, width)

        lo = max(6 * d, m)
        region = np.empty(rows * t * max(2 * m, lo + 2 * d), dtype)
        self.rows, self.x = rows, None
        self.blocks = [
            nm.attention_saved(rows, t, d, c.h, dtype)
            | new(xhat1=(t, d), inv1=(t, 1), ctx=(t, d), xhat2=(t, d),
                  inv2=(t, 1))
            for _ in range(c.e)]
        self.shared = new(
            stem=(t, d), res=(t, d), pooled=(d,), l=(c.M,), lam=(c.N,),
            logits=(c.num_classes,), g_pooled=(d,), g_l=(c.M,), g_lam=(c.N,)
        ) | {"mlp": at(0, m), "dmlp": at(m, m), "ln": at(lo, d),
             "qkv": at(0, 3 * d), "g_ctx": at(lo + d, d)} | {
            k: at((3 + i) * d, d).reshape(rows, c.h, t, -1)
            for i, k in enumerate("qkv")}
        # a half's GELU runs only once its attention is done, so GELU's
        # scratch lies over attention's, in one buffer per half
        half = (rows + 1) // 2
        attn = nm.attention_scratch(half, t, d, c.h, dtype,
                                    nm.ATTN_SCORE_ELEMS // 2)
        gelu = min(half * t * m, nm.GELU_BLOCK_ELEMS)
        size = max(sum(a.size for a in attn.values()), 4 * gelu)
        self.scratch = []
        for _ in range(2):
            flat, start = np.empty(size, dtype), 0
            views = {"gelu": flat[:4 * gelu].reshape(4, gelu)}
            for k, a in attn.items():
                views[k] = flat[start:start + a.size].reshape(a.shape)
                start += a.size
            self.scratch.append(views)

    def views(self, batch: int) -> tuple[list[dict], dict]:
        """The first `batch` rows of each block's arrays and the shared
        ones."""
        return self._rows(slice(0, batch), {})

    def halves(self, batch: int) -> list[Half]:
        """The row halves of a batch of `batch` sequences, the first the
        larger by one row if `batch` is odd; a one-sequence batch has only
        the first."""
        mid = (batch + 1) // 2
        return [Half(rows, *self._rows(rows, scratch))
                for rows, scratch in zip((slice(0, mid), slice(mid, batch)),
                                         self.scratch)
                if rows.stop > rows.start]

    def _rows(self, rows: slice, scratch: dict) -> tuple[list[dict], dict]:
        """`rows` of each block's arrays, and of the shared ones with
        `scratch` among them."""
        if rows.stop > self.rows:
            raise ValueError(f"a batch of {rows.stop} sequences does not fit "
                             f"a workspace of {self.rows}")

        def cut(arrays):
            return {k: a[rows] for k, a in arrays.items()}

        return [cut(b) for b in self.blocks], cut(self.shared) | scratch


class SaneModel(Model):
    """All learnable tensors of the feature extractor plus its configuration."""

    def __init__(self, config: SaneConfig, dtype=np.float32,
                 rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        c = config
        p = {"embed.w": xavier(rng, c.f, c.d_model, dtype),
             "embed.b": np.zeros(c.d_model),
             "sla": rng.normal(0.0, 0.02, size=c.d_model),
             "pos": rng.normal(0.0, 0.02, size=(c.n + 1, c.d_model))}
        for i in range(c.e):
            pre = f"block{i}"
            p[f"{pre}.ln1.gain"] = np.ones(c.d_model)
            p[f"{pre}.ln1.bias"] = np.zeros(c.d_model)
            for proj in ("wq", "wk", "wv", "wo"):
                p[f"{pre}.attn.{proj}"] = xavier(rng, c.d_model, c.d_model,
                                                 dtype)
            for bias in ("bq", "bv", "bo"):
                p[f"{pre}.attn.{bias}"] = np.zeros(c.d_model)
            p[f"{pre}.ln2.gain"] = np.ones(c.d_model)
            p[f"{pre}.ln2.bias"] = np.zeros(c.d_model)
            p[f"{pre}.mlp.w1"] = xavier(rng, c.d_model, c.d_mlp, dtype)
            p[f"{pre}.mlp.b1"] = np.zeros(c.d_mlp)
            p[f"{pre}.mlp.w2"] = xavier(rng, c.d_mlp, c.d_model, dtype)
            p[f"{pre}.mlp.b2"] = np.zeros(c.d_model)
        p["latent_l.w"] = xavier(rng, c.d_model, c.M, dtype)
        p["latent_l.b"] = np.zeros(c.M)
        p["latent_lam.w"] = xavier(rng, c.M, c.N, dtype)
        p["latent_lam.b"] = np.zeros(c.N)
        p["head.w"] = xavier(rng, c.N, c.num_classes, dtype)
        p["head.b"] = np.zeros(c.num_classes)
        super().__init__(p, dtype)

    # -- forward and backward ---------------------------------------------

    def forward(self, x: np.ndarray, workspace: Workspace | None = None
                ) -> dict:
        """Run a batch (B, n, f) through the network, in `workspace` or in
        one of its own. Returns a dict of workspace arrays: 'logits'
        (B, num_classes), 'l' (B, M) and 'lam' (B, N)."""
        c, p = self.config, self.params
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != (c.n, c.f):
            raise nm.NumericsError(
                f"input shape {x.shape} incompatible with (B, {c.n}, {c.f})")
        ws = Workspace(self, len(x)) if workspace is None else workspace
        _, s = ws.views(len(x))
        halves = ws.halves(len(x))
        ws.x, w = None, [_block(p, i) for i in range(c.e)]

        # as printed: R1 = MHA(Norm(E)); R2 = MLP(Norm(E + R1));
        # E <- R2 + (E + R1). No backward reads a linear's output, so each
        # sum, and GELU, is written over the output it consumes
        def embed(h):
            # the SLA token and the packet embeddings, plus positions
            e = h.s["stem"]
            nm.linear_arrays(x[h.rows], p["embed.w"], p["embed.b"],
                             out=e[:, 1:])
            e[:, 0] = p["sla"]
            nm.require_finite("concat", e)
            e += p["pos"]
            nm.require_finite("add", e)

        def attend(h, i):
            a, hs, e, r = h.blocks[i], h.s, h.s["stem"], h.s["res"]
            nm.layer_norm_arrays(e, w[i]["ln1.gain"], w[i]["ln1.bias"],
                                 hs["ln"], a["xhat1"], a["inv1"])
            nm.attention_arrays(hs["ln"], *(w[i]["attn." + k] for k in _QKV),
                                c.h, a["ctx"], a, hs, hs)
            nm.linear_arrays(a["ctx"], w[i]["attn.wo"], w[i]["attn.bo"],
                             out=r)
            nm.require_finite("add", np.add(e, r, out=r))
            nm.layer_norm_arrays(r, w[i]["ln2.gain"], w[i]["ln2.bias"],
                                 hs["ln"], a["xhat2"], a["inv2"])

        def contract(h, i):
            e = h.s["stem"]
            nm.linear_arrays(_gelu(h), w[i]["mlp.w2"], w[i]["mlp.b2"], out=e)
            nm.require_finite("add", np.add(e, h.s["res"], out=e))

        _run_halves(embed, halves)
        # each writes over the MLP region's arrays of the other half, once
        # the run before has read them (see the module docstring)
        for i in range(c.e):
            _run_halves(lambda h: attend(h, i), halves)
            _run_halves(lambda h: _expand(h, w[i]), halves)
            _run_halves(lambda h: contract(h, i), halves)
        _run_halves(lambda h: nm.require_finite("mean_pool", np.mean(
            h.s["stem"], axis=-2, out=h.s["pooled"])), halves)
        for layer, x_in, out in _HEAD:
            nm.linear_arrays(s[x_in], p[layer + ".w"], p[layer + ".b"],
                             out=s[out])
        ws.x = x
        return {name: s[name] for name in ("logits", "l", "lam")}

    def backward(self, g: np.ndarray, ws: Workspace) -> None:
        """Every parameter's gradient, written into `grads`, from the
        gradient g of the logits of the latest forward in ws, by the blocks
        in reverse; once per forward."""
        c, p, pg, x = self.config, self.params, self.grads, ws.x
        if x is None:
            raise nm.NumericsError("backward needs a pending forward")
        blocks, s = ws.views(len(x))
        halves = ws.halves(len(x))
        for layer, x_in, _ in reversed(_HEAD):
            nm.linear_param_grads(g, s[x_in], pg[layer + ".w"],
                                  pg[layer + ".b"])
            nm.linear_input_grad(g, p[layer + ".w"], s["g_" + x_in])
            g = s["g_" + x_in]
        # mean pooling hands every token g / T. g_res is then the gradient
        # of a block's output, and so of R2; plus layer norm 2's input
        # gradient, of E + R1, and so of R1; plus layer norm 1's, of E.
        # g_ctx is layer norm backward's scratch. ln and g_ctx are written
        # only once a block's dmlp is consumed, and the projections, rebuilt
        # from ln, once its mlp is: they lie in the MLP region
        g_res, g_ln, ln, g_ctx = s["stem"], s["res"], s["ln"], s["g_ctx"]
        np.divide(g, c.n + 1, out=g)
        _run_halves(lambda h: np.copyto(h.s["stem"], h.s["g_pooled"][:, None]),
                    halves)
        for i in reversed(range(c.e)):
            a, w, gw = blocks[i], _block(p, i), _block(pg, i)

            def rebuild(h):
                nm.layer_norm_output(h.blocks[i]["xhat2"], w["ln2.gain"],
                                     w["ln2.bias"], h.s["ln"])
                _expand(h, w)

            def mlp_grad(h):
                nm.linear_input_grad(h.s["stem"], w["mlp.w2"], h.s["mlp"])
                h.s["mlp"] *= h.s["dmlp"]

            def norm_grad(k):
                def run(h):
                    b = h.blocks[i]
                    nm.layer_norm_input_grad(h.s["res"], b[f"xhat{k}"],
                                             b[f"inv{k}"], w[f"ln{k}.gain"],
                                             h.s["g_ctx"])
                    h.s["stem"] += h.s["res"]
                return run

            # a block but the last rebuilds its MLP, which later blocks
            # wrote over, by the forward's operations; GELU writes dmlp
            # over the other half's ln once its w1 has read that
            if i < c.e - 1:
                _run_halves(rebuild, halves)
                _run_halves(_gelu, halves)

            nm.linear_param_grads(g_res, s["mlp"], gw["mlp.w2"], gw["mlp.b2"])
            _run_halves(mlp_grad, halves)
            # both halves' dmlp is consumed before ln is written over it
            _run_halves(lambda h: nm.layer_norm_output(
                h.blocks[i]["xhat2"], w["ln2.gain"], w["ln2.bias"],
                h.s["ln"]), halves)
            _run_halves(lambda h: nm.linear_input_grad(
                h.s["mlp"], w["mlp.w1"], h.s["res"]), halves,
                lambda: nm.linear_param_grads(s["mlp"], ln, gw["mlp.w1"],
                                              gw["mlp.b1"]))
            nm.layer_norm_param_grads(g_ln, a["xhat2"], gw["ln2.gain"],
                                      gw["ln2.bias"], g_ctx)
            _run_halves(norm_grad(2), halves)

            def attention_inputs(h):
                b, hs = h.blocks[i], h.s
                nm.linear_input_grad(hs["stem"], w["attn.wo"], hs["g_ctx"])
                nm.layer_norm_output(b["xhat1"], w["ln1.gain"],
                                     w["ln1.bias"], hs["ln"])
                nm.attention_projections(hs["ln"], *(w["attn." + k]
                                                     for k in _QKV), c.h, hs)

            _run_halves(attention_inputs, halves,
                        lambda: nm.linear_param_grads(g_res, a["ctx"],
                                                      gw["attn.wo"],
                                                      gw["attn.bo"]))
            dot = nm.attention_row_dots(g_ctx, a["ctx"], a, c.h, g_ln)
            _run_halves(lambda h: nm.attention_input_grad(
                h.s["g_ctx"], w["attn.wq"], w["attn.wk"], w["attn.wv"], c.h,
                h.blocks[i], h.s, h.s, dot[h.rows], h.s["res"]), halves)
            nm.layer_norm_param_grads(g_ln, a["xhat1"], gw["ln1.gain"],
                                      gw["ln1.bias"], g_ctx)
            _run_halves(norm_grad(1), halves, lambda: nm.attention_param_grads(
                ln, s, [gw["attn." + k] for k in _QKV]))
        np.sum(g_res, axis=0, out=pg["pos"])
        np.sum(g_res[:, 0], axis=0, out=pg["sla"])
        # the packet embeddings' gradient, made contiguous in front of g_ln
        g_emb = g_ln.reshape(-1)[:g_res[:, 1:].size]
        np.copyto(g_emb.reshape(g_res[:, 1:].shape), g_res[:, 1:])
        nm.linear_param_grads(g_emb.reshape(-1, c.d_model), x,
                              pg["embed.w"], pg["embed.b"])
        ws.x = None

    def predict_arrays(self, x: np.ndarray, batch_size: int = PREDICT_BATCH,
                       workspace: Workspace | None = None) -> dict:
        """`forward` over (P, n, f) sequences in batches of `batch_size`, in
        `workspace` or in one of its own; returns the 'logits', 'l' and
        'lam' arrays of all P, copied out of the workspace."""
        c = self.config
        if workspace is None:
            workspace = Workspace(self, min(batch_size, len(x)))
        result = {name: np.empty((len(x), width), dtype=self.dtype)
                  for name, width in (("logits", c.num_classes), ("l", c.M),
                                      ("lam", c.N))}
        for start in range(0, len(x), batch_size):
            out = self.forward(x[start:start + batch_size], workspace)
            for name, rows in result.items():
                rows[start:start + batch_size] = out[name]
        return result

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.params, asdict(self.config))

    @classmethod
    def load(cls, path: str | Path) -> "SaneModel":
        tensors, config = load_checkpoint(path)
        model = cls(SaneConfig(**config))
        model.load_state_arrays(tensors)
        return model


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------

def train_sane(x_train: np.ndarray, y_train: np.ndarray, x_val: np.ndarray,
               y_val: np.ndarray, config: SaneConfig,
               log_path: str | Path | None = None) -> tuple[SaneModel, list[dict]]:
    """Supervised training on seen devices, from (P, n, f) sequences and
    their class labels; returns the best-validation model (ties broken by
    earlier epoch) and the per-epoch log."""
    x_train = np.asarray(x_train, dtype=np.float32)
    y_train = np.asarray(y_train, dtype=np.int64)
    if len(y_train) == 0:
        raise ValueError("the training split is empty")
    if y_train.min() < 0 or y_train.max() >= config.num_classes:
        raise ValueError(
            f"training labels outside 0..{config.num_classes - 1}")
    counts = np.bincount(y_train, minlength=config.num_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"no training data for class {int(empty[0])}")
    if len(x_val) == 0:
        raise ValueError("the validation split is empty: the best epoch "
                         "is chosen on it")

    rng = np.random.default_rng(config.seed)
    model = SaneModel(config, rng=rng)
    opt = nm.Adam(model.data, model.grad, config.learning_rate)

    # any epoch's accuracy beats -1: only with no epoch is this kept
    best_data, best_val = model.data.copy(), -1.0
    log: list[dict] = []
    # each step's forward, and the validation forwards after each epoch,
    # write into the same arrays
    workspace = Workspace(model, max(min(config.batch_size, len(x_train)),
                                     min(PREDICT_BATCH, len(x_val))))
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(x_train))
        total_loss = 0.0
        total_correct = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            logits = model.forward(x_train[idx], workspace)["logits"]
            loss, g = nm.cross_entropy_arrays(logits, y_train[idx])
            model.backward(g, workspace)
            opt.step()
            total_loss += float(loss) * len(idx)
            total_correct += int((logits.argmax(axis=1) == y_train[idx]).sum())
        val_pred = model.predict_arrays(
            x_val, workspace=workspace)["logits"].argmax(axis=1)
        train_loss = total_loss / len(order)
        train_acc = total_correct / len(order)
        val_acc = float((val_pred == y_val).mean())
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "train_acc": train_acc, "val_acc": val_acc})
        logger.info("epoch %d loss %.4f train_acc %.4f val_acc %.4f",
                    epoch, train_loss, train_acc, val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_data = model.data.copy()

    model.data[...] = best_data
    if log_path is not None:
        with atomic_write(log_path, "w") as fh:
            fh.write("epoch,train_loss,train_acc,val_acc\n")
            for row in log:
                fh.write(f"{row['epoch']},{row['train_loss']:.6f},"
                         f"{row['train_acc']:.6f},{row['val_acc']:.6f}\n")
    return model, log


def evaluate_supervised(model: SaneModel, x: np.ndarray,
                        y: np.ndarray) -> tuple[float, np.ndarray]:
    """Accuracy and per-class confusion matrix on labeled test sequences."""
    if len(y) == 0:
        raise ValueError("empty test set")
    c = model.config.num_classes
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"test labels outside 0..{c - 1}")
    pred = model.predict_arrays(x)["logits"].argmax(axis=1)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    accuracy = float((pred == y).mean())
    return accuracy, confusion

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
which keeps the forward's input, so `backward` always back-propagates the
workspace's latest forward. A step keeps, per block, only what backward
reads, plus the two residual sums the forward passes on: GELU and the sums
are written over the linear outputs they consume. The blocks share the
backward's gradients and scratch, since one block's backward runs at a
time.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .ingest import NUM_FEATURES
from .params import Model, require_positive, xavier

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
    e: int = 2                 # encoder stack size
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
        if self.e < 1:
            raise ValueError(f"encoder stack size must be >= 1, got {self.e}")
        require_positive(self, "n", "f", "d_model", "h", "d_mlp", "M", "N",
                         "num_classes", "batch_size", "learning_rate")
        if self.d_model % self.h != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by h={self.h}")
        if self.N >= self.M:
            raise ValueError(f"require N < M, got N={self.N}, M={self.M}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _block(arrays: dict, i: int) -> dict:
    """Block i's entries of a dict keyed by parameter name, keyed by the
    rest of the name."""
    return {k.split(".", 1)[1]: v for k, v in arrays.items()
            if k.startswith(f"block{i}.")}


class Workspace:
    """Every array a SANE step writes, for batches of up to `rows`
    sequences of T = n + 1 tokens; a batch of b sequences takes each
    array's first b rows (`views`).

    - `blocks[i]`, what block i's backward reads: layer norm k's output,
      normalised input and row 1 / std ("lnk", "xhatk", "invk"),
      attention's saved arrays (`nm.attention_saved`) and context
      ("ctx"), and GELU's output and derivative ("mlp", "dmlp"); and the
      residual sums ("res1", "res2");
    - `shared` by the blocks: the "stem" (the SLA token and embeddings plus
      positions; in backward, the embeddings' gradient), the head's
      outputs, the backward's gradients ("g_*"; g_ctx is also layer norm
      backward's scratch) and attention's scratch;
    - `gelu`, GELU's scratch;
    - `x`, the latest forward's input, which backward reads too."""

    def __init__(self, model: SaneModel, rows: int):
        c, dtype = model.config, model.dtype
        t, d, m = c.n + 1, c.d_model, c.d_mlp

        def new(**shapes):
            return {k: np.empty((rows,) + s, dtype) for k, s in shapes.items()}

        self.rows, self.x = rows, None
        self.blocks = [nm.attention_saved(rows, t, d, c.h, dtype) | new(
            ln1=(t, d), xhat1=(t, d), inv1=(t, 1), ctx=(t, d), res1=(t, d),
            ln2=(t, d), xhat2=(t, d), inv2=(t, 1), mlp=(t, m), dmlp=(t, m),
            res2=(t, d)) for _ in range(c.e)]
        self.shared = nm.attention_scratch(rows, t, d, c.h, dtype) | new(
            stem=(t, d), pooled=(d,), l=(c.M,), lam=(c.N,),
            logits=(c.num_classes,), g_res=(t, d), g_ln=(t, d), g_ctx=(t, d),
            g_mlp=(t, m), g_pooled=(d,), g_l=(c.M,), g_lam=(c.N,))
        self.gelu = np.empty((4, min(rows * t * m, nm.GELU_BLOCK_ELEMS)),
                             dtype)

    def views(self, batch: int) -> tuple[list[dict], dict]:
        """The first `batch` rows of each block's arrays and the shared
        ones."""
        if batch > self.rows:
            raise ValueError(f"a batch of {batch} sequences does not fit a "
                             f"workspace of {self.rows}")

        def cut(arrays):
            return {k: a[:batch] for k, a in arrays.items()}

        return [cut(b) for b in self.blocks], cut(self.shared)


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
        blocks, s = ws.views(len(x))
        ws.x = x
        # the SLA token and the packet embeddings, plus positions
        e = s["stem"]
        nm.linear_arrays(x, p["embed.w"], p["embed.b"], out=e[:, 1:])
        e[:, 0] = p["sla"]
        nm.require_finite("concat", e)
        e += p["pos"]
        nm.require_finite("add", e)
        for i, a in enumerate(blocks):
            w = _block(p, i)
            # as printed: R1 = MHA(Norm(E)); R2 = MLP(Norm(E + R1));
            # E <- R2 + (E + R1). No backward reads a linear's output, so
            # each sum, and GELU, is written over the output it consumes
            nm.layer_norm_arrays(e, w["ln1.gain"], w["ln1.bias"], a["ln1"],
                                 a["xhat1"], a["inv1"])
            nm.attention_arrays(a["ln1"], *(w["attn." + k] for k in _QKV),
                                c.h, a["ctx"], a, s)
            r1 = nm.linear_arrays(a["ctx"], w["attn.wo"], w["attn.bo"],
                                  out=a["res1"])
            nm.require_finite("add", np.add(e, r1, out=r1))
            nm.layer_norm_arrays(r1, w["ln2.gain"], w["ln2.bias"], a["ln2"],
                                 a["xhat2"], a["inv2"])
            m = nm.linear_arrays(a["ln2"], w["mlp.w1"], w["mlp.b1"],
                                 out=a["mlp"])
            nm.gelu_arrays(m, out=m, deriv=a["dmlp"], scratch=ws.gelu)
            e = nm.linear_arrays(m, w["mlp.w2"], w["mlp.b2"], out=a["res2"])
            nm.require_finite("add", np.add(e, r1, out=e))
        nm.require_finite("mean_pool", np.mean(e, axis=-2, out=s["pooled"]))
        for layer, x_in, out in _HEAD:
            nm.linear_arrays(s[x_in], p[layer + ".w"], p[layer + ".b"],
                             out=s[out])
        return {name: s[name] for name in ("logits", "l", "lam")}

    def backward(self, g: np.ndarray, ws: Workspace) -> None:
        """Every parameter's gradient, written into `grads`, from the
        gradient g of the logits of the latest forward in ws, by the blocks
        in reverse."""
        c, p, pg, x = self.config, self.params, self.grads, ws.x
        blocks, s = ws.views(len(x))
        for layer, x_in, _ in reversed(_HEAD):
            nm.linear_backward(g, s[x_in], p[layer + ".w"], pg[layer + ".w"],
                               pg[layer + ".b"], s["g_" + x_in])
            g = s["g_" + x_in]
        # mean pooling hands every token g / T. g_res is then the gradient
        # of a block's output, and so of R2; plus layer norm 2's input
        # gradient, of E + R1, and so of R1; plus layer norm 1's, of E.
        # g_ctx is layer norm backward's scratch
        g_res, g_ln, g_ctx, g_mlp = (s[k] for k in
                                     ("g_res", "g_ln", "g_ctx", "g_mlp"))
        g_res[...] = np.divide(g, c.n + 1, out=g)[:, None]
        for i in reversed(range(c.e)):
            a, w, gw = blocks[i], _block(p, i), _block(pg, i)
            nm.linear_backward(g_res, a["mlp"], w["mlp.w2"], gw["mlp.w2"],
                               gw["mlp.b2"], g_mlp)
            g_mlp *= a["dmlp"]
            nm.linear_backward(g_mlp, a["ln2"], w["mlp.w1"], gw["mlp.w1"],
                               gw["mlp.b1"], g_ln)
            nm.layer_norm_backward(g_ln, a["xhat2"], a["inv2"], w["ln2.gain"],
                                   gw["ln2.gain"], gw["ln2.bias"], g_ctx)
            g_res += g_ln
            nm.linear_backward(g_res, a["ctx"], w["attn.wo"], gw["attn.wo"],
                               gw["attn.bo"], g_ctx)
            nm.attention_backward(g_ctx, a["ln1"], w["attn.wq"], w["attn.wk"],
                                  w["attn.wv"], c.h, a["ctx"], a, s, g_ln,
                                  [gw["attn." + k] for k in _QKV])
            nm.layer_norm_backward(g_ln, a["xhat1"], a["inv1"], w["ln1.gain"],
                                   gw["ln1.gain"], gw["ln1.bias"], g_ctx)
            g_res += g_ln
        np.sum(g_res, axis=0, out=pg["pos"])
        np.sum(g_res[:, 0], axis=0, out=pg["sla"])
        # the packet embeddings' gradient, made contiguous in the front of
        # the stem, which no backward reads
        g_emb = s["stem"].reshape(-1)[:g_res[:, 1:].size]
        np.copyto(g_emb.reshape(g_res[:, 1:].shape), g_res[:, 1:])
        nm.linear_backward(g_emb.reshape(-1, c.d_model), x, p["embed.w"],
                           pg["embed.w"], pg["embed.b"])

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
        save_checkpoint(path, self.state_arrays(), asdict(self.config))

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
    counts = np.bincount(y_train, minlength=config.num_classes)
    if y_train.min() < 0 or y_train.max() >= config.num_classes:
        raise ValueError(
            f"training labels outside 0..{config.num_classes - 1}")
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

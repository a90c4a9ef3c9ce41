"""Self-attention feature extractor over packet sequences.

A stack of pre-norm encoder blocks, in the one form the paper prints, over
packet embeddings with a learnable sequence-level aggregation (SLA) token
and positional embedding, average pooling, two latent heads (l of width M,
lambda of width N) and a softmax classifier over seen device classes.

Each block's multi-head self-attention is one `numerics.attention` call
(Q/K/V projections, K's without a bias; scaled scores, softmax and context
in a single op with a hand-written backward) followed by the output
projection `wo`/`bo`. That op works through the batch in bounded chunks and
recomputes the attention probabilities in backward, so neither training nor
encoding keeps a (B, h, n+1, n+1) array; the attention maps are not returned.

Training and `predict_arrays` both build a full graph for every batch, and
hold one batch's graph at a time: each forward takes the arrays its graph
keeps from a `numerics.Arena` rewound before it, so every step reuses the
memory of the step before. `train_sane`'s steps and its per-epoch
validation forwards share one arena.

A step keeps, per block, only what backward reads: both layer norms'
normalised input and output, attention's q, k, v and context, and GELU's
output and derivative, plus the two residual sums the forward passes on.
GELU and the sums are written over the linear outputs they consume, and
attention's packed qkv product is scratch.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .ingest import NUM_FEATURES
from .params import Model, xavier

logger = logging.getLogger("zest.sane")


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
        if self.d_model % self.h != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by h={self.h}")
        if self.N >= self.M:
            raise ValueError(f"require N < M, got N={self.N}, M={self.M}")
        if self.e < 1:
            raise ValueError(f"encoder stack size must be >= 1, got {self.e}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


class SaneModel(Model):
    """All learnable tensors of the feature extractor plus its configuration."""

    def __init__(self, config: SaneConfig, dtype=np.float32,
                 rng: np.random.Generator | None = None):
        super().__init__(dtype)
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        c = config
        add_param = self.add_param

        add_param("embed.w", xavier(rng, c.f, c.d_model, dtype))
        add_param("embed.b", np.zeros(c.d_model))
        add_param("sla", rng.normal(0.0, 0.02, size=c.d_model))
        add_param("pos", rng.normal(0.0, 0.02, size=(c.n + 1, c.d_model)))
        for i in range(c.e):
            pre = f"block{i}"
            add_param(f"{pre}.ln1.gain", np.ones(c.d_model))
            add_param(f"{pre}.ln1.bias", np.zeros(c.d_model))
            for proj in ("wq", "wk", "wv", "wo"):
                add_param(f"{pre}.attn.{proj}",
                          xavier(rng, c.d_model, c.d_model, dtype))
            for bias in ("bq", "bv", "bo"):
                add_param(f"{pre}.attn.{bias}", np.zeros(c.d_model))
            add_param(f"{pre}.ln2.gain", np.ones(c.d_model))
            add_param(f"{pre}.ln2.bias", np.zeros(c.d_model))
            add_param(f"{pre}.mlp.w1", xavier(rng, c.d_model, c.d_mlp, dtype))
            add_param(f"{pre}.mlp.b1", np.zeros(c.d_mlp))
            add_param(f"{pre}.mlp.w2", xavier(rng, c.d_mlp, c.d_model, dtype))
            add_param(f"{pre}.mlp.b2", np.zeros(c.d_model))
        add_param("latent_l.w", xavier(rng, c.d_model, c.M, dtype))
        add_param("latent_l.b", np.zeros(c.M))
        add_param("latent_lam.w", xavier(rng, c.M, c.N, dtype))
        add_param("latent_lam.b", np.zeros(c.N))
        add_param("head.w", xavier(rng, c.N, c.num_classes, dtype))
        add_param("head.b", np.zeros(c.num_classes))

    # -- forward ----------------------------------------------------------

    def _attention(self, x: nm.Tensor, block: int) -> nm.Tensor:
        p = self.params
        pre = f"block{block}.attn"
        ctx = nm.attention(x, *(p[f"{pre}.{name}"] for name in
                                ("wq", "bq", "wk", "wv", "bv")),
                           heads=self.config.h)
        return nm.linear(ctx, p[f"{pre}.wo"], p[f"{pre}.bo"])

    def forward(self, x: np.ndarray) -> dict:
        """Run a batch (B, n, f) through the network.

        Returns a dict of live Tensors: 'logits' (B, num_classes),
        'l' (B, M) and 'lam' (B, N).
        """
        c = self.config
        p = self.params
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != (c.n, c.f):
            raise nm.NumericsError(
                f"input shape {x.shape} incompatible with (B, {c.n}, {c.f})")
        batch = x.shape[0]

        emb = nm.linear(nm.param(x, "input"), p["embed.w"], p["embed.b"])
        sla = nm.broadcast_to(nm.reshape(p["sla"], (1, 1, c.d_model)),
                              (batch, 1, c.d_model))
        e = nm.concat([sla, emb], axis=-2)
        e = nm.add(e, p["pos"])

        for i in range(c.e):
            pre = f"block{i}"
            # as printed: R1 = MHA(Norm(E)); R2 = MLP(Norm(E + R1));
            # E <- R2 + (E + R1). No backward reads a linear's output, so
            # each sum, and GELU, is written over the output it consumes
            r1 = self._attention(
                nm.layer_norm(e, p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"]), i)
            e_r1 = nm.add(e, r1, out=r1.data)
            m = nm.layer_norm(e_r1, p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"])
            m = nm.linear(m, p[f"{pre}.mlp.w1"], p[f"{pre}.mlp.b1"])
            m = nm.gelu(m, out=m.data)
            m = nm.linear(m, p[f"{pre}.mlp.w2"], p[f"{pre}.mlp.b2"])
            e = nm.add(m, e_r1, out=m.data)

        pooled = nm.mean_pool(e)
        latent_l = nm.linear(pooled, p["latent_l.w"], p["latent_l.b"])
        latent_lam = nm.linear(latent_l, p["latent_lam.w"], p["latent_lam.b"])
        logits = nm.linear(latent_lam, p["head.w"], p["head.b"])
        return {"logits": logits, "l": latent_l, "lam": latent_lam}

    def predict_arrays(self, x: np.ndarray, batch_size: int = 64) -> dict:
        """`forward` over (P, n, f) sequences in batches of `batch_size`;
        returns the 'logits', 'l' and 'lam' arrays of all P.

        Each batch builds a graph, in the active arena or else in one of
        its own, rewound before every batch; the results are copied out, so
        none of the returned arrays is arena memory."""
        c = self.config
        x = np.asarray(x, dtype=self.dtype)
        result = {name: np.empty((len(x), width), dtype=self.dtype)
                  for name, width in (("logits", c.num_classes), ("l", c.M),
                                      ("lam", c.N))}
        arena = nm.active_arena() or nm.Arena()
        with nm.using_arena(arena):
            for start in range(0, len(x), batch_size):
                arena.rewind()
                out = self.forward(x[start:start + batch_size])
                for name, rows in result.items():
                    rows[start:start + batch_size] = out[name].data
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
    opt = nm.Adam(model.parameters(), learning_rate=config.learning_rate)

    best_state: dict[str, np.ndarray] | None = None
    best_val = -1.0
    log: list[dict] = []
    # one step's graph at a time: each step's forward, and the validation
    # forwards after each epoch, take their arrays from the same buffers
    arena = nm.Arena()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(x_train))
        total_loss = 0.0
        total_correct = 0
        with nm.using_arena(arena):
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                arena.rewind()
                out = model.forward(x_train[idx])
                loss = nm.cross_entropy(out["logits"], y_train[idx])
                opt.zero_grad()
                loss.backward()
                opt.step()
                total_loss += float(loss.data) * len(idx)
                total_correct += int(
                    (out["logits"].data.argmax(axis=1) == y_train[idx]).sum())
                del out, loss
            val_pred = model.predict_arrays(x_val)["logits"].argmax(axis=1)
        train_loss = total_loss / len(order)
        train_acc = total_correct / len(order)
        val_acc = float((val_pred == y_val).mean())
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "train_acc": train_acc, "val_acc": val_acc})
        logger.info("epoch %d loss %.4f train_acc %.4f val_acc %.4f",
                    epoch, train_loss, train_acc, val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_state = model.state_arrays()

    if best_state is not None:
        model.load_state_arrays(best_state)
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

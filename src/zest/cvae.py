"""Conditional VAE over extracted latents, and pseudo data generation.

The encoder compresses a latent l conditioned on its device attribute into a
Gaussian (mu, log sigma^2); the decoder reconstructs l from a reparameterized
sample and the attribute, under the paper's L1 reconstruction loss plus the
KL term. After training on seen devices only, the decoder
maps (Gaussian noise, attribute) to pseudo latents for any device. Every
call takes an attribute array; the VAE-K baseline's plain VAE is this model
with cond_dim=0 and zero-width (n, 0) attributes.

The encoder and decoder run on plain arrays, for inference
(`encode_arrays`, `decode_arrays`) and for training alike: `cvae_loss`
runs the forward and one hand-written backward, which writes the ten
parameters' gradients into `model.grads` through `nm.linear_param_grads`,
as `SaneModel.backward` does. The forward keeps every finite check of the
composite of graph nodes it replaces, under the same op names, and the
backward does that composite's float operations in the same order, so a
trained model is bit-identical to one trained through the composite.

The model's flat parameter and gradient buffers, their Glorot
initialisation and their shape-checked loading are the `params.Model`
layer the SANE encoder uses too. `train_cvae` with epochs=0 returns the
model as initialised and an empty log.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .checkpoint import load_checkpoint, save_checkpoint
from .params import Model, check_fields, xavier

logger = logging.getLogger("zest.cvae")


@dataclass
class CvaeConfig:
    input_dim: int = 20
    cond_dim: int = 3          # 0 for a plain VAE (zero-width attributes)
    z_dim: int = 8
    hidden_dim: int = 32
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"cond_dim": ">= 0", "epochs": ">= 0",
                            "seed": ">= 0"})


class CvaeModel(Model):
    """Encoder (l + attr -> mu, logvar) and decoder (z + attr -> l-hat)."""

    def __init__(self, config: CvaeConfig, dtype=np.float32,
                 rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        c = config
        enc_in = c.input_dim + c.cond_dim
        dec_in = c.z_dim + c.cond_dim
        super().__init__({
            "enc.w1": xavier(rng, enc_in, c.hidden_dim, dtype),
            "enc.b1": np.zeros(c.hidden_dim),
            "enc.mu_w": xavier(rng, c.hidden_dim, c.z_dim, dtype),
            "enc.mu_b": np.zeros(c.z_dim),
            "enc.lv_w": xavier(rng, c.hidden_dim, c.z_dim, dtype),
            "enc.lv_b": np.zeros(c.z_dim),
            "dec.w1": xavier(rng, dec_in, c.hidden_dim, dtype),
            "dec.b1": np.zeros(c.hidden_dim),
            "dec.w2": xavier(rng, c.hidden_dim, c.input_dim, dtype),
            "dec.b2": np.zeros(c.input_dim)}, dtype)

    def _with_cond_arrays(self, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """x with its attribute columns appended, checked as a concat."""
        out = np.concatenate([x, np.asarray(cond, dtype=x.dtype)], axis=-1)
        nm.require_finite("concat", out)
        return out

    def _encoder(self, x: np.ndarray, cond: np.ndarray) -> tuple:
        """Encoder forward on arrays: its input with the attribute, the
        hidden activation and its GELU derivative, mu and logvar."""
        p = self.params
        xc = self._with_cond_arrays(x, cond)
        # GELU over the product, which nothing else reads
        h = nm.linear_arrays(xc, p["enc.w1"], p["enc.b1"])
        h, dh = nm.gelu_arrays(h, out=h)
        mu = nm.linear_arrays(h, p["enc.mu_w"], p["enc.mu_b"])
        logvar = nm.linear_arrays(h, p["enc.lv_w"], p["enc.lv_b"])
        return xc, h, dh, mu, logvar

    def _decoder(self, z: np.ndarray, cond: np.ndarray) -> tuple:
        """Decoder forward on arrays: its input with the attribute, the
        hidden activation and its GELU derivative, and the reconstruction."""
        p = self.params
        zc = self._with_cond_arrays(z, cond)
        h = nm.linear_arrays(zc, p["dec.w1"], p["dec.b1"])
        h, dh = nm.gelu_arrays(h, out=h)
        return zc, h, dh, nm.linear_arrays(h, p["dec.w2"], p["dec.b2"])

    def decode_arrays(self, z: np.ndarray, cond: np.ndarray) -> np.ndarray:
        return self._decoder(np.asarray(z, dtype=self.dtype), cond)[-1]

    def encode_arrays(self, x: np.ndarray,
                      cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._encoder(np.asarray(x, dtype=self.dtype), cond)[-2:]

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.params, asdict(self.config))

    @classmethod
    def load(cls, path: str | Path) -> "CvaeModel":
        tensors, config = load_checkpoint(path)
        model = cls(CvaeConfig(**config))
        model.load_state_arrays(tensors)
        return model


def cvae_loss(model: CvaeModel, batch: np.ndarray, cond: np.ndarray,
              eps: np.ndarray) -> tuple[float, float, float]:
    """L1 reconstruction + KL(N(mu, sigma) || N(0, 1)) with a reparameterized
    sample z = mu + sigma * eps. Writes every parameter's gradient into
    `model.grads` and returns the loss, recon and kl values.

    The forward and backward are those of the composite of graph nodes
    concat, linear, gelu, scale (logvar / 2), exp, mul, add, l1_loss and
    gaussian_kl that the loss replaced, op for op: each forward output is
    checked under that op's name, and the backward takes the same float
    operations in the order `Tensor.backward` ran the composite's
    closures."""
    dtype = model.dtype
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2:
        raise nm.NumericsError(
            f"cvae_loss expects a (B, input_dim) batch, got {batch.shape}")
    p, grads = model.params, model.grads
    xc, h1, d1, mu, logvar = model._encoder(batch, cond)
    half_logvar = logvar * 0.5
    nm.require_finite("scale", half_logvar)
    with np.errstate(over="ignore"):
        sigma = np.exp(half_logvar)
    nm.require_finite("exp", sigma)
    eps = np.asarray(eps, dtype=dtype)
    noise = sigma * eps
    nm.require_finite("mul", noise)
    z = mu + noise
    nm.require_finite("add", z)
    zc, h2, d2, recon = model._decoder(z, cond)
    if recon.shape != batch.shape:
        raise nm.NumericsError(
            f"l1_loss shape mismatch: {recon.shape} vs {batch.shape}")
    # the l1 and KL means over the batch, as nm.l1_loss and nm.gaussian_kl
    n = batch.shape[0]
    diff = recon - batch
    recon_v = np.abs(diff).sum() / n
    nm.require_finite("l1_loss", np.asarray(recon_v))
    recon_v = np.asarray(recon_v, dtype=dtype)
    var = np.exp(logvar)
    kl_v = 0.5 * (mu ** 2 + var - 1.0 - logvar).sum() / n
    nm.require_finite("gaussian_kl", np.asarray(kl_v))
    kl_v = np.asarray(kl_v, dtype=dtype)
    loss = recon_v + kl_v
    nm.require_finite("add", loss)

    # decoder, from the l1 term; the loss's own gradient is 1
    g = np.sign(diff) / n
    nm.linear_param_grads(g, h2, grads["dec.w2"], grads["dec.b2"])
    g = (g @ p["dec.w2"].T) * d2
    nm.linear_param_grads(g, zc, grads["dec.w1"], grads["dec.b1"])
    g_z = (g @ p["dec.w1"].T)[:, :z.shape[1]]
    # through z = mu + exp(logvar / 2) eps, plus the KL term's gradients;
    # each sum has two terms, so its order is free
    g_mu = g_z + mu / n
    g_logvar = g_z * eps
    g_logvar *= sigma
    g_logvar *= 0.5
    g_logvar += 0.5 * (var - 1.0) / n
    # encoder
    nm.linear_param_grads(g_mu, h1, grads["enc.mu_w"], grads["enc.mu_b"])
    nm.linear_param_grads(g_logvar, h1, grads["enc.lv_w"], grads["enc.lv_b"])
    g = (g_mu @ p["enc.mu_w"].T + g_logvar @ p["enc.lv_w"].T)
    nm.linear_param_grads(g * d1, xc, grads["enc.w1"], grads["enc.b1"])
    return float(loss), float(recon_v), float(kl_v)


def train_cvae(latents: np.ndarray, conds: np.ndarray,
               config: CvaeConfig) -> tuple[CvaeModel, list[dict]]:
    """Train on seen-device latents with their per-sample attributes, an
    (n, cond_dim) array; deterministic per seed. Returns the model (its
    decoder is the generator) and the per-epoch loss log."""
    latents = np.asarray(latents, dtype=np.float32)
    conds = np.asarray(conds, dtype=np.float32)
    if conds.shape != (latents.shape[0], config.cond_dim):
        raise ValueError(
            f"attribute array shape {conds.shape} does not match "
            f"({latents.shape[0]}, {config.cond_dim})")
    rng = np.random.default_rng(config.seed)
    model = CvaeModel(config, rng=rng)
    opt = nm.Adam(model.data, model.grad, config.learning_rate)
    log: list[dict] = []
    num = latents.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(num)
        tot_loss = tot_recon = tot_kl = 0.0
        for start in range(0, num, config.batch_size):
            idx = order[start:start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.z_dim))
            loss, recon_v, kl_v = cvae_loss(model, latents[idx], conds[idx],
                                            eps)
            opt.step()
            tot_loss += loss * len(idx)
            tot_recon += recon_v * len(idx)
            tot_kl += kl_v * len(idx)
        log.append({"epoch": epoch, "loss": tot_loss / num,
                    "recon": tot_recon / num, "kl": tot_kl / num})
    if log:
        logger.info("cvae trained: first epoch loss %.4f, last %.4f",
                    log[0]["loss"], log[-1]["loss"])
    return model, log


def generate_pseudo(model: CvaeModel, attrs: np.ndarray, k: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo latents, exactly balanced across classes: (samples, labels),
    (num_classes * k, M) float32 and (num_classes * k,) int64. Class c's k
    rows decode k Gaussian noise draws conditioned on row c of the
    (num_classes, N) attribute array `attrs`, classes in label order.
    Reads no real latents; per-class seeds derive from the run seed so
    classes can generate independently."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    attrs = np.asarray(attrs, dtype=np.float32)
    samples = []
    for label, attr in enumerate(attrs):
        rng = np.random.default_rng([seed, label])
        noise = rng.standard_normal((k, model.config.z_dim)).astype(np.float32)
        cond = np.broadcast_to(attr, (k, attr.shape[0]))
        samples.append(model.decode_arrays(noise, cond))
    labels = np.repeat(np.arange(len(attrs), dtype=np.int64), k)
    return np.concatenate(samples), labels

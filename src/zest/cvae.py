"""Conditional VAE over extracted latents, and pseudo data generation.

The encoder compresses a latent l conditioned on its device attribute into a
Gaussian (mu, log sigma^2); the decoder reconstructs l from a reparameterized
sample and the attribute, under the paper's L1 reconstruction loss plus the
KL term. After training on seen devices only, the decoder
maps (Gaussian noise, attribute) to pseudo latents for any device. Setting
cond_dim=0 gives a plain unconditional VAE (used by the VAE-K baseline).

The model's tensors, their Glorot initialisation and their shape-checked
loading are the `params.Model` layer the SANE encoder uses too. `train_cvae`
with epochs=0 returns the model as initialised and an empty log.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .checkpoint import load_checkpoint, save_checkpoint
from .params import Model, xavier

logger = logging.getLogger("zest.cvae")


@dataclass
class CvaeConfig:
    input_dim: int = 20
    cond_dim: int = 3          # 0 for an unconditional VAE
    z_dim: int = 8
    hidden_dim: int = 32
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


class CvaeModel(Model):
    """Encoder (l + attr -> mu, logvar) and decoder (z + attr -> l-hat)."""

    def __init__(self, config: CvaeConfig, dtype=np.float32,
                 rng: np.random.Generator | None = None):
        super().__init__(dtype)
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        c = config
        enc_in = c.input_dim + c.cond_dim
        dec_in = c.z_dim + c.cond_dim
        add_param = self.add_param
        add_param("enc.w1", xavier(rng, enc_in, c.hidden_dim, dtype))
        add_param("enc.b1", np.zeros(c.hidden_dim))
        add_param("enc.mu_w", xavier(rng, c.hidden_dim, c.z_dim, dtype))
        add_param("enc.mu_b", np.zeros(c.z_dim))
        add_param("enc.lv_w", xavier(rng, c.hidden_dim, c.z_dim, dtype))
        add_param("enc.lv_b", np.zeros(c.z_dim))
        add_param("dec.w1", xavier(rng, dec_in, c.hidden_dim, dtype))
        add_param("dec.b1", np.zeros(c.hidden_dim))
        add_param("dec.w2", xavier(rng, c.hidden_dim, c.input_dim, dtype))
        add_param("dec.b2", np.zeros(c.input_dim))

    def _with_cond(self, x: nm.Tensor, cond: np.ndarray | None) -> nm.Tensor:
        if self.config.cond_dim == 0:
            return x
        return nm.concat([x, nm.param(np.asarray(cond, dtype=x.dtype))], axis=-1)

    def encode(self, x: nm.Tensor, cond: np.ndarray | None) -> tuple[nm.Tensor, nm.Tensor]:
        p = self.params
        h = nm.gelu(nm.linear(self._with_cond(x, cond), p["enc.w1"], p["enc.b1"]))
        mu = nm.linear(h, p["enc.mu_w"], p["enc.mu_b"])
        logvar = nm.linear(h, p["enc.lv_w"], p["enc.lv_b"])
        return mu, logvar

    def decode(self, z: nm.Tensor, cond: np.ndarray | None) -> nm.Tensor:
        p = self.params
        h = nm.gelu(nm.linear(self._with_cond(z, cond), p["dec.w1"], p["dec.b1"]))
        return nm.linear(h, p["dec.w2"], p["dec.b2"])

    def decode_arrays(self, z: np.ndarray, cond: np.ndarray | None) -> np.ndarray:
        return self.decode(nm.param(np.asarray(z, dtype=self.dtype)), cond).data

    def encode_arrays(self, x: np.ndarray,
                      cond: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        mu, logvar = self.encode(nm.param(np.asarray(x, dtype=self.dtype)), cond)
        return mu.data, logvar.data

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.state_arrays(), asdict(self.config))

    @classmethod
    def load(cls, path: str | Path) -> "CvaeModel":
        tensors, config = load_checkpoint(path)
        model = cls(CvaeConfig(**config))
        model.load_state_arrays(tensors)
        return model


def cvae_loss(model: CvaeModel, batch: np.ndarray, cond: np.ndarray | None,
              eps: np.ndarray) -> tuple[nm.Tensor, float, float]:
    """L1 reconstruction + KL(N(mu, sigma) || N(0, 1)) with a reparameterized
    sample z = mu + sigma * eps. Returns (loss tensor, recon value, kl value)."""
    batch = np.asarray(batch, dtype=model.dtype)
    x = nm.param(batch)
    mu, logvar = model.encode(x, cond)
    sigma = nm.exp(nm.scale(logvar, 0.5))
    z = nm.add(mu, nm.mul(sigma, nm.param(np.asarray(eps, dtype=model.dtype))))
    recon = model.decode(z, cond)
    recon_term = nm.l1_loss(recon, batch)
    kl_term = nm.gaussian_kl(mu, logvar)
    loss = nm.add(recon_term, kl_term)
    return loss, float(recon_term.data), float(kl_term.data)


def train_cvae(latents: np.ndarray, conds: np.ndarray | None,
               config: CvaeConfig) -> tuple[CvaeModel, list[dict]]:
    """Train on seen-device latents (with per-sample attributes when
    conditional); deterministic per seed. Returns the model (its decoder is
    the generator) and the per-epoch loss log."""
    latents = np.asarray(latents, dtype=np.float32)
    if config.cond_dim > 0:
        if conds is None:
            raise ValueError("conditional model requires attribute vectors")
        conds = np.asarray(conds, dtype=np.float32)
        if conds.shape != (latents.shape[0], config.cond_dim):
            raise ValueError(
                f"attribute array shape {conds.shape} does not match "
                f"({latents.shape[0]}, {config.cond_dim})")
    rng = np.random.default_rng(config.seed)
    model = CvaeModel(config, rng=rng)
    opt = nm.Adam(model.parameters(), learning_rate=config.learning_rate)
    log: list[dict] = []
    num = latents.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(num)
        tot_loss = tot_recon = tot_kl = 0.0
        for start in range(0, num, config.batch_size):
            idx = order[start:start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.z_dim))
            cond_b = conds[idx] if config.cond_dim > 0 else None
            loss, recon_v, kl_v = cvae_loss(model, latents[idx], cond_b, eps)
            opt.zero_grad()
            loss.backward()
            opt.step()
            tot_loss += float(loss.data) * len(idx)
            tot_recon += recon_v * len(idx)
            tot_kl += kl_v * len(idx)
        log.append({"epoch": epoch, "loss": tot_loss / num,
                    "recon": tot_recon / num, "kl": tot_kl / num})
    if log:
        logger.info("cvae trained: first epoch loss %.4f, last %.4f",
                    log[0]["loss"], log[-1]["loss"])
    return model, log


@dataclass
class PseudoDataset:
    """Decoder-generated labeled latents, exactly balanced across classes."""

    samples: np.ndarray    # (num_classes * k, M)
    labels: np.ndarray     # (num_classes * k,)


def generate_pseudo(model: CvaeModel, class_attributes: dict[int, np.ndarray],
                    k: int, seed: int) -> PseudoDataset:
    """Decode k Gaussian noise draws per class conditioned on that class's
    attribute vector. Reads no real latents; per-class seeds derive from the
    run seed so classes can generate independently."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    samples = []
    labels = []
    for label in sorted(class_attributes):
        rng = np.random.default_rng([seed, label])
        noise = rng.standard_normal((k, model.config.z_dim)).astype(np.float32)
        attr = np.asarray(class_attributes[label], dtype=np.float32)
        cond = np.broadcast_to(attr, (k, attr.shape[0]))
        samples.append(model.decode_arrays(noise, cond))
        labels.append(np.full(k, label, dtype=np.int64))
    return PseudoDataset(samples=np.concatenate(samples),
                         labels=np.concatenate(labels))

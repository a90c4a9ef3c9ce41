"""The parameter layer shared by the SANE encoder and the CVAE: Glorot
initialisation, a model's named tensors as plain arrays, the form its
best-epoch snapshot keeps and its npz checkpoint stores, one array per
tensor name (`checkpoint.save_checkpoint`), and the check of their
configs' widths and learning rates."""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, param


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
           dtype) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weight, drawn in float64."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def require_positive(config, *names: str) -> None:
    """Raise ValueError for the first of `names` not > 0 in `config`."""
    for name in names:
        if not getattr(config, name) > 0:
            raise ValueError(f"{name} must be > 0, got {getattr(config, name)}")


class Model:
    """Named parameter tensors of a model, in the order they were added."""

    def __init__(self, dtype):
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def add_param(self, name: str, data) -> None:
        self.params[name] = param(np.asarray(data, dtype=self.dtype), name)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Write each named array into its tensor in place, so an optimizer
        whose buffer the tensors view keeps training the loaded values."""
        for name, t in self.params.items():
            arr = np.asarray(state[name], dtype=self.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {arr.shape}, "
                    f"expected {t.data.shape}")
            t.data[...] = arr

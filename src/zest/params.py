"""The parameter layer shared by the SANE encoder and the CVAE: Glorot
initialisation, a model's parameters and gradients as named views of one
flat buffer each, the form its npz checkpoint stores, one array per
parameter name (`checkpoint.save_checkpoint`), and the check of their
configs' widths and learning rates."""

from __future__ import annotations

import numpy as np


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
    """A model's parameters, given as named initial arrays, in one flat
    buffer `data`, and their gradients in one flat buffer `grad` of the
    same layout. `params` and `grads` map each name to its view of the two,
    in the order given. A backward writes every view of `grad`; an
    optimizer updates `data` from `grad` (`numerics.Adam`), and a snapshot
    of the model is a copy of `data`."""

    def __init__(self, arrays: dict[str, np.ndarray], dtype):
        self.dtype = dtype
        arrays = {name: np.asarray(a, dtype=dtype)
                  for name, a in arrays.items()}
        self.data = np.concatenate([a.reshape(-1) for a in arrays.values()])
        self.grad = np.zeros_like(self.data)
        bounds = np.cumsum([0] + [a.size for a in arrays.values()])
        self.params, self.grads = (
            {name: flat[lo:hi].reshape(a.shape) for (name, a), lo, hi
             in zip(arrays.items(), bounds, bounds[1:])}
            for flat in (self.data, self.grad))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: a.copy() for name, a in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Write each named array into its view of `data`."""
        for name, view in self.params.items():
            arr = np.asarray(state[name], dtype=self.dtype)
            if arr.shape != view.shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {arr.shape}, "
                    f"expected {view.shape}")
            view[...] = arr

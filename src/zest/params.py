"""The parameter layer shared by the SANE encoder and the CVAE: Glorot
initialisation, a model's parameters and gradients as named views of one
flat buffer each, the parameter views being what its npz checkpoint stores
(`checkpoint.save_checkpoint`), and the field checker that every settings
dataclass runs: each field's kind from its annotation, and its bound from
one small per-class table."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
           dtype) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weight, drawn in float64."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def is_int(value) -> bool:
    """Whether `value` is an integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether `value` is an int or a float that is neither NaN nor inf."""
    return ((is_int(value) or isinstance(value, (float, np.floating)))
            and -math.inf < value < math.inf)


# annotation -> whether a value is of that kind, the kind, a number's bound
_KINDS = {"int": (is_int, "an integer", "> 0"),
          "float": (is_finite, "a finite number", "> 0"),
          "str": (lambda v: isinstance(v, str), "a string", None),
          "dict": (lambda v: isinstance(v, dict), "a dict", None),
          "list": (lambda v: isinstance(v, list), "a list", None)}


def check_fields(config, bounds: dict[str, str | None] | None = None) -> None:
    """Raise a ValueError, naming the field first, for the first field of
    the dataclass `config` not of its annotation's kind (a float field
    takes an int too, kept as given) or outside its bound: "> 0" for a
    number, unless `bounds` gives the field ">= 0", or None for none."""
    for f in fields(config):
        holds, kind, bound = _KINDS[f.type.split("[")[0]]
        bound = (bounds or {}).get(f.name, bound)
        value = getattr(config, f.name)
        if not holds(value):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if bound and not (value >= 0 if bound == ">= 0" else value > 0):
            raise ValueError(f"{f.name} must be {bound}, got {value!r}")


class Model:
    """A model's parameters, given as named initial arrays, in one flat
    buffer `data`, and their gradients in one flat buffer `grad` of the
    same layout. `params` and `grads` map each name to its view of the two,
    in the order given. A backward writes every view of `grad`; an
    optimizer updates `data` from `grad` (`numerics.Adam`); a snapshot of
    the model is a copy of `data`, and a checkpoint saves `params`."""

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

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Write each named array into its view of `data`."""
        for name, view in self.params.items():
            arr = np.asarray(state[name], dtype=self.dtype)
            if arr.shape != view.shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {arr.shape}, "
                    f"expected {view.shape}")
            view[...] = arr

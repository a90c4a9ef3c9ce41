"""Spans and counters recorded from outside the program.

A `Tracer` replaces public functions and methods of the `zest` modules with
wrappers that record one span per call: name, start, end, parent span and the
pipeline stage that was running. Counters (rows parsed, sequences encoded,
computed flops, ...) are recorded at the same boundaries, keyed by stage.
Spans are kept in memory; `write_spans` saves them when the benchmark
ends.

The wrappers are installed only inside `Tracer.installed()`, so untimed and
untraced code runs the program's own functions.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _matmul_flops(args, kwargs, result) -> dict:
    return {"flops": 2 * result.data.size * args[0].data.shape[-1]}


def _linear_flops(args, kwargs, result) -> dict:
    x, w = args[0].data, args[1].data
    return {"flops": 2 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]}


def _softmax_elems(args, kwargs, result) -> dict:
    return {"elems": result.data.size}


def _parse_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _predict_seqs(args, kwargs, result) -> dict:
    # args[0] is the model; a 2-D input is one sequence
    x = args[1]
    return {"seqs": x.shape[0] if x.ndim == 3 else 1}


def _sha_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _kmeans_iters(args, kwargs, result) -> dict:
    return {"iters": result.n_iter}


def _cache_hit(args, kwargs, result) -> dict:
    # StageRunner.run returns True when the stage actually ran
    return {"hits": 0 if result else 1}


NUMERIC_OPS = ("softmax", "matmul", "linear", "gelu", "layer_norm", "add",
               "exp", "l1_loss", "gaussian_kl", "cross_entropy")

_NUMERIC_COUNTS = {"matmul": _matmul_flops, "linear": _linear_flops,
                   "softmax": _softmax_elems}


def wrap_points():
    """(owner, attribute, span name, counter fn) for every traced boundary.

    Functions are patched where their caller looks them up: `pipeline.py`
    binds names with `from .x import f`, so its copies are patched in
    `zest.pipeline`; calls written `nm.<op>` resolve in `zest.numerics`.
    """
    from zest import baselines, cvae, forest, numerics, pipeline, sane
    points = [
        (pipeline, "parse_packet_csv", "ingest.parse_packet_csv", _parse_rows),
        (pipeline, "build_dataset", "ingest.build_dataset", None),
        (pipeline, "save_dataset", "ingest.save_dataset", None),
        (pipeline, "load_dataset", "ingest.load_dataset", None),
        (pipeline, "fit_normalizer", "ingest.fit_normalizer", None),
        (pipeline, "apply_normalizer", "ingest.apply_normalizer", None),
        (pipeline, "train_sane", "sane.train_sane", None),
        (sane.SaneModel, "predict_arrays", "sane.SaneModel.predict_arrays",
         _predict_seqs),
        (pipeline, "extract_latents", "attributes.extract_latents", None),
        (pipeline, "train_cvae", "cvae.train_cvae", None),
        (baselines, "train_cvae", "cvae.train_cvae", None),
        (pipeline, "generate_pseudo", "cvae.generate_pseudo", None),
        (pipeline, "train_svm", "classifier.train_svm", None),
        (pipeline, "evaluate", "classifier.evaluate", None),
        (baselines, "kmeans", "baselines.kmeans", _kmeans_iters),
        (baselines, "vae_k", "baselines.vae_k", None),
        (baselines, "seqcr", "baselines.seqcr", None),
        (baselines, "seqcs", "baselines.seqcs", None),
        (baselines, "deft", "baselines.deft", None),
        (forest.RandomForest, "fit", "forest.RandomForest.fit", None),
        (forest.RandomForest, "predict", "forest.RandomForest.predict", None),
        (sane, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (cvae, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (sane, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (cvae, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (pipeline.StageRunner, "run", "pipeline.StageRunner.run", _cache_hit),
        (pipeline, "sha256_file", "pipeline.sha256_file", _sha_bytes),
        (numerics.Tensor, "backward", "numerics.Tensor.backward", None),
        (numerics.Adam, "step", "numerics.Adam.step", None),
    ]
    for op in NUMERIC_OPS:
        points.append((numerics, op, f"numerics.{op}", _NUMERIC_COUNTS.get(op)))
    return points


class Tracer:
    """In-memory spans of one traced phase (the set-up ingest, or one
    repetition of the per-seed stages). Each span is a tuple
    (name, start, end, parent, stage), where parent is the index of the
    enclosing span or -1."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.stage = ""
        self._stack: list[int] = []
        self._active: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent,
                           self.stage))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, stage = self.spans[index]
        self.spans[index] = (name, start, end, parent, stage)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def stage_span(self, stage: str):
        self.stage = stage
        try:
            with self.span(f"pipeline.stage.{stage}"):
                yield
        finally:
            self.stage = ""

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.stage, key)] += amount

    def _wrap(self, fn: Callable, name: str, counter: Callable | None):
        tracer = self

        def traced(*args, **kwargs):
            # a re-entrant call is covered by the outer span already
            if name in tracer._active:
                return fn(*args, **kwargs)
            tracer._active.add(name)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer._active.discard(name)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.count(f"{name}.{key}", amount)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in wrap_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Calls and inclusive seconds per span name."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0})
        for name, start, end, _, _ in self.spans:
            out[name]["calls"] += 1
            out[name]["s"] += end - start
        return out

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def counter(self, key: str, stage: str | None = None) -> float:
        return sum(v for (s, k), v in self.counts.items()
                   if k == key and (stage is None or s == stage))


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Save every tracer's spans, with self time, as gzip-compressed JSON
    lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for tracer in tracers:
            own = tracer.self_times()
            for i, (name, start, end, parent, stage) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "phase": tracer.phase, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "stage": stage, "self_s": own[i]}) + "\n")

"""Workloads, timed runs, output checks and metrics of the zest benchmark.

One run generates a workload's packet CSV with `zest.synth` from the
workload seed, hands the pipeline only that CSV, and drives it through the
public stage functions of `zest.pipeline`:

* set-up: `stage_ingest` of the CSV, repeated into fresh directories;
* timed phase: repetitions of the per-seed stages (partition, train-sane,
  extract-attrs, train-cvae, gen-pseudo, train-clf, eval and the four
  baselines), each into a cold run directory. Repetitions cycle through the
  workload's partition seeds; every partition seed runs at least once, and
  the accuracies are means over the first repetition of each;
* rerun: every per-seed stage again over the last complete run directory,
  where each stage must be a cache hit;
* checks: every stage call and every output check is one operation; a
  failure is counted and the run goes on.

A traced run adds one traced repetition per partition seed after the timed
phase, traces the rerun, and reports the per-layer numbers of both (see
`tracer.py`).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zest import pipeline as pl
from zest import synth
from zest.synth import DeviceProfile

from tracer import NUMERIC_OPS, Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

SEED_STAGES = (("partition", "train-sane", "extract-attrs", "train-cvae",
                "gen-pseudo", "train-clf", "eval")
               + tuple(f"baseline-{b}" for b in pl.BASELINE_NAMES))
REPORT_FILES = (("report_zsl.json", "report_gzsl.json")
                + tuple(f"baseline_{b}.json" for b in pl.BASELINE_NAMES))
# set-up is timed this many times; `setup_s` is the median
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Input shape and experiment settings of one workload.

    `overrides` go to `resolve_config`; the SANE model and training config
    stay at their defaults unless named here. The timed phase cycles through
    `partition_seeds`. With `rerun`, every run ends with a warm rerun over
    its last run directory; traced runs always do."""

    preset: str
    sessions: int
    n: int
    overrides: dict = field(default_factory=dict)
    partition_seeds: tuple[int, ...] = (0,)
    rerun: bool = False


def _tiny_profiles(sessions: int, n: int) -> list[DeviceProfile]:
    """The well-separated tiny devices of the test suite's fixtures."""
    ports = [53, 443, 123, 80, 1883, 5353]
    protos = ["udp", "tcp", "udp", "tcp", "tcp", "udp"]
    return [DeviceProfile(
        device_id=f"tiny-{i:02d}",
        proto_probs={"tcp": 0.0, "udp": 0.0, "other": 0.0} | {protos[i]: 1.0},
        port_probs={ports[i]: 0.9, ports[(i + 1) % len(ports)]: 0.1},
        direction_probs={"out": 0.3 + 0.1 * i, "in": 0.7 - 0.1 * i},
        size_log_mean=4.0 + 0.5 * i, size_log_sigma=0.3,
        iat_log_mean=-2.0 + 0.5 * i, iat_log_sigma=0.4,
        sessions=sessions, packets_per_session=n,
    ) for i in range(5)]


_SMOKE_OVERRIDES = {
    "num_unseen": 2, "pseudo_k": 40,
    "sane": {"d_model": 16, "e": 1, "h": 2, "d_mlp": 32, "M": 8, "N": 3,
             "batch_size": 16, "epochs": 6, "learning_rate": 3e-3},
    "cvae": {"z_dim": 4, "epochs": 60},
    "svm": {"c_reg": 1.0, "epochs": 100, "lr": 1.0},
}

WORKLOADS = {
    # 240 sequences of 201 tokens: attention dominates training. Three
    # partition seeds, because one 48-sequence test split gives accuracies
    # that spread too much from one workload seed to the next. The warm
    # rerun is the read side of `pipeline` and `ingest`: all cache hits.
    "long-seq": Workload("hard-12", sessions=20, n=200,
                         overrides={"sane": {"epochs": 2}},
                         partition_seeds=(0, 1, 2), rerun=True),
    # 1,200 sequences of 26 tokens: the data path, per-op overhead and the
    # downstream layers take the time
    "short-seq": Workload("hard-12", sessions=100, n=25),
    # a seconds-long workload for the benchmark's own tests
    "smoke": Workload("tiny", sessions=25, n=10, overrides=_SMOKE_OVERRIDES,
                      partition_seeds=(0, 1), rerun=True),
}


def _profiles(workload: Workload) -> list[DeviceProfile]:
    if workload.preset == "tiny":
        return _tiny_profiles(sessions=workload.sessions, n=workload.n)
    return synth.preset_profiles(workload.preset, sessions=workload.sessions,
                                 packets_per_session=workload.n)


# ---------------------------------------------------------------------------
# operations and output checks
# ---------------------------------------------------------------------------

class Ops:
    """Attempted and failed operations: stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, and the run goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, predicate) -> None:
        """Evaluate `predicate()`; False or an exception is a failure."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except (KeyError, TypeError, ValueError, IndexError, AttributeError):
            ok = False
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {label}")


def run_stage(stage: str, config, seed: int) -> None:
    """Call one per-seed stage through the pipeline module, looked up at
    call time."""
    if stage.startswith("baseline-"):
        pl.stage_baseline(config, seed, stage[len("baseline-"):])
    else:
        getattr(pl, "stage_" + stage.replace("-", "_"))(config, seed)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _reports(rdir: Path) -> dict[tuple[str, str], dict | None]:
    """(method, setting) -> report dict, None where missing or unreadable."""
    out: dict[tuple[str, str], dict | None] = {}
    for setting in ("zsl", "gzsl"):
        out[("zest", setting)] = _read_json(rdir / f"report_{setting}.json")
    for name in pl.BASELINE_NAMES:
        payload = _read_json(rdir / f"baseline_{name}.json")
        for setting in ("zsl", "gzsl"):
            out[(name, setting)] = (payload or {}).get(setting)
    return out


def check_outputs(rdir: Path, workload: Workload, ops: Ops) -> None:
    """Every report exists and agrees with the partition it was made from.

    Class labels come from the input itself: each device yields exactly
    `sessions` sequences, in sorted device order."""
    for name in REPORT_FILES:
        ops.check(f"{name} exists", (rdir / name).is_file)
    partition = _read_json(rdir / "partition.json") or {}
    test_idx = partition.get("splits", {}).get("test", [])
    unseen = set(partition.get("unseen", []))
    test_labels = [i // workload.sessions for i in test_idx]
    expected = {"gzsl": Counter(test_labels),
                "zsl": Counter(c for c in test_labels if c in unseen)}
    for (method, setting), report in _reports(rdir).items():
        label = f"{method} {setting}"
        counts = expected[setting]
        ops.check(f"{label} num_test",
                  lambda: report["num_test"] == sum(counts.values()) > 0)
        ops.check(f"{label} confusion rows",
                  lambda: _rows_match(report, counts))
        ops.check(f"{label} accuracies in [0, 1]",
                  lambda: all(0.0 <= a <= 1.0 for a in
                              [report["accuracy"],
                               *report["per_class_accuracy"].values()]))


def _rows_match(report: dict, counts: Counter) -> bool:
    labels = report["class_labels"]
    confusion = report["confusion"]
    if len(confusion) != len(labels) or not set(counts) <= set(labels):
        return False
    return all(sum(row) == counts.get(c, 0)
               for c, row in zip(labels, confusion))


def snapshot(rdir: Path) -> dict[str, bytes]:
    """Bytes of the reports plus bytes and mtime of every stage manifest."""
    snap = {}
    for name in REPORT_FILES:
        path = rdir / name
        snap[name] = path.read_bytes() if path.is_file() else b""
    for stage in SEED_STAGES:
        path = rdir / f"{stage}.manifest.json"
        if path.is_file():
            snap[path.name] = path.read_bytes() + str(
                path.stat().st_mtime_ns).encode()
    return snap


def check_unchanged(rdir: Path, reference: dict[str, bytes], ops: Ops,
                    warm: bool) -> None:
    """Reports byte-identical to the reference snapshot; after a warm rerun
    also every stage a cache hit (its manifest left untouched)."""
    now = snapshot(rdir)
    for name in REPORT_FILES:
        ops.check(f"{name} identical to the reference run",
                  lambda: now[name] != b"" and now[name] == reference[name])
    if warm:
        for stage in SEED_STAGES:
            key = f"{stage}.manifest.json"
            ops.check(f"{stage} cache hit",
                      lambda: now[key] == reference[key])


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def accuracy_metrics(rdir: Path) -> dict[str, float]:
    """Accuracies from the reports. GZSL seen/unseen accuracy is the mean
    per-class accuracy over seen/unseen classes and H their harmonic mean
    (Xian et al., arXiv 1707.00600)."""
    reports = _reports(rdir)
    out = {}
    for (method, setting), report in reports.items():
        if report is None:
            continue
        if method == "zest":
            out[f"zest_{setting}_acc"] = report["accuracy"]
        elif setting == "gzsl":
            out[f"{method.replace('-', '')}_gzsl_acc"] = report["accuracy"]
    gzsl = reports[("zest", "gzsl")]
    partition = _read_json(rdir / "partition.json")
    if gzsl is not None and partition is not None:
        per_class = {int(k): v for k, v in gzsl["per_class_accuracy"].items()}
        seen = statistics.mean(per_class[c] for c in partition["seen"])
        unseen = statistics.mean(per_class[c] for c in partition["unseen"])
        out["zest_gzsl_seen_acc"] = seen
        out["zest_gzsl_unseen_acc"] = unseen
        out["zest_gzsl_h"] = (2 * seen * unseen / (seen + unseen)
                              if seen + unseen else 0.0)
    return out


def mean_accuracies(per_seed: list[dict[str, float]]) -> dict[str, float]:
    """Each accuracy averaged over the partition seeds that report it."""
    names = set().union(*per_seed)
    return {name: statistics.mean(acc[name] for acc in per_seed
                                  if name in acc)
            for name in sorted(names)}


# ---------------------------------------------------------------------------
# per-layer metrics from traced repetitions
# ---------------------------------------------------------------------------

_TIMED = {  # span name -> the per-layer suffixes reported for it
    "ingest.load_dataset": ("calls", "s"),
    "ingest.fit_normalizer": ("s",),
    "ingest.apply_normalizer": ("calls", "s"),
    "sane.train_sane": ("s",),
    "sane.SaneModel.predict_arrays": ("calls", "s"),
    "attributes.extract_latents": ("calls", "s"),
    "cvae.train_cvae": ("calls", "s"),
    "cvae.generate_pseudo": ("s",),
    "classifier.train_svm": ("calls", "s"),
    "classifier.evaluate": ("s",),
    "baselines.kmeans": ("calls", "s"),
    "baselines.vae_k": ("s",),
    "baselines.seqcr": ("s",),
    "baselines.seqcs": ("s",),
    "baselines.deft": ("s",),
    "forest.RandomForest.fit": ("s",),
    "forest.RandomForest.predict": ("s",),
    "checkpoint.save_checkpoint": ("calls", "s"),
    "checkpoint.load_checkpoint": ("calls", "s"),
    "pipeline.StageRunner.run": ("calls",),
    "pipeline.sha256_file": ("calls", "s"),
    "numerics.Tensor.backward": ("calls", "s"),
    "numerics.Adam.step": ("calls", "s"),
    **{f"numerics.{op}": ("calls", "s") for op in NUMERIC_OPS},
}
_COUNTED = ("numerics.matmul.flops", "numerics.linear.flops",
            "numerics.softmax.elems", "sane.SaneModel.predict_arrays.seqs",
            "baselines.kmeans.iters", "pipeline.sha256_file.bytes")
_SETUP_TIMED = ("ingest.parse_packet_csv", "ingest.build_dataset",
                "ingest.save_dataset")


def rep_layer_metrics(tracer: Tracer, context: dict) -> dict[str, float]:
    """Per-layer numbers of one traced repetition of the per-seed stages."""
    totals = tracer.totals()
    out = {}
    for name, suffixes in _TIMED.items():
        for suffix in suffixes:
            out[f"{name}.{suffix}"] = totals[name][suffix]
    for key in _COUNTED:
        out[key] = tracer.counter(key)
    stage_s = 0.0
    for stage in SEED_STAGES:
        seconds = totals[f"pipeline.stage.{stage}"]["s"]
        out[f"pipeline.stage.{stage}.s"] = seconds
        stage_s += seconds
    out["trace.stage_span_s"] = stage_s
    runs = totals["pipeline.StageRunner.run"]["calls"]
    out["pipeline.cache_hit_ratio"] = (
        tracer.counter("pipeline.StageRunner.run.hits") / runs if runs else 0.0)
    out["pipeline.load_dataset_per_seed"] = totals["ingest.load_dataset"]["calls"]
    train_s = totals["sane.train_sane"]["s"]
    out["sane.train_seq_per_s"] = (context["train_seqs"] * context["epochs"]
                                   / train_s if train_s else 0.0)
    out["attributes.encoder_passes_per_seq"] = tracer.counter(
        "sane.SaneModel.predict_arrays.seqs", stage="extract-attrs"
    ) / context["sequences"]
    return out


def setup_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of the traced `stage_ingest` in set-up."""
    totals = tracer.totals()
    out = {f"{name}.s": totals[name]["s"] for name in _SETUP_TIMED}
    out["ingest.parse_packet_csv.rows"] = tracer.counter(
        "ingest.parse_packet_csv.rows")
    out["ingest.load_dataset.calls"] = totals["ingest.load_dataset"]["calls"]
    out["ingest.load_dataset.s"] = totals["ingest.load_dataset"]["s"]
    return out


def rerun_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of the traced warm rerun."""
    totals = tracer.totals()
    runs = totals["pipeline.StageRunner.run"]["calls"]
    return {
        "rerun.seed_s": wall_s,
        "rerun.cache_hit_ratio": (tracer.counter("pipeline.StageRunner.run.hits")
                                  / runs if runs else 0.0),
        "rerun.ingest.load_dataset.s": totals["ingest.load_dataset"]["s"],
        "rerun.pipeline.sha256_file.s": totals["pipeline.sha256_file"]["s"],
    }


def layer_metrics(setup: Tracer, reps: list[tuple[Tracer, dict]]
                  ) -> dict[str, float]:
    """Medians over the traced repetitions, each with its context, plus the
    traced set-up; the dataset loads of set-up count toward
    `ingest.load_dataset`."""
    per_rep = [rep_layer_metrics(tracer, context) for tracer, context in reps]
    out = {key: statistics.median(r[key] for r in per_rep)
           for key in per_rep[0]}
    for key, value in setup_layer_metrics(setup).items():
        out[key] = out.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a
    repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _source_sha256() -> str:
    """Content hash of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload_name: str, seed: int, partition_seeds: tuple,
               config_path: Path, input_size: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "config_sha256": _sha256(config_path),
        "workload": workload_name,
        "workload_seed": seed,
        "partition_seeds": list(partition_seeds),
        "input_size": input_size,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _seed_stages(config, seed: int, ops: Ops,
                 tracer: Tracer | None = None) -> dict:
    """Run every stage of partition seed `seed` once, inside a stage span
    when traced; returns each stage's wall seconds."""
    times = {}
    for stage in SEED_STAGES:
        start = time.perf_counter()
        with tracer.stage_span(stage) if tracer else contextlib.nullcontext():
            ops.call(stage, run_stage, stage, config, seed)
        times[stage] = time.perf_counter() - start
    return times


def _installed(tracer: Tracer | None):
    return tracer.installed() if tracer else contextlib.nullcontext()


def _set_up(workload: Workload, overrides: dict, workdir: Path, ops: Ops,
            tracer: Tracer | None):
    """Ingest fresh experiment directories: `SETUP_REPEATS` of them, or one
    whose ingest is traced. Returns the last directory's config and each
    ingest's seconds."""
    config, times = None, []
    for i in range(1 if tracer else SETUP_REPEATS):
        config = pl.resolve_config(workdir / f"exp-{i}", overrides)
        start = time.perf_counter()
        with _installed(tracer):
            ops.call("ingest", pl.stage_ingest, config)
        times.append(time.perf_counter() - start)
    return config, times


def _cold_rep(workload: Workload, config, seed: int, ops: Ops,
              tracer: Tracer | None = None) -> dict:
    """One repetition of partition seed `seed`'s stages into a cold run
    directory, followed by the output checks; returns the stage seconds."""
    rdir = pl.run_dir(config, seed)
    shutil.rmtree(rdir, ignore_errors=True)
    with _installed(tracer):
        times = _seed_stages(config, seed, ops, tracer)
    check_outputs(rdir, workload, ops)
    return times


def _accuracies(rdir: Path) -> dict[str, float]:
    try:
        return accuracy_metrics(rdir)
    except (KeyError, TypeError, ValueError, statistics.StatisticsError):
        return {}  # a malformed report; its checks have failed already


def _timed_phase(workload: Workload, config, ops: Ops, seconds: float):
    """Cold repetitions cycling through the partition seeds, until each seed
    has run once and the next repetition would overrun `seconds`.

    The first repetition of a partition seed is its reference: later ones
    must reproduce its reports byte for byte, and the accuracies are read
    from it. Returns the (partition seed, stage seconds) of each repetition,
    the reference snapshots and the accuracies of each partition seed."""
    reps: list[tuple[int, dict]] = []
    references: dict[int, dict[str, bytes]] = {}
    accuracies: list[dict[str, float]] = []
    start = time.perf_counter()
    for seed in itertools.cycle(workload.partition_seeds):
        reps.append((seed, _cold_rep(workload, config, seed, ops)))
        rdir = pl.run_dir(config, seed)
        if seed in references:
            check_unchanged(rdir, references[seed], ops, warm=False)
        else:
            references[seed] = snapshot(rdir)
            accuracies.append(_accuracies(rdir))
        longest = max(sum(times.values()) for _, times in reps)
        if (len(references) == len(workload.partition_seeds)
                and time.perf_counter() - start + longest > seconds):
            return reps, references, accuracies


def _traced_phase(workload: Workload, config, ops: Ops,
                  references: dict) -> list[tuple[int, Tracer, float]]:
    """One traced cold repetition per partition seed; returns each one's
    partition seed, tracer and wall seconds."""
    out = []
    for seed in workload.partition_seeds:
        tracer = Tracer(f"partition-seed-{seed}")
        times = _cold_rep(workload, config, seed, ops, tracer)
        check_unchanged(pl.run_dir(config, seed), references[seed], ops,
                        warm=False)
        out.append((seed, tracer, sum(times.values())))
    return out


def _rerun(workload: Workload, config, seed: int, ops: Ops,
           tracer: Tracer | None) -> float:
    """Every stage of partition seed `seed` again over its complete run
    directory: each must be a cache hit and leave every report as it was.
    Returns the wall seconds."""
    rdir = pl.run_dir(config, seed)
    before = snapshot(rdir)
    with _installed(tracer):
        times = _seed_stages(config, seed, ops, tracer)
    check_unchanged(rdir, before, ops, warm=True)
    return sum(times.values())


def _rep_context(workload: Workload, config, seed: int,
                 sequences: int) -> dict:
    """What the per-layer ratios of partition seed `seed` are taken over."""
    partition = _read_json(pl.run_dir(config, seed) / "partition.json") or {}
    seen = set(partition.get("seen", []))
    return {
        "sequences": sequences,
        "train_seqs": sum(1 for i in partition.get("splits", {})
                          .get("train", [])
                          if i // workload.sessions in seen),
        "epochs": config.sane_config(len(seen), seed).epochs,
    }


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  workdir: Path) -> dict:
    """Generate the input, set up, run the timed phase and check outputs.
    Returns a record with `metrics` (name -> value) plus timings,
    provenance and errors."""
    workload = WORKLOADS[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    csv_path = workdir / "traffic.csv"
    profiles = _profiles(workload)
    start = time.perf_counter()
    synth.generate_csv(profiles, seed=seed, path=csv_path)
    synth_s = time.perf_counter() - start
    overrides = {**workload.overrides, "source": {"csv": str(csv_path)},
                 "n": workload.n, "seeds": list(workload.partition_seeds)}
    input_size = {"devices": len(profiles),
                  "sequences": len(profiles) * workload.sessions,
                  "n": workload.n,
                  "packets": len(profiles) * workload.sessions * workload.n}

    setup_tracer = Tracer("setup") if trace else None
    config, setup_s = _set_up(workload, overrides, workdir, ops, setup_tracer)
    manifest = _read_json(pl.data_dir(config) / "dataset.json") or {}
    ops.check("dataset size matches the input",
              lambda: manifest["num_points"] == input_size["sequences"])
    reps, references, accuracies = _timed_phase(workload, config, ops,
                                                seconds)
    seed_s = [sum(times.values()) for _, times in reps]
    traced = _traced_phase(workload, config, ops, references) if trace else []
    rerun_s, rerun_tracer = None, Tracer("rerun") if trace else None
    if workload.rerun or trace:
        last = traced[-1][0] if traced else reps[-1][0]
        rerun_s = _rerun(workload, config, last, ops, rerun_tracer)

    metrics = mean_accuracies(accuracies)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["seed_s"] = statistics.median(seed_s)
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = ops.failed / ops.attempted
    metrics["ok_frac"] = 1.0 - metrics["failed_frac"]
    metrics["synth.generate_csv.s"] = synth_s
    if trace:
        metrics.update(layer_metrics(setup_tracer, [
            (tracer, _rep_context(workload, config, p,
                                  input_size["sequences"]))
            for p, tracer, _ in traced]))
        metrics.update(rerun_layer_metrics(rerun_tracer, rerun_s))
        untraced = {p: statistics.median(sum(times.values())
                                         for q, times in reps if q == p)
                    for p in workload.partition_seeds}
        metrics["trace.untraced_seed_s"] = statistics.median(untraced.values())
        metrics["trace.overhead_s"] = statistics.median(
            wall - untraced[p] for p, _, wall in traced)

    return {
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "setup_s": setup_s,
        "seed_s": seed_s,
        "rep_partition_seeds": [p for p, _ in reps],
        "stage_s": [times for _, times in reps],
        "traced_seed_s": [wall for _, _, wall in traced],
        "rerun_s": rerun_s,
        "provenance": provenance(workload_name, seed,
                                 workload.partition_seeds,
                                 Path(config.outdir) / "config.json",
                                 input_size),
        "tracers": ([setup_tracer] + [t for _, t, _ in traced]
                    + [rerun_tracer]) if trace else [],
    }


# ---------------------------------------------------------------------------
# result line
# ---------------------------------------------------------------------------

def load_spec() -> dict[str, dict]:
    """Metric name -> {unit, better, kind} from BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text())
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            out[metric["name"]] = {**metric, "kind": kind}
    return out


def result_line(record: dict, spec: dict[str, dict], kind: str) -> dict:
    """The final JSON object: correct, attempted, failed and each metric of
    `kind` ("end_to_end" or "per_layer") with its unit. A computed metric
    missing from BENCHMARK.json is an error."""
    metrics = {}
    for name, value in sorted(record["metrics"].items()):
        if name not in spec:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        if spec[name]["kind"] == kind:
            metrics[name] = {"value": float(value), "unit": spec[name]["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def write_record(path: Path, record: dict, line: dict) -> None:
    """Full record of the run, with provenance; spans go beside it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in record.items() if k not in ("tracers",)}
    payload["result"] = line
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if record["tracers"]:
        write_spans(path.with_suffix(".spans.jsonl.gz"), record["tracers"])


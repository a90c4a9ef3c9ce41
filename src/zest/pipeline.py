"""Experiment orchestration: staged artifacts on disk with checksummed
manifests, deterministic seeds, artifact caching, and multi-seed aggregation.

Every stage writes its outputs plus a manifest recording the stage config and
the checksums of its inputs and outputs. A stage is skipped (cache hit) when
its manifest matches the current config and all input/output checksums still
agree; downstream stages refuse to run against inputs whose checksums do not
match the upstream manifest.

`ingest` runs once per experiment into `data/`. Every per-seed stage is one
entry of `STAGES`, in dependency order: the files it reads and the stage that
makes each one, the files it writes, the config its cache key covers, and a
body. `run_stage` does the checking and caching for all of them, and the
body gets a `StageContext` that loads the dataset, partition and latents
only when the body first asks for them. `run_seed` runs the table in order;
the CLI builds one command per entry and runs `partition` before the named
stage.

Every array artifact of a run is an npz archive: the normalizer, the
checkpoints, the SVMs, the pseudo data, and `latents.npz`, which holds the
latents of every sequence and the class attributes as one (num_classes, N)
array indexed by class label.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines as bl
from .attributes import compute_attributes, extract_latents
from .checkpoint import (atomic_write, json_default, load_arrays, read_json,
                         save_arrays, write_json)
from .classifier import EvalReport, SvmConfig, SvmModel, evaluate, train_svm
from .cvae import CvaeConfig, CvaeModel, generate_pseudo, train_cvae
from .ingest import (Dataset, Normalizer, apply_normalizer, build_dataset,
                     fit_normalizer, load_dataset, make_partition,
                     parse_packet_csv, save_dataset, split_indices)
from .sane import SaneConfig, SaneModel, train_sane
from .synth import PRESETS, generate_csv, load_profiles, preset_profiles

logger = logging.getLogger("zest.pipeline")

# baseline -> the latent it clusters
BASELINES = {"vae-k": "l", "seqcr": "lam", "seqcs": "lam", "deft": "lam"}
BASELINE_NAMES = tuple(BASELINES)
SETTINGS = ("zsl", "gzsl")
# model fields the experiment sets, from the data, the partition seed, the
# seen classes or SANE's widths: an override of one is an error
DERIVED_FIELDS = {"sane": ("n", "f", "num_classes", "seed"),
                  "cvae": ("input_dim", "cond_dim", "seed")}
# a source names exactly one kind; the keys each kind reads besides its own
SOURCE_KEYS = {"preset": ("sessions", "seed"), "profiles": ("seed",),
               "csv": ()}
SOURCE_KINDS = tuple(SOURCE_KEYS)


def _is_int(value, least: int) -> bool:
    """Whether `value` is an integer, not a bool, of at least `least`."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


class StageError(RuntimeError):
    """Raised with the failing stage's name for CLI exit reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment directory."""

    outdir: str
    source: dict = field(default_factory=lambda: {"preset": "separable-12"})
    n: int = 200
    num_unseen: int = 2
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    ratios: list = field(default_factory=lambda: [0.6, 0.2, 0.2])
    sane: dict = field(default_factory=dict)     # SaneConfig overrides
    cvae: dict = field(default_factory=dict)     # CvaeConfig overrides
    svm: dict = field(default_factory=dict)      # SvmConfig overrides
    pseudo_k: int = 500
    baselines: list = field(default_factory=lambda: list(BASELINE_NAMES))

    def __post_init__(self):
        # each seeds numpy's generator, which takes no negative integer
        if (not self.seeds or not all(_is_int(s, 0) for s in self.seeds)
                or len(set(self.seeds)) != len(self.seeds)):
            raise ValueError(f"seeds must be a non-empty list of distinct "
                             f"integers >= 0, got {self.seeds}")
        if sum(kind in self.source for kind in SOURCE_KINDS) != 1:
            raise ValueError(f"source must name exactly one of "
                             f"{SOURCE_KINDS}, got {self.source}")
        # a key the kind never reads would be ignored, yet still enter the
        # synth and ingest cache keys
        kind = next(k for k in SOURCE_KINDS if k in self.source)
        for key in self.source:
            if key != kind and key not in SOURCE_KEYS[kind]:
                raise ValueError(f"source.{key} means nothing for a {kind} "
                                 f"source, which reads only "
                                 f"{list(SOURCE_KEYS[kind])}")
        # the synth stage reads these only after config.json is written
        if kind == "preset" and self.source["preset"] not in list(PRESETS):
            raise ValueError(f"source.preset must be one of "
                             f"{sorted(PRESETS)}, got {self.source['preset']!r}")
        for key, least in (("sessions", 1), ("seed", 0)):
            if key in self.source and not _is_int(self.source[key], least):
                raise ValueError(f"source.{key} must be an integer >= "
                                 f"{least}, got {self.source[key]!r}")
        # every split is needed: an empty one fails a later stage
        if (len(self.ratios) != 3 or min(self.ratios) <= 0
                or abs(sum(self.ratios) - 1.0) > 1e-9):
            raise ValueError(f"ratios must be three positive numbers that "
                             f"sum to 1, got {self.ratios}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.pseudo_k < 1:
            raise ValueError(f"pseudo_k must be >= 1, got {self.pseudo_k}")
        if self.num_unseen < 1:
            raise ValueError(f"num_unseen must be >= 1, got {self.num_unseen}")
        unknown = set(self.baselines) - set(BASELINE_NAMES)
        if unknown:
            raise ValueError(f"unknown baselines {sorted(unknown)}; "
                             f"have {BASELINE_NAMES}")
        # the model sections fail here, naming the field, not at the stage
        # that first builds them
        for section, keys in DERIVED_FIELDS.items():
            for key in keys:
                if key in getattr(self, section):
                    raise ValueError(f"{section}.{key} is set by the "
                                     f"experiment and cannot be overridden")
        try:
            SaneConfig(**self.sane)
            self.cvae_config(seed=0)
            self.svm_config()
        except TypeError as exc:        # an unknown field
            raise ValueError(str(exc)) from None

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    def sane_config(self, num_classes: int, seed: int) -> SaneConfig:
        # n, num_classes, and seed come from the experiment, not the overrides
        params = dict(self.sane)
        params.update(n=self.n, num_classes=num_classes, seed=seed)
        return SaneConfig(**params)

    def cvae_config(self, seed: int) -> CvaeConfig:
        # the CVAE decodes SANE's l latents (width M) from attributes (width N)
        sane = SaneConfig(**self.sane)
        params = dict(self.cvae)
        params.update(input_dim=sane.M, cond_dim=sane.N, seed=seed)
        return CvaeConfig(**params)

    def svm_config(self) -> SvmConfig:
        return SvmConfig(**self.svm)


def resolve_config(outdir: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Load outdir/config.json if present, apply overrides, validate the
    result and persist it. A rejected config creates no directory. Model
    sections, and a source that names no kind (only `sessions`, say), merge
    into the persisted ones; a source that names a kind replaces it."""
    outdir = Path(outdir)
    path = outdir / "config.json"
    fields = (read_json(path) if path.exists()
              else asdict(ExperimentConfig(outdir=str(outdir))))
    fields["outdir"] = str(outdir)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in ("sane", "cvae", "svm") or (
                key == "source" and not set(SOURCE_KINDS) & set(value)):
            fields[key] = {**fields.get(key, {}), **value}
        else:
            fields[key] = value
    config = ExperimentConfig(**fields)
    outdir.mkdir(parents=True, exist_ok=True)
    config.save(path)
    return config


# ---------------------------------------------------------------------------
# locking, checksums, stage manifests
# ---------------------------------------------------------------------------

class RunLock:
    """One command at a time per output directory. The lock file holds the
    pid of its run; a lock whose process no longer exists is taken over, and
    the temp files that process left (`.<name>.<pid>.tmp`, see
    `atomic_write`) anywhere under the directory are deleted."""

    def __init__(self, outdir: str | Path):
        self.path = Path(outdir) / ".lock"

    def _stale_pid(self) -> int | None:
        """The lock's pid when it names a process that is gone. An empty or
        unparseable lock is not stale: its run may sit between creating the
        file and writing its pid."""
        try:
            pid = int(self.path.read_text())
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except (OSError, ValueError, OverflowError):
            return None
        return None

    def __enter__(self):
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                pid = None if attempt else self._stale_pid()
                if pid is None:
                    raise StageError(
                        "lock",
                        f"{self.path} exists; another run is in progress "
                        f"(remove the file if none is)") from None
                logger.warning("taking over stale lock %s", self.path)
                for tmp in self.path.parent.rglob(f".*.{pid}.tmp"):
                    tmp.unlink(missing_ok=True)
                self.path.unlink(missing_ok=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class StageRunner:
    """Runs one named stage with caching and checksum validation."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _manifest_path(self, stage: str) -> Path:
        return self.root / f"{stage}.manifest.json"

    def require_input(self, stage: str, producer: str, path: Path) -> str:
        """The checksum of `path`, once it is checked to exist and to match
        the producer's manifest."""
        manifest_path = self._manifest_path(producer)
        if not manifest_path.exists() or not path.exists():
            raise StageError(
                stage, f"missing upstream artifact {path.name}; "
                       f"re-run stage '{producer}'")
        try:
            manifest = read_json(manifest_path)
        except (OSError, ValueError):
            raise StageError(
                stage, f"the manifest of stage '{producer}' is unreadable; "
                       f"re-run '{producer}'") from None
        recorded = manifest["outputs"].get(path.name)
        if recorded is None or sha256_file(path) != recorded:
            raise StageError(
                stage, f"upstream artifact {path.name} does not match the "
                       f"manifest of stage '{producer}'; re-run '{producer}'")
        return recorded

    def run(self, stage: str, config: dict, inputs: dict[str, str],
            outputs: list[Path], fn) -> bool:
        """Execute fn() unless the stage manifest shows a valid cache hit.
        `inputs` maps the name of each file the stage reads to its checksum.
        Returns True when the stage actually ran. A file that the replaced
        manifest lists as an output and `outputs` does not (an older file
        name, say) is deleted: no manifest names it any more."""
        manifest_path = self._manifest_path(stage)
        config = json.loads(json.dumps(config, default=json_default,
                                       sort_keys=True))
        declared = {p.name for p in outputs}
        try:
            manifest = read_json(manifest_path)
        except (OSError, ValueError):
            manifest = {}   # none yet, or unreadable: a cache miss
        # a manifest whose outputs are not the declared ones (say, an older
        # file name) is a miss: the stages that read them would fail
        if (manifest and manifest.get("config") == config
                and manifest.get("inputs") == inputs
                and set(manifest["outputs"]) == declared
                and all((self.root / name).exists()
                        and sha256_file(self.root / name) == digest
                        for name, digest in manifest["outputs"].items())):
            logger.info("stage %s: cache hit", stage)
            return False
        logger.info("stage %s: running", stage)
        fn()
        missing = [p for p in outputs if not p.exists()]
        if missing:
            raise StageError(stage, f"stage did not produce {missing}")
        write_json(manifest_path, {
            "stage": stage, "config": config, "inputs": inputs,
            "outputs": {p.name: sha256_file(p) for p in outputs}})
        for name in set(manifest.get("outputs", ())) - declared:
            if Path(name).name == name:     # only files of this directory
                (self.root / name).unlink(missing_ok=True)
        return True


# ---------------------------------------------------------------------------
# path layout
# ---------------------------------------------------------------------------

def data_dir(config: ExperimentConfig) -> Path:
    return Path(config.outdir) / "data"


def run_dir(config: ExperimentConfig, seed: int) -> Path:
    return Path(config.outdir) / "runs" / f"seed-{seed}"


# ---------------------------------------------------------------------------
# data stage
# ---------------------------------------------------------------------------

def stage_ingest(config: ExperimentConfig) -> Dataset:
    """Build the segmented raw-feature dataset (synthesizing traffic first
    when the source is a preset)."""
    ddir = data_dir(config)
    ddir.mkdir(parents=True, exist_ok=True)
    runner = StageRunner(ddir)
    source = dict(config.source)

    if "csv" in source:
        csv_path = Path(source["csv"])
        if not csv_path.exists():
            raise StageError("ingest", f"csv source not found: {csv_path}")
    else:
        csv_path = ddir / "traffic.csv"

        def synth_fn():
            if "profiles" in source:
                profiles = load_profiles(source["profiles"])
            else:
                profiles = preset_profiles(
                    source["preset"], sessions=source.get("sessions"),
                    packets_per_session=config.n)
            generate_csv(profiles, seed=source.get("seed", 0), path=csv_path)

        runner.run("synth", {"source": source}, {}, [csv_path], synth_fn)

    npz_path = ddir / "dataset.npz"
    manifest_path = ddir / "dataset.json"

    def ingest_fn():
        dataset = build_dataset(parse_packet_csv(csv_path), n=config.n)
        if not len(dataset.labels):
            raise StageError("ingest", "no sequences after segmentation")
        save_dataset(dataset, npz_path, manifest_path)

    runner.run("ingest", {"n": config.n, "source": source},
               {csv_path.name: sha256_file(csv_path)},
               [npz_path, manifest_path], ingest_fn)
    return load_dataset(npz_path, manifest_path)


# ---------------------------------------------------------------------------
# per-seed stages
# ---------------------------------------------------------------------------

class StageContext:
    """What a stage body reads, each piece loaded from disk on first use."""

    def __init__(self, config: ExperimentConfig, seed: int):
        self.config = config
        self.seed = seed
        self.rdir = run_dir(config, seed)
        self.ddir = data_dir(config)

    @cached_property
    def dataset(self) -> Dataset:
        return load_dataset(self.ddir / "dataset.npz",
                            self.ddir / "dataset.json")

    @cached_property
    def partition(self) -> dict:
        return read_json(self.rdir / "partition.json")

    @cached_property
    def latents(self) -> dict[str, np.ndarray]:
        """`l`, `lam` and `labels` of every sequence, and the class
        attributes `attrs`."""
        return load_arrays(self.rdir / "latents.npz")

    def sane_config(self) -> SaneConfig:
        return self.config.sane_config(num_classes=len(self.partition["seen"]),
                                       seed=self.seed)


@dataclass(frozen=True)
class Stage:
    """One per-seed stage. `reads` are (producer stage, file) pairs; the
    stage refuses to run unless each file matches its producer's manifest,
    and their checksums plus `key(ctx)` form its cache key. `body(ctx)`
    writes `writes` into the run directory. `method` names the method whose
    reports the stage writes."""

    name: str
    help: str
    reads: tuple[tuple[str, str], ...]
    writes: tuple[str, ...]
    key: Callable[[StageContext], dict]
    body: Callable[[StageContext], None]
    method: str | None = None


def _partition(ctx: StageContext) -> None:
    config, dataset = ctx.config, ctx.dataset
    seen, unseen = make_partition(len(dataset.class_map), config.num_unseen,
                                  ctx.seed)
    splits = split_indices(dataset.labels, tuple(config.ratios), ctx.seed)
    write_json(ctx.rdir / "partition.json",
               {"seed": ctx.seed, "seen": seen, "unseen": unseen,
                "splits": splits})


def _select(idx: list[int], labels: np.ndarray, classes) -> np.ndarray:
    """The indices in `idx` whose label is one of `classes` (a list or an
    array), in `idx` order."""
    idx = np.asarray(idx, dtype=np.int64)
    return idx[np.isin(labels[idx], classes)]


def _test_idx(partition: dict, labels: np.ndarray, setting: str) -> np.ndarray:
    """The test split; for ZSL, only its sequences of unseen devices."""
    test = partition["splits"]["test"]
    if setting == "zsl":
        return _select(test, labels, partition["unseen"])
    return np.asarray(test, dtype=np.int64)


def _train_sane(ctx: StageContext) -> None:
    features, labels = ctx.dataset.features, ctx.dataset.labels
    seen, splits = np.asarray(ctx.partition["seen"]), ctx.partition["splits"]
    train_idx = _select(splits["train"], labels, seen)
    val_idx = _select(splits["val"], labels, seen)
    norm = fit_normalizer(features[train_idx])
    save_arrays(ctx.rdir / "normalizer.npz", mins=norm.mins, maxs=norm.maxs)

    def localized(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # seen classes renumbered 0..len(seen)-1 in sorted order
        return (apply_normalizer(norm, features[idx]),
                np.searchsorted(seen, labels[idx]))

    model, _ = train_sane(*localized(train_idx), *localized(val_idx),
                          ctx.sane_config(),
                          log_path=ctx.rdir / "sane_log.csv")
    model.save(ctx.rdir / "sane.npz")


def _fit_idx(partition: dict, labels: np.ndarray) -> np.ndarray:
    """The sequences attributes and clusters are fitted on: the train split,
    plus the val split of unseen devices. Test data never contributes."""
    return np.concatenate([
        np.asarray(partition["splits"]["train"], dtype=np.int64),
        _select(partition["splits"]["val"], labels, partition["unseen"])])


def _extract_attrs(ctx: StageContext) -> None:
    dataset, devices = ctx.dataset, ctx.dataset.device_ids
    fit_idx = _fit_idx(ctx.partition, dataset.labels)
    empty = np.setdiff1d(np.arange(len(devices)), dataset.labels[fit_idx])
    if len(empty):
        raise StageError(
            "extract-attrs",
            f"device(s) {', '.join(devices[c] for c in empty)} have no "
            f"sequence in the train split (or, if unseen, the val split) to "
            f"fit attributes on; give them more sessions")
    model = SaneModel.load(ctx.rdir / "sane.npz")
    norm = Normalizer(**load_arrays(ctx.rdir / "normalizer.npz"))
    l, lam = extract_latents(model, apply_normalizer(norm, dataset.features))
    attrs = compute_attributes(lam[fit_idx], dataset.labels[fit_idx],
                               len(devices))
    save_arrays(ctx.rdir / "latents.npz", l=l, lam=lam, labels=dataset.labels,
                attrs=attrs)


def _train_cvae(ctx: StageContext) -> None:
    labels = ctx.latents["labels"]
    train_idx = _select(ctx.partition["splits"]["train"], labels,
                        ctx.partition["seen"])
    model, _ = train_cvae(ctx.latents["l"][train_idx],
                          ctx.latents["attrs"][labels[train_idx]],
                          ctx.config.cvae_config(seed=ctx.seed))
    model.save(ctx.rdir / "cvae.npz")


def _gen_pseudo(ctx: StageContext) -> None:
    samples, labels = generate_pseudo(CvaeModel.load(ctx.rdir / "cvae.npz"),
                                      ctx.latents["attrs"],
                                      k=ctx.config.pseudo_k, seed=ctx.seed)
    save_arrays(ctx.rdir / "pseudo.npz", samples=samples, labels=labels)


def _train_clf(ctx: StageContext) -> None:
    pseudo = load_arrays(ctx.rdir / "pseudo.npz")
    samples, labels = pseudo["samples"], pseudo["labels"]
    for setting, keep in (("gzsl", slice(None)),
                          ("zsl", np.isin(labels, ctx.partition["unseen"]))):
        train_svm(samples[keep], labels[keep], ctx.config.svm_config()).save(
            ctx.rdir / f"svm_{setting}.npz")


def _eval(ctx: StageContext) -> None:
    labels = ctx.latents["labels"]
    lines = []
    for setting in SETTINGS:
        model = SvmModel.load(ctx.rdir / f"svm_{setting}.npz")
        idx = _test_idx(ctx.partition, labels, setting)
        report = evaluate(setting, model, ctx.latents["l"][idx], labels[idx],
                          extra={"method": "zest", "seed": ctx.seed})
        write_json(ctx.rdir / f"report_{setting}.json", report.to_dict())
        lines.append(report.format_table())
    with atomic_write(ctx.rdir / "report.txt", "w") as fh:
        fh.write("\n\n".join(lines) + "\n")


def _baseline(ctx: StageContext, name: str) -> None:
    labels, features = ctx.latents["labels"], ctx.latents[BASELINES[name]]
    fit_idx = _fit_idx(ctx.partition, labels)
    pipeline = getattr(bl, name.replace("-", "_"))

    tests = {}
    for setting in SETTINGS:
        idx = _test_idx(ctx.partition, labels, setting)
        tests[setting] = (features[idx], labels[idx])
    reports = pipeline(features[fit_idx], labels[fit_idx], tests,
                       ctx.latents["attrs"], ctx.seed)
    for report in reports.values():
        report.extra["method"] = name
    write_json(ctx.rdir / f"baseline_{name}.json",
               {s: r.to_dict() for s, r in reports.items()})


_DATASET = (("ingest", "dataset.npz"), ("ingest", "dataset.json"))
_PARTITION = ("partition", "partition.json")
_LATENTS = ("extract-attrs", "latents.npz")

# every per-seed stage, in dependency order
STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("partition", "split devices into seen/unseen and sequences into "
                       "train/val/test",
          reads=_DATASET, writes=("partition.json",),
          key=lambda ctx: {"seed": ctx.seed,
                           "num_unseen": ctx.config.num_unseen,
                           "ratios": ctx.config.ratios},
          body=_partition),
    Stage("train-sane", "train the feature extractor on seen devices",
          reads=(*_DATASET, _PARTITION),
          writes=("normalizer.npz", "sane.npz", "sane_log.csv"),
          key=lambda ctx: {"sane": asdict(ctx.sane_config())},
          body=_train_sane),
    Stage("extract-attrs", "extract latents and attribute vectors",
          reads=(*_DATASET, _PARTITION, ("train-sane", "sane.npz"),
                 ("train-sane", "normalizer.npz")),
          writes=("latents.npz",),
          key=lambda ctx: {"N": SaneConfig(**ctx.config.sane).N},
          body=_extract_attrs),
    Stage("train-cvae", "train the conditional VAE on seen latents",
          reads=(_PARTITION, _LATENTS), writes=("cvae.npz",),
          key=lambda ctx: {"cvae": asdict(ctx.config.cvae_config(ctx.seed))},
          body=_train_cvae),
    Stage("gen-pseudo", "generate balanced pseudo latents",
          reads=(("train-cvae", "cvae.npz"), _LATENTS),
          writes=("pseudo.npz",),
          key=lambda ctx: {"k": ctx.config.pseudo_k, "seed": ctx.seed},
          body=_gen_pseudo),
    Stage("train-clf", "train the final classifiers on pseudo data",
          reads=(_PARTITION, ("gen-pseudo", "pseudo.npz")),
          writes=("svm_zsl.npz", "svm_gzsl.npz"),
          key=lambda ctx: {"svm": asdict(ctx.config.svm_config())},
          body=_train_clf),
    Stage("eval", "evaluate ZSL and GZSL accuracy on test latents",
          reads=(_PARTITION, _LATENTS, ("train-clf", "svm_zsl.npz"),
                 ("train-clf", "svm_gzsl.npz")),
          writes=("report_zsl.json", "report_gzsl.json", "report.txt"),
          key=lambda ctx: {"svm": asdict(ctx.config.svm_config())},
          body=_eval, method="zest"),
    *(Stage(f"baseline-{name}", f"run the {name} comparison pipeline",
            reads=(_PARTITION, _LATENTS),
            writes=(f"baseline_{name}.json",),
            key=lambda ctx, name=name: {"name": name},
            body=partial(_baseline, name=name), method=name)
      for name in BASELINE_NAMES),
)}


def run_stage(name: str, config: ExperimentConfig, seed: int) -> bool:
    """Run the per-seed stage `name` from STAGES: check every file it reads
    against its producer's manifest, then run its body unless its own
    manifest shows a cache hit. Returns True when the body ran."""
    if name not in STAGES:
        raise StageError(name, f"unknown stage {name!r}; have {list(STAGES)}")
    stage = STAGES[name]
    ctx = StageContext(config, seed)
    ctx.rdir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for producer, file in stage.reads:
        root = ctx.ddir if producer == "ingest" else ctx.rdir
        inputs[file] = StageRunner(root).require_input(name, producer,
                                                       root / file)
    return StageRunner(ctx.rdir).run(
        name, stage.key(ctx), inputs, [ctx.rdir / f for f in stage.writes],
        lambda: stage.body(ctx))


def read_reports(config: ExperimentConfig, seed: int,
                 method: str) -> dict[str, EvalReport]:
    """{setting: EvalReport} as written by the stage of `method`."""
    rdir = run_dir(config, seed)
    if method == "zest":
        payload = {s: read_json(rdir / f"report_{s}.json") for s in SETTINGS}
    else:
        payload = read_json(rdir / f"baseline_{method}.json")
    return {s: EvalReport.from_dict(d) for s, d in payload.items()}


def stage_partition(config: ExperimentConfig, seed: int) -> dict:
    run_stage("partition", config, seed)
    return read_json(run_dir(config, seed) / "partition.json")


stage_train_sane = partial(run_stage, "train-sane")
stage_extract_attrs = partial(run_stage, "extract-attrs")
stage_train_cvae = partial(run_stage, "train-cvae")
stage_gen_pseudo = partial(run_stage, "gen-pseudo")
stage_train_clf = partial(run_stage, "train-clf")


def stage_eval(config: ExperimentConfig, seed: int) -> dict[str, EvalReport]:
    run_stage("eval", config, seed)
    return read_reports(config, seed, "zest")


def stage_baseline(config: ExperimentConfig, seed: int,
                   name: str) -> dict[str, EvalReport]:
    run_stage(f"baseline-{name}", config, seed)
    return read_reports(config, seed, name)


# ---------------------------------------------------------------------------
# full pipeline and sweeps
# ---------------------------------------------------------------------------

def run_seed(config: ExperimentConfig, seed: int) -> dict:
    """Every per-seed stage in table order, leaving out the baselines the
    config does not list; returns {method: {setting: EvalReport}}."""
    methods = ["zest", *config.baselines]
    for stage in STAGES.values():
        if stage.method is None or stage.method in methods:
            run_stage(stage.name, config, seed)
    return {method: read_reports(config, seed, method) for method in methods}


def aggregate_reports(per_seed: list[dict]) -> list[dict]:
    """Mean and std accuracy per (method, setting) over seeds."""
    rows = []
    methods = list(per_seed[0])
    for method in methods:
        for setting in SETTINGS:
            accs = [res[method][setting].accuracy for res in per_seed]
            rows.append({
                "method": method,
                "setting": setting,
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "num_seeds": len(accs),
                "accuracies": [float(a) for a in accs],
            })
    return rows


def _write_accuracy_csv(path: Path, rows: list[dict],
                        keys: tuple[str, ...]) -> None:
    """One line per row: its `keys`, then mean, std and number of seeds."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*keys, "mean_accuracy", "std_accuracy", "num_seeds"])
        for row in rows:
            writer.writerow([*(row[k] for k in keys),
                             f"{row['mean_accuracy']:.6f}",
                             f"{row['std_accuracy']:.6f}", row["num_seeds"]])


def write_aggregate(rows: list[dict], outdir: Path) -> None:
    _write_accuracy_csv(outdir / "report.csv", rows, ("method", "setting"))
    lines = [f"{'method':<10} {'setting':<6} {'mean':>8} {'std':>8}"]
    for row in rows:
        lines.append(f"{row['method']:<10} {row['setting']:<6} "
                     f"{row['mean_accuracy']:>8.4f} "
                     f"{row['std_accuracy']:>8.4f}")
    with atomic_write(outdir / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_pipeline(config: ExperimentConfig) -> list[dict]:
    """Ingest once, run every partition seed, aggregate."""
    stage_ingest(config)
    per_seed = [run_seed(config, seed) for seed in config.seeds]
    rows = aggregate_reports(per_seed)
    write_aggregate(rows, Path(config.outdir))
    return rows


SWEEP_PARAMS = {
    "attr-dim": ("sane", "N", int),
    "encoders": ("sane", "e", int),
    "heads": ("sane", "h", int),
    "unseen": (None, "num_unseen", int),
}


def run_sweep(config: ExperimentConfig, param: str,
              values: list) -> list[dict]:
    """Run the full pipeline once per parameter value in its own subdir."""
    if param not in SWEEP_PARAMS:
        raise StageError("sweep", f"unknown sweep parameter {param!r}; "
                                  f"have {sorted(SWEEP_PARAMS)}")
    section, key, cast = SWEEP_PARAMS[param]
    sweep_root = Path(config.outdir) / f"sweep-{param}"
    subs = []
    for value in map(cast, values):
        fields = asdict(config)
        fields["outdir"] = str(sweep_root / str(value))
        if section is None:
            fields[key] = value
        else:
            fields[section][key] = value
        # every value is validated before the first one runs
        subs.append((value, ExperimentConfig(**fields)))
    all_rows = []
    for value, sub in subs:
        Path(sub.outdir).mkdir(parents=True, exist_ok=True)
        sub.save(Path(sub.outdir) / "config.json")
        rows = run_pipeline(sub)
        for row in rows:
            row["param"] = param
            row["value"] = value
            all_rows.append(row)
    _write_accuracy_csv(sweep_root / "sweep.csv", all_rows,
                        ("param", "value", "method", "setting"))
    return all_rows

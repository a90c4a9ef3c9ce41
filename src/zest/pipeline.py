"""Experiment orchestration: staged artifacts on disk with checksummed
manifests, deterministic seeds, artifact caching, and multi-seed aggregation.

Every stage writes its outputs plus a manifest recording the stage's code
version, its config and the checksums of its inputs and outputs. A stage is
skipped (cache hit) when its manifest matches the current version and config
and all input/output checksums still agree; downstream stages refuse to run
against inputs whose checksums do not match the upstream manifest.

`ingest` runs once per experiment into `data/`, after `synth` for a preset
or profile-file source; synth's key covers the profile file's checksum and
ingest's the CSV's. Every per-seed stage is one entry of `STAGES`, in
dependency order: the files it reads and the stage that makes each one, the
files it writes, the config its cache key covers, and a body. `run_stage`
does the checking and caching for all of them, and the body gets a
`StageContext` that loads the dataset, partition and latents only when the
body first asks for them. `run_seed` runs the table in order; the CLI builds
one command per entry and runs `partition` before the named stage.

One rule, `_classes`, gives the classes an evaluation setting covers: all
of them for GZSL, the unseen ones for ZSL. It picks each SVM's pseudo
classes, each setting's test split and the labels its reports are scored
over; `evaluate` scores ZEST's and each baseline's test predictions, and
the report dicts it builds are the JSON that `read_reports` reads back.

Every array artifact of a run is an npz archive: the normalizer, the
checkpoints, the SVMs, the pseudo data, and `latents.npz`, which holds the
latents of every sequence and the class attributes as one (num_classes, N)
array indexed by class label. The normalizer and the SVMs are saved as the
very dicts of arrays that `fit_normalizer` and `train_svm` return.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines as bl
from .attributes import compute_attributes, extract_latents
from .checkpoint import (atomic_write, load_arrays, read_json, save_arrays,
                         write_json)
from .classifier import (SvmConfig, evaluate, format_report, predict,
                         train_svm)
from .cvae import CvaeConfig, CvaeModel, generate_pseudo, train_cvae
from .ingest import (SPLIT_RATIOS, Dataset, apply_normalizer, build_dataset,
                     fit_normalizer, load_dataset, make_partition,
                     parse_packet_csv, save_dataset, split_indices)
from .params import check_fields, is_int
from .sane import SaneConfig, SaneModel, train_sane
from .synth import PRESETS, generate_csv, source_profiles

logger = logging.getLogger("zest.pipeline")

# baseline -> the latent it clusters
BASELINES = {"vae-k": "l", "seqcr": "lam", "seqcs": "lam", "deft": "lam"}
BASELINE_NAMES = tuple(BASELINES)
SETTINGS = ("zsl", "gzsl")
# each model section of the config: the settings it overrides
MODEL_SECTIONS = {"sane": SaneConfig, "cvae": CvaeConfig, "svm": SvmConfig}
# model fields the experiment sets, from the data, the partition seed, the
# seen classes or SANE's widths: an override of one is an error
DERIVED_FIELDS = {"sane": ("n", "f", "num_classes", "seed"),
                  "cvae": ("input_dim", "cond_dim", "seed"), "svm": ()}
# a source names exactly one kind; the keys each kind reads besides its own
SOURCE_KEYS = {"preset": ("sessions", "seed"), "profiles": ("seed",),
               "csv": ()}
# fields now constants, at the values an older config.json holds: there, and
# only there, `resolve_config` skips them
RETIRED_FIELDS = {"ratios": list(SPLIT_RATIOS),
                  "baselines": list(BASELINE_NAMES)}


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
    """Resolved settings for one experiment directory. `check_fields` checks
    each field's kind and bound; the rules here are cross-field: distinct
    seeds, the source's (`check_source`), and model sections that set no
    unknown or derived field."""

    outdir: str
    source: dict = field(default_factory=lambda: {"preset": "separable-12"})
    n: int = 200
    num_unseen: int = 2
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    sane: dict = field(default_factory=dict)     # SaneConfig overrides
    cvae: dict = field(default_factory=dict)     # CvaeConfig overrides
    svm: dict = field(default_factory=dict)      # SvmConfig overrides
    pseudo_k: int = 500

    def __post_init__(self):
        check_fields(self)
        # each seeds numpy's generator, which takes no negative integer
        if (not self.seeds
                or not all(is_int(s) and s >= 0 for s in self.seeds)
                or len(set(self.seeds)) != len(self.seeds)):
            raise ValueError(f"seeds must be a non-empty list of distinct "
                             f"integers >= 0, got {self.seeds}")
        check_source(self.source)
        # the model sections fail here, naming the field, not at the stage
        # that first builds them
        for section, config_class in MODEL_SECTIONS.items():
            overrides = getattr(self, section)
            for key in overrides:
                if key not in config_class.__dataclass_fields__:
                    raise ValueError(f"{section} has no field {key!r}")
                if key in DERIVED_FIELDS[section]:
                    raise ValueError(f"{section}.{key} is set by the "
                                     f"experiment and cannot be overridden")
            try:
                config_class(**overrides)
            except ValueError as exc:
                raise ValueError(f"{section}.{exc}") from None

    def sane_config(self, num_classes: int, seed: int) -> SaneConfig:
        # n, num_classes, and seed come from the experiment, not the overrides
        return SaneConfig(**self.sane, n=self.n, num_classes=num_classes,
                          seed=seed)

    def cvae_config(self, seed: int) -> CvaeConfig:
        # the CVAE decodes SANE's l latents (width M) from attributes (width N)
        sane = SaneConfig(**self.sane)
        return CvaeConfig(**self.cvae, input_dim=sane.M, cond_dim=sane.N,
                          seed=seed)

    def svm_config(self) -> SvmConfig:
        return SvmConfig(**self.svm)


def check_source(source: dict) -> str:
    """The kind of `source`, once it names one kind, only the keys that kind
    reads, a known preset, and integers `sessions` >= 1 and `seed` >= 0."""
    if sum(kind in source for kind in SOURCE_KEYS) != 1:
        raise ValueError(f"source must name exactly one of "
                         f"{tuple(SOURCE_KEYS)}, got {source}")
    kind = next(k for k in SOURCE_KEYS if k in source)
    # a key the kind never reads would be ignored, yet still enter the
    # synth and ingest cache keys
    for key in source:
        if key != kind and key not in SOURCE_KEYS[kind]:
            raise ValueError(f"source.{key} means nothing for a {kind} "
                             f"source, which reads only "
                             f"{list(SOURCE_KEYS[kind])}")
    # the synth stage reads these only after config.json is written
    if kind == "preset" and source["preset"] not in list(PRESETS):
        raise ValueError(f"source.preset must be one of "
                         f"{sorted(PRESETS)}, got {source['preset']!r}")
    for key, least in (("sessions", 1), ("seed", 0)):
        value = source.get(key, least)     # unset: nothing to check
        if not (is_int(value) and value >= least):
            raise ValueError(f"source.{key} must be an integer >= "
                             f"{least}, got {source[key]!r}")
    return kind


def resolve_config(outdir: str | Path, *layers: dict | str | Path) -> ExperimentConfig:
    """The defaults, then each layer (a dict of overrides or a JSON file of
    one), outdir/config.json first if present, checked after each; a
    rejected config writes nothing. None sets nothing; `outdir` is the
    argument. Model sections, and a source naming no kind (only `sessions`,
    say), merge; others replace."""
    outdir = Path(outdir)
    path = outdir / "config.json"
    fields = asdict(ExperimentConfig(outdir=str(outdir)))
    layers = ((path,) if path.exists() else ()) + layers
    for layer in layers or ({},):
        persisted, name = layer is path, "config overrides"
        if isinstance(layer, (str, Path)):
            name = f"config file {layer}"
            try:
                layer = read_json(layer)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{name} is not JSON: {exc}") from None
        if not isinstance(layer, dict):
            raise ValueError(f"{name} must hold a JSON dict, "
                             f"got {type(layer).__name__}")
        for key, value in layer.items():
            if (value is None or key == "outdir"
                    or persisted and RETIRED_FIELDS.get(key) == value):
                continue
            if key not in ExperimentConfig.__dataclass_fields__:
                raise ValueError(f"{name} has no field {key!r}")
            # a section that is not a dict replaces its own: the check fails
            if isinstance(value, dict) and (key in MODEL_SECTIONS or (
                    key == "source" and not SOURCE_KEYS.keys() & value)):
                fields[key] = {**fields.get(key, {}), **value}
            else:
                fields[key] = value
        config = ExperimentConfig(**fields)
    # the synth stage reads a profile file; a missing one is its error
    profiles = config.source.get("profiles")
    if profiles is not None and Path(profiles).exists():
        source_profiles(config.source)
    write_json(path, asdict(config))
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

    def _manifest(self, stage: str) -> dict | None:
        """The stage's manifest, or None when it is missing, is not JSON or
        is not a dict holding `config`, `inputs` and a dict `outputs`."""
        try:
            manifest = read_json(self._manifest_path(stage))
        except (OSError, ValueError):
            return None
        if (isinstance(manifest, dict) and "config" in manifest
                and "inputs" in manifest
                and isinstance(manifest.get("outputs"), dict)):
            return manifest
        return None

    def require_input(self, stage: str, producer: str, path: Path) -> str:
        """The checksum of `path`, once it is checked to exist and to match
        the producer's manifest."""
        if not self._manifest_path(producer).exists() or not path.exists():
            raise StageError(
                stage, f"missing upstream artifact {path.name}; "
                       f"re-run stage '{producer}'")
        manifest = self._manifest(producer)
        if manifest is None:
            raise StageError(
                stage, f"the manifest of stage '{producer}' is unreadable; "
                       f"re-run '{producer}'")
        recorded = manifest["outputs"].get(path.name)
        if recorded is None or sha256_file(path) != recorded:
            raise StageError(
                stage, f"upstream artifact {path.name} does not match the "
                       f"manifest of stage '{producer}'; re-run '{producer}'")
        return recorded

    def run(self, stage: str, version: int, config: dict,
            inputs: dict[str, str], outputs: list[Path], fn) -> bool:
        """Execute fn() unless the stage manifest shows a valid cache hit of
        `version`, `config` and `inputs`, which maps the name of each file
        the stage reads to its checksum. Returns True when the stage ran. A
        file that the replaced manifest lists as an output and `outputs`
        does not (an older file name, say) is deleted: no manifest names it
        any more."""
        config = json.loads(json.dumps(config, sort_keys=True))
        declared = {p.name for p in outputs}
        manifest = self._manifest(stage) or {}   # none, or unreadable: a miss
        # a manifest whose outputs are not the declared ones (say, an older
        # file name) is a miss: the stages that read them would fail
        if (manifest and (manifest.get("version"), manifest["config"],
                          manifest["inputs"]) == (version, config, inputs)
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
        write_json(self._manifest_path(stage), {
            "stage": stage, "version": version, "config": config,
            "inputs": inputs,
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

# the code versions of the synth and ingest runs, as `Stage.version`
DATA_VERSIONS = {"synth": 1, "ingest": 1}


def stage_ingest(config: ExperimentConfig) -> dict:
    """Build the segmented raw-feature dataset, synthesizing traffic first
    when the source is a preset or a profile file. Returns the dataset's
    manifest, `dataset.json`: its `n`, `f`, `num_points` and `class_map`."""
    source = dict(config.source)
    kind = check_source(source)
    if kind != "preset" and not Path(source[kind]).exists():
        raise StageError("ingest", f"{kind} source not found: {source[kind]}")
    ddir = data_dir(config)
    runner = StageRunner(ddir)
    csv_path = Path(source["csv"]) if kind == "csv" else ddir / "traffic.csv"
    if kind != "csv":
        inputs = ({} if kind == "preset" else
                  {Path(source[kind]).name: sha256_file(source[kind])})
        runner.run("synth", DATA_VERSIONS["synth"], {"source": source},
                   inputs, [csv_path], lambda: generate_csv(
                       source_profiles(source, config.n),
                       seed=source.get("seed", 0), path=csv_path))

    npz_path = ddir / "dataset.npz"
    manifest_path = ddir / "dataset.json"

    def ingest_fn():
        dataset = build_dataset(parse_packet_csv(csv_path), n=config.n)
        if not len(dataset.labels):
            raise StageError("ingest", "no sequences after segmentation")
        save_dataset(dataset, npz_path, manifest_path)

    runner.run("ingest", DATA_VERSIONS["ingest"],
               {"n": config.n, "source": source},
               {csv_path.name: sha256_file(csv_path)},
               [npz_path, manifest_path], ingest_fn)
    return read_json(manifest_path)


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

    @cached_property
    def test_idx(self) -> dict[str, np.ndarray]:
        """Each setting's test split: its classes' test sequences."""
        return {setting: _select(self.partition["splits"]["test"],
                                 self.latents["labels"],
                                 _classes(self.partition, setting))
                for setting in SETTINGS}

    def sane_config(self) -> SaneConfig:
        return self.config.sane_config(num_classes=len(self.partition["seen"]),
                                       seed=self.seed)


@dataclass(frozen=True)
class Stage:
    """One per-seed stage. `reads` are (producer stage, file) pairs; the
    stage refuses to run unless each file matches its producer's manifest,
    and their checksums plus `key(ctx)` and `version` form its cache key.
    `body(ctx)` writes `writes` into the run directory; a change to their
    bytes bumps `version`. `method` names the method whose reports they are."""

    name: str
    help: str
    reads: tuple[tuple[str, str], ...]
    writes: tuple[str, ...]
    key: Callable[[StageContext], dict]
    body: Callable[[StageContext], None]
    method: str | None = None
    version: int = 1


def _partition(ctx: StageContext) -> None:
    config, dataset = ctx.config, ctx.dataset
    seen, unseen = make_partition(len(dataset.class_map), config.num_unseen,
                                  ctx.seed)
    splits = split_indices(dataset.labels, ctx.seed)
    write_json(ctx.rdir / "partition.json",
               {"seed": ctx.seed, "seen": seen, "unseen": unseen,
                "splits": splits})


def _select(idx: list[int], labels: np.ndarray, classes) -> np.ndarray:
    """The indices in `idx` whose label is one of `classes` (a list or an
    array), in `idx` order."""
    idx = np.asarray(idx, dtype=np.int64)
    return idx[np.isin(labels[idx], classes)]


def _classes(partition: dict, setting: str) -> list[int]:
    """The classes a setting covers: all for GZSL, the unseen for ZSL."""
    return (sorted(partition["seen"] + partition["unseen"])
            if setting == "gzsl" else partition["unseen"])


def _train_sane(ctx: StageContext) -> None:
    features, labels = ctx.dataset.features, ctx.dataset.labels
    seen, splits = np.asarray(ctx.partition["seen"]), ctx.partition["splits"]
    train_idx = _select(splits["train"], labels, seen)
    val_idx = _select(splits["val"], labels, seen)
    norm = fit_normalizer(features[train_idx])

    def localized(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # seen classes renumbered 0..len(seen)-1 in sorted order
        return (apply_normalizer(norm, features[idx]),
                np.searchsorted(seen, labels[idx]))

    model, _ = train_sane(*localized(train_idx), *localized(val_idx),
                          ctx.sane_config(),
                          log_path=ctx.rdir / "sane_log.csv")
    # saved after the fit: a failed one leaves no file that no manifest lists
    save_arrays(ctx.rdir / "normalizer.npz", **norm)
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
    norm = load_arrays(ctx.rdir / "normalizer.npz")
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
    for setting in SETTINGS:
        keep = np.isin(labels, _classes(ctx.partition, setting))
        save_arrays(ctx.rdir / f"svm_{setting}.npz", **train_svm(
            samples[keep], labels[keep], ctx.config.svm_config()))


def _reports(ctx: StageContext, method: str, predictions: dict[str, np.ndarray],
             extra: dict) -> dict[str, dict]:
    """The report of each setting that `predictions` maps to the method's
    labels for that setting's test split."""
    return {setting: evaluate(setting,
                              ctx.latents["labels"][ctx.test_idx[setting]],
                              pred, _classes(ctx.partition, setting),
                              {**extra, "method": method, "seed": ctx.seed})
            for setting, pred in predictions.items()}


def _eval(ctx: StageContext) -> None:
    reports = _reports(ctx, "zest", {
        setting: predict(load_arrays(ctx.rdir / f"svm_{setting}.npz"),
                         ctx.latents["l"][idx])
        for setting, idx in ctx.test_idx.items()}, {})
    for setting, report in reports.items():
        write_json(ctx.rdir / f"report_{setting}.json", report)
    with atomic_write(ctx.rdir / "report.txt", "w") as fh:
        fh.write("\n\n".join(map(format_report, reports.values())) + "\n")


def _baseline(ctx: StageContext, name: str) -> None:
    labels, features = ctx.latents["labels"], ctx.latents[BASELINES[name]]
    fit_idx = _fit_idx(ctx.partition, labels)
    tests = {setting: features[idx] for setting, idx in ctx.test_idx.items()}
    predictions, extra = getattr(bl, name.replace("-", "_"))(
        features[fit_idx], labels[fit_idx], tests, ctx.latents["attrs"],
        ctx.seed)
    write_json(ctx.rdir / f"baseline_{name}.json",
               _reports(ctx, name, predictions, extra))


_DATASET = (("ingest", "dataset.npz"), ("ingest", "dataset.json"))
_PARTITION = ("partition", "partition.json")
_LATENTS = ("extract-attrs", "latents.npz")

# every per-seed stage, in dependency order
STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("partition", "split devices into seen/unseen and sequences into "
                       "train/val/test",
          reads=_DATASET, writes=("partition.json",),
          key=lambda ctx: {"seed": ctx.seed,
                           "num_unseen": ctx.config.num_unseen},
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
        name, stage.version, stage.key(ctx), inputs,
        [ctx.rdir / f for f in stage.writes], lambda: stage.body(ctx))


def read_reports(config: ExperimentConfig, seed: int,
                 method: str) -> dict[str, dict]:
    """{setting: report} in `SETTINGS` order as the stage of `method` wrote
    them, each report the dict `evaluate` built."""
    rdir = run_dir(config, seed)
    if method == "zest":
        return {s: read_json(rdir / f"report_{s}.json") for s in SETTINGS}
    reports = read_json(rdir / f"baseline_{method}.json")
    return {s: reports[s] for s in SETTINGS}


stage_partition = partial(run_stage, "partition")
stage_train_sane = partial(run_stage, "train-sane")
stage_extract_attrs = partial(run_stage, "extract-attrs")
stage_train_cvae = partial(run_stage, "train-cvae")
stage_gen_pseudo = partial(run_stage, "gen-pseudo")
stage_train_clf = partial(run_stage, "train-clf")
stage_eval = partial(run_stage, "eval")


def stage_baseline(config: ExperimentConfig, seed: int, name: str) -> bool:
    return run_stage(f"baseline-{name}", config, seed)


# ---------------------------------------------------------------------------
# full pipeline and sweeps
# ---------------------------------------------------------------------------

def run_seed(config: ExperimentConfig, seed: int) -> dict:
    """Every per-seed stage in table order; returns {method: {setting:
    report}} for ZEST and then each baseline."""
    for name in STAGES:
        run_stage(name, config, seed)
    return {method: read_reports(config, seed, method)
            for method in ("zest", *BASELINE_NAMES)}


def aggregate_reports(per_seed: list[dict]) -> list[dict]:
    """Mean and std accuracy per (method, setting) over seeds."""
    rows = []
    for method in per_seed[0]:
        for setting in SETTINGS:
            accs = [res[method][setting]["accuracy"] for res in per_seed]
            rows.append({
                "method": method,
                "setting": setting,
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "num_seeds": len(accs),
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


# a sweep parameter -> the section (None: the top level) and field it sets
SWEEP_PARAMS = {"attr-dim": ("sane", "N"), "encoders": ("sane", "e"),
                "heads": ("sane", "h"), "unseen": (None, "num_unseen")}


def run_sweep(config: ExperimentConfig, param: str,
              values: list) -> list[dict]:
    """Run the full pipeline once per parameter value in its own subdir."""
    if param not in SWEEP_PARAMS:
        raise StageError("sweep", f"unknown sweep parameter {param!r}; "
                                  f"have {sorted(SWEEP_PARAMS)}")
    section, key = SWEEP_PARAMS[param]
    try:
        ints = [int(value) for value in values]
    except ValueError:
        ints = []
    # each value has one subdir: a repeated one would run twice
    if len(set(ints)) != len(values):
        raise StageError("sweep", f"{param} takes distinct integers, got "
                                  f"{values}")
    sweep_root = Path(config.outdir) / f"sweep-{param}"
    subs = []
    for value in ints:
        change = ({key: value} if section is None
                  else {section: {**getattr(config, section), key: value}})
        # every value is validated before the first one runs
        subs.append((value, replace(config, **change,
                                    outdir=str(sweep_root / str(value)))))
    all_rows = []
    for value, sub in subs:
        write_json(Path(sub.outdir) / "config.json", asdict(sub))
        all_rows += [{**row, "param": param, "value": value}
                     for row in run_pipeline(sub)]
    _write_accuracy_csv(sweep_root / "sweep.csv", all_rows,
                        ("param", "value", "method", "setting"))
    return all_rows

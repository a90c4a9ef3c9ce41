"""The per-seed stage table: lazy dataset loads, crash-safe manifests, SANE
dimensions, and agreement between the table, the CLI and `run_pipeline`."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config, tiny_profiles, write_profiles
from test_cli import (SANE_OVERRIDES, _base_args,  # noqa: F401
                      experiment, profile_file)
import zest
from zest import baselines as bl
from zest import checkpoint
from zest import pipeline as pl
from zest.attributes import compute_attributes
from zest.classifier import evaluate, predict
from zest.cli import build_parser, main
from zest.forest import RandomForest
from zest.ingest import Dataset, load_dataset, save_dataset
from zest.pipeline import (STAGES, ExperimentConfig, RunLock, StageContext,
                           StageError, resolve_config, write_json)
from zest.sane import SaneConfig, SaneModel, train_sane
from zest.synth import generate_csv


def _command(stage_name: str) -> list[str]:
    if stage_name.startswith("baseline-"):
        return ["baseline", stage_name[len("baseline-"):]]
    return [stage_name]


def test_cvae_config_follows_sane_dims(tmp_path):
    default = ExperimentConfig(outdir=str(tmp_path)).cvae_config(seed=0)
    assert (default.input_dim, default.cond_dim) == (SaneConfig().M,
                                                     SaneConfig().N)
    config = ExperimentConfig(outdir=str(tmp_path), sane={"M": 8, "N": 2})
    tuned = config.cvae_config(seed=4)
    assert (tuned.input_dim, tuned.cond_dim, tuned.seed) == (8, 2, 4)
    assert STAGES["extract-attrs"].key(StageContext(config, 0)) == {"N": 2}


def test_unknown_baseline_in_config_rejected(tmp_path):
    # every baseline runs: no config field lists them
    with pytest.raises(ValueError, match="has no field 'baselines'"):
        resolve_config(tmp_path, {"baselines": ["seqcs", "nope"]})
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("fields, match", [
    ({"seeds": [0, 0]}, "^seeds must be a non-empty list of distinct"),
    # a source names exactly one kind: a preset, a profile file or a CSV
    ({"source": {}}, "source"), ({"source": {"sessions": 5}}, "source"),
    ({"source": {"preset": "hard-12", "csv": "x.csv"}}, "source"),
    # packets per sequence, and model settings that fail only when a stage
    # builds the model: zero-width attributes and zero learning rates
    ({"n": 0}, "^n must be > 0"),
    ({"sane": {"N": 0}}, "^sane.N must be > 0"),
    ({"sane": {"learning_rate": 0}}, "^sane.learning_rate"),
    ({"cvae": {"learning_rate": 0}}, "^cvae.learning_rate"),
    # each field holds its kind: an integer that is not a bool, a finite
    # number, or a list; a model section's field is named with its section
    *(({key: value}, rf"^{key} must be an integer") for key, value in (
        ("n", 2.5), ("n", True), ("n", "5"), ("pseudo_k", 2.5),
        ("num_unseen", 1.5))),
    ({"seeds": [0, 1.5]}, "^seeds must be a non-empty list"),
    ({"seeds": "abc"}, "^seeds must be a list"),
    *(({section: {key: value}}, rf"^{section}.{key} must be {kind}")
      for section, key, value, kind in (
          ("sane", "e", 2.5, "an integer"),
          ("sane", "batch_size", True, "an integer"),
          ("sane", "epochs", 1.5, "an integer"),
          ("sane", "h", "8", "an integer"),
          ("sane", "learning_rate", float("inf"), "a finite number"),
          ("cvae", "z_dim", 2.5, "an integer"),
          ("svm", "lr", float("inf"), "a finite number"),
          ("svm", "epochs", 2.5, "an integer"),
          ("svm", "epochs", "3", "an integer")))])
def test_invalid_field_rejected_by_config(tmp_path, fields, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(outdir=str(tmp_path), **fields)


@pytest.mark.parametrize("source, key", [
    ({"preset": "hard-12", "sesions": 5}, "sesions"),
    ({"csv": "a.csv", "sessions": 5}, "sessions"),
    ({"csv": "a.csv", "seed": 1}, "seed"),
    ({"profiles": "p.json", "sessions": 5}, "sessions")])
def test_source_key_its_kind_never_reads_rejected(tmp_path, source, key):
    outdir = tmp_path / "exp"
    with pytest.raises(ValueError, match=rf"source\.{key} means nothing"):
        resolve_config(outdir, {"source": source})
    assert not outdir.exists()


def test_source_keys_each_kind_reads_accepted(tmp_path):
    for source in ({"preset": "hard-12", "sessions": 5, "seed": 2},
                   {"profiles": "p.json", "seed": 2}, {"csv": "a.csv"}):
        config = resolve_config(tmp_path / next(iter(source)),
                                {"source": source})
        assert config.source == source


def _old_config(**fields) -> dict:
    """A config.json as written before the split ratios and the baselines
    became constants, with `fields` changed."""
    return {**asdict(ExperimentConfig(outdir="old")),
            "ratios": [0.6, 0.2, 0.2],
            "baselines": ["vae-k", "seqcr", "seqcs", "deft"], **fields}


def test_config_json_of_the_old_constants_opens(tmp_path):
    write_json(tmp_path / "config.json", _old_config(num_unseen=3))
    config = resolve_config(tmp_path)
    assert config.num_unseen == 3
    assert json.loads((tmp_path / "config.json").read_text()) == asdict(config)


@pytest.mark.parametrize("persisted, layer, key", [
    (_old_config(ratios=[0.5, 0.3, 0.2]), {}, "ratios"),
    (_old_config(baselines=["seqcs"]), {}, "baselines"),
    # a --config file or an override sets no retired field, at any value
    (None, {"ratios": [0.6, 0.2, 0.2]}, "ratios"),
    (None, "config file", "ratios"),
    (None, {"baselines": ["vae-k", "seqcr", "seqcs", "deft"]}, "baselines")],
    ids=["persisted-ratios", "persisted-baselines", "override-ratios",
         "file-ratios", "override-baselines"])
def test_retired_field_rejected_but_at_its_value_in_config_json(
        tmp_path, persisted, layer, key):
    outdir = tmp_path / "exp"
    if persisted is not None:
        write_json(outdir / "config.json", persisted)
    if layer == "config file":
        layer = tmp_path / "config.json"
        write_json(layer, {"ratios": [0.6, 0.2, 0.2]})
    written = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
    with pytest.raises(ValueError, match=f"has no field '{key}'"):
        resolve_config(outdir, layer)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*.json")} == written


def test_write_json_keeps_old_file_on_failure(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"a": 1})
    # a numpy value is no JSON value either: none is converted
    for bad in (object(), np.int64(1)):
        with pytest.raises(TypeError):
            write_json(path, {"a": bad})
        assert json.loads(path.read_text()) == {"a": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


class _DiskFull:
    """A file that takes half of its first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _aggregate_rows(version):
    return [{"method": "zest", "setting": "gzsl", "mean_accuracy": version / 4,
             "std_accuracy": 0.0, "num_seeds": version}]


# artifact name -> writer(directory, version, tiny splits)
TEXT_WRITERS = {
    "sane_log.csv": lambda d, v, splits: train_sane(
        *splits[0], *splits[1], tiny_config(epochs=v),
        log_path=d / "sane_log.csv"),
    "report.csv": lambda d, v, _: pl.write_aggregate(_aggregate_rows(v), d),
    "report.txt": lambda d, v, _: pl.write_aggregate(_aggregate_rows(v), d),
    "report_gzsl.json": lambda d, v, _: write_json(
        d / "report_gzsl.json",
        evaluate("gzsl", [0, 1], [0, v % 2], [0, 1])),
    "profiles.json": lambda d, v, _: write_profiles(
        tiny_profiles(num_devices=2, sessions=v), d / "profiles.json"),
    "traffic.csv": lambda d, v, _: generate_csv(
        tiny_profiles(num_devices=2, sessions=v), seed=0,
        path=d / "traffic.csv"),
}


@pytest.mark.parametrize("name", sorted(TEXT_WRITERS))
def test_failed_text_write_keeps_old_file(name, tmp_path, monkeypatch,
                                          tiny_splits):
    write = TEXT_WRITERS[name]
    write(tmp_path, 1, tiny_splits)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = open

    def open_failing(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return _DiskFull(fh) if name in os.path.basename(file) else fh

    monkeypatch.setattr(checkpoint, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, 2, tiny_splits)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after[name] == before[name]
    assert sorted(after) == sorted(before)


def test_failed_dataset_write_keeps_old_files(tmp_path, monkeypatch):
    npz, manifest = tmp_path / "dataset.npz", tmp_path / "dataset.json"
    old = Dataset(features=np.ones((2, 3, 8), dtype=np.float32),
                  labels=np.array([0, 1]), class_map={"a": 0, "b": 1}, n=3)
    save_dataset(old, npz, manifest)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def crash(fh, **arrays):
        fh.write(b"half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", crash)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(Dataset(features=np.zeros((5, 3, 8), dtype=np.float32),
                             labels=np.zeros(5, dtype=np.int64),
                             class_map={"c": 0}, n=3), npz, manifest)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    np.testing.assert_array_equal(load_dataset(npz, manifest).features,
                                  old.features)


def test_failed_pseudo_write_keeps_old_file(experiment, tmp_path,
                                            monkeypatch):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    rdir = work / "runs" / "seed-0"
    before = {p.name: p.read_bytes() for p in rdir.iterdir()}

    def crash(fh, **arrays):
        fh.write(b"half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", crash)
    config = resolve_config(work, {"pseudo_k": 7})
    with pytest.raises(OSError, match="disk full"):
        pl.run_stage("gen-pseudo", config, 0)
    assert {p.name: p.read_bytes() for p in rdir.iterdir()} == before


def test_renamed_output_is_a_cache_miss(experiment, tmp_path):
    # a run directory whose gen-pseudo manifest names an older output file
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    rdir = work / "runs" / "seed-0"
    manifest_path = rdir / "gen-pseudo.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["pseudo.csv"] = manifest["outputs"].pop("pseudo.npz")
    (rdir / "pseudo.npz").rename(rdir / "pseudo.csv")
    write_json(manifest_path, manifest)
    assert main(["gen-pseudo", "--outdir", str(work), "--seed", "0"]) == 0
    assert (rdir / "pseudo.npz").exists()
    assert not (rdir / "pseudo.csv").exists()   # no manifest names it now
    assert main(["train-clf", "--outdir", str(work), "--seed", "0"]) == 0
    assert set(json.loads(manifest_path.read_text())["outputs"]) == {
        "pseudo.npz"}


@pytest.mark.parametrize("stage", ["gen-pseudo", "ingest"])
def test_bumped_stage_version_reruns_only_that_stage(experiment, tmp_path,
                                                     monkeypatch, stage):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    assert main(["pipeline", "--outdir", str(work)]) == 0
    outputs = {p: p.read_bytes() for p in work.rglob("*")
               if p.is_file() and not p.name.endswith(".manifest.json")}
    ran, run = [], pl.StageRunner.run

    def recording(self, name, *args):
        body_ran = run(self, name, *args)
        if body_ran:
            ran.append(name)
        return body_ran

    monkeypatch.setattr(pl.StageRunner, "run", recording)
    if stage == "ingest":
        monkeypatch.setitem(pl.DATA_VERSIONS, "ingest", 2)
    else:
        monkeypatch.setitem(STAGES, stage, replace(STAGES[stage], version=2))
    assert main(["pipeline", "--outdir", str(work)]) == 0
    # its outputs keep their bytes, so every stage after it hits too
    assert ran == [stage]
    manifest = next(work.rglob(f"{stage}.manifest.json"))
    assert json.loads(manifest.read_text())["version"] == 2
    assert {p: p.read_bytes() for p in outputs} == outputs
    assert main(["pipeline", "--outdir", str(work)]) == 0
    assert ran == [stage]


def test_no_file_has_two_producers():
    # a stage deletes what its replaced manifest lists and it no longer
    # writes; that is safe only while no other stage writes the same name
    writes = [name for stage in STAGES.values() for name in stage.writes]
    assert len(writes) == len(set(writes))
    assert not {"traffic.csv", "dataset.npz", "dataset.json"} & set(writes)


def _to_old_layout(rdir: Path, renamed: dict[str, str],
                   added: dict[str, list[str]]) -> None:
    """An older layout: each file of `renamed` under its old name, in the
    run directory and in every manifest, and the files that `added` lists
    per stage written as further outputs of that stage. Each manifest then
    records the checksums of the files as they now are."""
    for new, name in renamed.items():
        (rdir / new).rename(rdir / name)
    for stage, names in added.items():
        path = rdir / f"{stage}.manifest.json"
        manifest = json.loads(path.read_text())
        for name in names:
            (rdir / name).write_text(f"{name} of an older layout\n")
            manifest["outputs"][name] = ""
        write_json(path, manifest)
    for path in rdir.glob("*.manifest.json"):
        manifest = json.loads(path.read_text())
        for part in ("inputs", "outputs"):
            manifest[part] = {renamed.get(k, k): v
                              for k, v in manifest[part].items()}
            manifest[part] = {
                k: pl.sha256_file(rdir / k) if (rdir / k).is_file() else v
                for k, v in manifest[part].items()}
        write_json(path, manifest)


def _manifests(rdir: Path) -> dict[str, bytes]:
    return {name: (rdir / f"{name}.manifest.json").read_bytes()
            for name in STAGES}


def test_ckpt_layout_upgrades_from_train_sane(experiment, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    rdir = work / "runs" / "seed-0"
    assert main(["pipeline", "--outdir", str(work)]) == 0
    # the checkpoints named `sane.ckpt` and `cvae.ckpt`
    _to_old_layout(rdir, {"sane.npz": "sane.ckpt", "cvae.npz": "cvae.ckpt"},
                   {})
    # files no manifest names stay, as does one outside the run directory
    (rdir / "notes.txt").write_text("mine")
    (rdir.parent / "keep.txt").write_text("mine")
    manifest_path = rdir / "train-sane.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["../keep.txt"] = "0" * 64
    write_json(manifest_path, manifest)
    before = _manifests(rdir)

    assert main(["pipeline", "--outdir", str(work)]) == 0
    assert not list(rdir.glob("*.ckpt"))
    assert (rdir / "notes.txt").exists() and (rdir.parent / "keep.txt").exists()
    after = _manifests(rdir)
    rerun = {name for name in STAGES if after[name] != before[name]}
    # train-clf, eval and the baselines read unchanged bytes: cache hits
    assert rerun == {"train-sane", "extract-attrs", "train-cvae",
                     "gen-pseudo"}

    files = {p.name: p.stat().st_mtime_ns for p in rdir.iterdir()}
    assert main(["pipeline", "--outdir", str(work)]) == 0
    assert {p.name: p.stat().st_mtime_ns for p in rdir.iterdir()} == files


def test_json_layout_upgrades_from_train_sane(experiment, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    rdir = work / "runs" / "seed-0"
    assert main(["pipeline", "--outdir", str(work)]) == 0
    new = {name: (rdir / name).read_bytes() for name in (
        "latents.npz", "report_zsl.json", "report_gzsl.json",
        *(f"baseline_{name}.json" for name in pl.BASELINE_NAMES))}
    # the normalizer and the SVMs as JSON, the attributes as a CSV beside
    # latents without them, and the decoder's checksum in pseudo.json
    with np.load(rdir / "latents.npz") as latents:
        np.savez(rdir / "latents.npz",
                 **{k: latents[k] for k in ("l", "lam", "labels")})
    old = {"normalizer.npz": "normalizer.json",
           "svm_zsl.npz": "svm_zsl.json", "svm_gzsl.npz": "svm_gzsl.json"}
    _to_old_layout(rdir, old, {"extract-attrs": ["attributes.csv"],
                               "gen-pseudo": ["pseudo.json"]})
    before = _manifests(rdir)

    assert main(["pipeline", "--outdir", str(work)]) == 0
    for name in (*old.values(), "attributes.csv", "pseudo.json"):
        assert not (rdir / name).exists(), name
    after = _manifests(rdir)
    assert {name for name in STAGES if after[name] != before[name]} == (
        set(STAGES) - {"partition"})
    assert {name: (rdir / name).read_bytes() for name in new} == new
def test_zsl_classifier_sees_only_unseen_pseudo(experiment):
    rdir = experiment / "runs" / "seed-0"
    partition = json.loads((rdir / "partition.json").read_text())
    with np.load(rdir / "pseudo.npz") as pseudo:
        assert pseudo["samples"].dtype == np.float32
        assert pseudo["labels"].dtype == np.int64
        labels = sorted(set(pseudo["labels"].tolist()))
    assert labels == sorted(partition["seen"] + partition["unseen"])
    svm = {s: checkpoint.load_arrays(rdir / f"svm_{s}.npz")
           for s in ("zsl", "gzsl")}
    # the saved dicts keep their key order and dtypes, so files keep bytes
    for arrays in svm.values():
        assert [(name, a.dtype) for name, a in arrays.items()] == [
            ("classes", np.int64), ("weights", np.float64),
            ("biases", np.float64)]
    assert svm["zsl"]["classes"].tolist() == sorted(partition["unseen"])
    assert svm["gzsl"]["classes"].tolist() == labels
    norm = checkpoint.load_arrays(rdir / "normalizer.npz")
    assert [(name, a.dtype) for name, a in norm.items()] == [
        ("mins", np.float64), ("maxs", np.float64)]


def test_latents_hold_exact_class_attributes(experiment):
    rdir = experiment / "runs" / "seed-0"
    partition = json.loads((rdir / "partition.json").read_text())
    with np.load(rdir / "latents.npz", allow_pickle=False) as latents:
        lam, labels = latents["lam"], latents["labels"]
        attrs = latents["attrs"]
    fit = pl._fit_idx(partition, labels)
    num_classes = len(partition["seen"]) + len(partition["unseen"])
    assert attrs.shape == (num_classes, lam.shape[1])
    np.testing.assert_array_equal(
        attrs, compute_attributes(lam[fit], labels[fit], num_classes))


KILLED_WRITER = """
import sys, time
from pathlib import Path
from zest.checkpoint import atomic_write
from zest.pipeline import RunLock
outdir = Path(sys.argv[1])
with RunLock(outdir):
    with atomic_write(outdir / "runs" / "seed-0" / "a.txt", "w") as fh:
        fh.write("half")
        fh.flush()
        time.sleep(60)
"""


def test_killed_writer_leaves_whole_artifact_and_no_temp(tmp_path):
    rdir = tmp_path / "runs" / "seed-0"
    rdir.mkdir(parents=True)
    with checkpoint.atomic_write(rdir / "a.txt", "w") as fh:
        fh.write("whole")
    # a temp file of a live process is not ours to delete
    live_tmp = rdir / f".b.txt.{os.getpid()}.tmp"
    live_tmp.write_text("in use")
    env = dict(os.environ,
               PYTHONPATH=str(Path(zest.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-c", KILLED_WRITER,
                              str(tmp_path)], env=env)
    killed_tmp = rdir / f".a.txt.{child.pid}.tmp"
    try:
        deadline = time.monotonic() + 30
        while not (killed_tmp.exists() and killed_tmp.read_text()):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        child.kill()
        child.wait(timeout=30)
    assert (tmp_path / ".lock").read_text() == str(child.pid)
    assert (rdir / "a.txt").read_text() == "whole"
    with RunLock(tmp_path):
        assert not killed_tmp.exists()
    assert (rdir / "a.txt").read_text() == "whole"
    assert sorted(p.name for p in rdir.iterdir()) == sorted(
        ["a.txt", live_tmp.name])
    assert not (tmp_path / ".lock").exists()


def test_stale_lock_is_taken_over(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()   # reaped: its pid names no process now
    lock = tmp_path / ".lock"
    lock.write_text(str(child.pid))
    with RunLock(tmp_path):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()


@pytest.mark.parametrize("content", [str(os.getpid()), "", "not a pid"],
                         ids=["live-pid", "empty", "garbage"])
def test_live_or_unreadable_lock_is_refused(tmp_path, content):
    # an empty or unreadable lock may belong to a run that has not yet
    # written its pid
    (tmp_path / ".lock").write_text(content)
    with pytest.raises(StageError, match="in progress"):
        with RunLock(tmp_path):
            pass
    assert (tmp_path / ".lock").read_text() == content


def test_every_stage_has_a_command(experiment):
    parser = build_parser()
    for name in STAGES:
        args = parser.parse_args(_command(name) + ["--outdir", "x"])
        assert args.run is not None
    epilog = parser.epilog.splitlines()[1:]
    assert len(epilog) == len(STAGES)
    for line, stage in zip(epilog, STAGES.values()):
        assert " ".join(_command(stage.name)) in line
        assert line.endswith(stage.help)
    assert main(["partition", "--outdir", str(experiment), "--seed", "0"]) == 0


def test_partition_runs_before_any_stage(tmp_path, profile_file):
    outdir = tmp_path / "fresh"
    assert main(["ingest"] + _base_args(outdir, profile_file)) == 0
    assert main(["train-sane", "--outdir", str(outdir), "--seed", "1"]) == 0
    rdir = outdir / "runs" / "seed-1"
    assert json.loads((rdir / "partition.json").read_text())["seed"] == 1
    assert (rdir / "sane.npz").exists()


def test_truncated_own_manifest_is_a_cache_miss(experiment, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    manifest = work / "runs" / "seed-0" / "train-clf.manifest.json"
    text = manifest.read_text()
    for bad in (text[:20], *_misshapen_manifests(text)):
        manifest.write_text(bad)
        assert main(["train-clf", "--outdir", str(work), "--seed", "0"]) == 0
        payload = json.loads(manifest.read_text())
        assert payload["stage"] == "train-clf"
        assert set(payload["outputs"]) == {"svm_zsl.npz", "svm_gzsl.npz"}


def test_unreadable_producer_manifest_names_producer(experiment, tmp_path,
                                                      capsys):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    manifest = work / "runs" / "seed-0" / "train-sane.manifest.json"
    for bad in ("{", *_misshapen_manifests(manifest.read_text())):
        manifest.write_text(bad)
        assert main(["extract-attrs", "--outdir", str(work),
                     "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "[extract-attrs]" in err and "re-run 'train-sane'" in err


def _misshapen_manifests(text):
    """JSON that is no manifest: a manifest's text with `outputs` renamed,
    and a list."""
    renamed = {("output" if key == "outputs" else key): value
               for key, value in json.loads(text).items()}
    return json.dumps(renamed), "[1]"


def test_missing_upstream_names_stage_to_rerun(tmp_path, profile_file,
                                               capsys):
    outdir = tmp_path / "fresh"
    assert main(["ingest"] + _base_args(outdir, profile_file)) == 0
    assert main(["gen-pseudo", "--outdir", str(outdir), "--seed", "0"]) == 1
    assert "re-run stage 'train-cvae'" in capsys.readouterr().err


def test_cli_stages_match_pipeline(experiment, tmp_path, profile_file):
    assert main(["baseline", "seqcs", "--outdir", str(experiment),
                 "--seed", "0"]) == 0
    outdir = tmp_path / "pipe"
    assert main(["pipeline"] + _base_args(outdir, profile_file)) == 0
    for name in ("report_zsl.json", "report_gzsl.json", "baseline_seqcs.json"):
        assert ((experiment / "runs" / "seed-0" / name).read_bytes()
                == (outdir / "runs" / "seed-0" / name).read_bytes()), name


def test_dataset_loads_only_where_needed(tmp_path, monkeypatch):
    profiles = tmp_path / "tiny.json"
    write_profiles(tiny_profiles(num_devices=5, sessions=25), profiles)
    config = resolve_config(tmp_path / "exp", {
        "source": {"profiles": str(profiles)}, "n": 10, "num_unseen": 2,
        "seeds": [0], "sane": SANE_OVERRIDES,
        "cvae": {"z_dim": 4, "epochs": 60}, "pseudo_k": 40})
    calls = []
    load_dataset = pl.load_dataset

    def counting(*args):
        calls.append(args)
        return load_dataset(*args)

    monkeypatch.setattr(pl, "load_dataset", counting)
    pl.stage_ingest(config)
    assert calls == []      # ingest writes the dataset, and reads none back
    cold = pl.run_seed(config, 0)
    assert len(calls) == 3
    calls.clear()
    warm = pl.run_seed(config, 0)
    assert calls == []
    assert cold == warm


def test_extract_attrs_encodes_each_sequence_once(experiment, tmp_path,
                                                  monkeypatch):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    (work / "runs" / "seed-0" / "extract-attrs.manifest.json").unlink()
    config = resolve_config(work)
    encoded = []
    predict_arrays = SaneModel.predict_arrays

    def counting(self, x, *args, **kwargs):
        encoded.append(len(x))
        return predict_arrays(self, x, *args, **kwargs)

    monkeypatch.setattr(SaneModel, "predict_arrays", counting)
    assert pl.run_stage("extract-attrs", config, 0)
    num_points = json.loads((work / "data" / "dataset.json").read_text())[
        "num_points"]
    assert sum(encoded) == num_points


def test_each_baseline_fits_once(experiment, tmp_path, monkeypatch):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    # other tests may have run baselines in the shared experiment
    for manifest in (work / "runs" / "seed-0").glob("baseline-*.manifest.json"):
        manifest.unlink()
    config = resolve_config(work)
    calls = []

    def spy(name, fn):
        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counting

    monkeypatch.setattr(bl, "kmeans", spy("kmeans", bl.kmeans))
    monkeypatch.setattr(bl, "train_cvae", spy("train_cvae", bl.train_cvae))
    monkeypatch.setattr(RandomForest, "fit", spy("forest", RandomForest.fit))
    fits = {}
    for name in pl.BASELINE_NAMES:
        calls.clear()
        assert pl.run_stage(f"baseline-{name}", config, 0)
        fits[name] = sorted(calls)
    assert fits == {"vae-k": ["kmeans", "train_cvae"], "seqcr": ["kmeans"],
                    "seqcs": ["kmeans"], "deft": ["forest", "kmeans"]}


def test_every_baseline_gets_the_same_arguments(experiment, tmp_path,
                                                monkeypatch):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    ctx = StageContext(resolve_config(work), 0)
    calls = {}

    def spy(name):
        def pipeline(*args, **kwargs):
            calls[name] = (args, kwargs)
            return {}, {}
        return pipeline

    for name in pl.BASELINES:
        monkeypatch.setattr(bl, name.replace("-", "_"), spy(name))
        pl._baseline(ctx, name)
    labels, partition = ctx.latents["labels"], ctx.partition
    fit_idx = pl._fit_idx(partition, labels)
    test = np.asarray(partition["splits"]["test"])
    test_idx = {"zsl": test[np.isin(labels[test], partition["unseen"])],
                "gzsl": test}
    for name, latent in pl.BASELINES.items():
        (fit_x, fit_y, tests, attrs, seed), kwargs = calls[name]
        features = ctx.latents[latent]
        np.testing.assert_array_equal(fit_x, features[fit_idx])
        np.testing.assert_array_equal(fit_y, labels[fit_idx])
        # each setting's test features, and no test label: ZSL's are the
        # unseen devices' test sequences, GZSL's the whole test split
        assert list(tests) == list(pl.SETTINGS)
        for setting, x in tests.items():
            np.testing.assert_array_equal(x, features[test_idx[setting]])
        np.testing.assert_array_equal(attrs, ctx.latents["attrs"])
        assert (seed, kwargs) == (0, {})


def test_every_report_is_scored_over_its_settings_classes(experiment,
                                                          tmp_path,
                                                          monkeypatch):
    # one builder for ZEST and every baseline, over one rule's classes
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    ctx = StageContext(resolve_config(work), 0)
    calls = []

    def spy(setting, y_true, y_pred, class_labels, extra):
        calls.append((extra["method"], setting, list(class_labels)))
        return evaluate(setting, y_true, y_pred, class_labels, extra)

    monkeypatch.setattr(pl, "evaluate", spy)
    pl._eval(ctx)
    for name in pl.BASELINE_NAMES:
        pl._baseline(ctx, name)
    assert len(calls) == 2 * (1 + len(pl.BASELINE_NAMES))
    seen, unseen = ctx.partition["seen"], ctx.partition["unseen"]
    classes = {"gzsl": sorted(seen + unseen), "zsl": unseen}
    for method in ("zest", *pl.BASELINE_NAMES):
        assert sorted(setting for m, setting, _ in calls if m == method) == [
            "gzsl", "zsl"]
        for setting, report in pl.read_reports(ctx.config, 0, method).items():
            assert (method, setting, classes[setting]) in calls
            assert report["class_labels"] == classes[setting]
            assert report["extra"]["method"] == method
            assert report["extra"]["seed"] == 0


def test_failed_train_sane_leaves_only_the_partition(experiment, tmp_path,
                                                     monkeypatch):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    config = resolve_config(work)

    def failing(*args, **kwargs):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(pl, "train_sane", failing)
    pl.run_stage("partition", config, 1)
    with pytest.raises(RuntimeError, match="fit failed"):
        pl.run_stage("train-sane", config, 1)
    assert sorted(p.name for p in (work / "runs" / "seed-1").iterdir()) == [
        "partition.json", "partition.manifest.json"]


def test_single_unseen_zsl_svm_predicts_it(experiment, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    config = resolve_config(work, {"num_unseen": 1})
    for name in ("partition", "train-sane", "extract-attrs", "train-cvae",
                 "gen-pseudo", "train-clf", "eval"):
        assert pl.run_stage(name, config, 0)
    rdir = work / "runs" / "seed-0"
    partition = json.loads((rdir / "partition.json").read_text())
    (unseen,) = partition["unseen"]
    zsl = checkpoint.load_arrays(rdir / "svm_zsl.npz")
    assert zsl["classes"].tolist() == [unseen]
    assert zsl["biases"][0] != 0     # fitted, not a zero-weight stand-in
    with np.load(rdir / "latents.npz") as latents:
        test_l = latents["l"][partition["splits"]["test"]]
    assert predict(zsl, test_l).tolist() == [unseen] * len(test_l)
    assert pl.read_reports(config, 0, "zest")["zsl"]["accuracy"] == 1.0

"""CLI command plumbing, stage caching, and manifest validation on a tiny
experiment."""

import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_profiles, write_profiles
import zest
from zest.cli import main
from zest.ingest import make_partition
from zest.pipeline import STAGES, ExperimentConfig, resolve_config
from zest.synth import generate_csv

SANE_OVERRIDES = {"d_model": 16, "e": 1, "h": 2, "d_mlp": 32, "M": 8, "N": 3,
                  "batch_size": 16, "epochs": 6, "learning_rate": 3e-3}


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "tiny.json"
    write_profiles(tiny_profiles(num_devices=5, sessions=25), path)
    return path


def _base_args(outdir, profile_file):
    return ["--outdir", str(outdir), "--profiles", str(profile_file),
            "--n", "10", "--num-unseen", "2", "--seed-list", "0",
            "--sane", json.dumps(SANE_OVERRIDES),
            "--cvae", json.dumps({"z_dim": 4, "epochs": 60}),
            "--pseudo-k", "40"]


@pytest.fixture(scope="module")
def experiment(tmp_path_factory, profile_file):
    outdir = tmp_path_factory.mktemp("exp") / "run"
    assert main(["ingest"] + _base_args(outdir, profile_file)) == 0
    for cmd in ("train-sane", "extract-attrs", "train-cvae", "gen-pseudo",
                "train-clf", "eval"):
        assert main([cmd, "--outdir", str(outdir), "--seed", "0"]) == 0
    return outdir


def test_synth_command(tmp_path, profile_file):
    out = tmp_path / "traffic.csv"
    assert main(["synth", "--profiles", str(profile_file), "--out", str(out),
                 "--seed", "3"]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("timestamp,src_port,dst_port")


def test_synth_requires_one_source(tmp_path, profile_file, capsys):
    out = tmp_path / "x.csv"
    two = ["--preset", "hard-12", "--profiles", str(profile_file)]
    for flags in ([], two):
        assert main(["synth", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("[synth] error: exactly one of "
                                           "--preset and --profiles is "
                                           "needed\n")
        assert not out.exists()


@pytest.mark.parametrize("flags, field", [
    ("--preset nope", "source.preset"),
    ("--preset hard-12 --sessions 0", "source.sessions"),
    ("--profiles {} --sessions 5", "source.sessions"),
    ("--preset hard-12 --seed -1", "source.seed"),
    ("--profiles {} --packets-per-session 7", "--packets-per-session")])
def test_synth_checks_its_source_by_the_config_rule(tmp_path, profile_file,
                                                    capsys, flags, field):
    out = tmp_path / "x.csv"
    flags = flags.format(profile_file).split()
    assert main(["synth", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert not out.exists()
    if field.startswith("source."):
        # `zest ingest` gives the generator seed as --synth-seed
        flags = [{"--seed": "--synth-seed"}.get(f, f) for f in flags]
        assert main(["ingest", "--outdir", str(tmp_path / "exp"),
                     *flags]) == 1
        assert capsys.readouterr().err == err.replace("[synth]", "[ingest]")


def _zest(*args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "zest", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_zest_runs_from_checkout():
    done = _zest("--help")
    assert done.returncode == 0, done.stderr
    for name in STAGES:
        assert name.replace("baseline-", "baseline ", 1) in done.stdout


@pytest.mark.parametrize("env, probe, want", [
    ({}, "import zest", "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "import zest", "2"),
    # numpy's BLAS has read its count by then: setting one would mislead
    ({}, "import numpy, zest", "None")],
    ids=["unset", "set", "numpy-first"])
def test_package_gives_blas_one_thread_where_no_count_is_set(env, probe,
                                                            want):
    src = Path(__file__).resolve().parents[1] / "src"
    clean = {k: v for k, v in os.environ.items()
             if k not in zest._BLAS_THREAD_VARS}
    code = f"{probe}; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**clean, **env, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == want


def test_cli_import_loads_no_scipy():
    # numpy is the only run-time dependency: loading scipy more than doubles
    # the memory and start-up time of a cached command
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import json, sys, zest.cli; print(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('zest', 'scipy'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    # the CLI's import reaches every module of the package
    package = {f"zest.{p.stem}" for p in (src / "zest").glob("*.py")
               if p.stem not in ("__init__", "__main__")}
    assert package <= set(loaded)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def _packet_csv(path, bad_lines):
    """200 packets of two devices, 100 each; the rows on `bad_lines` (file
    line numbers, the header being line 1) have an out-of-range port."""
    lines = ["timestamp,src_port,dst_port,src_internal,dst_internal,proto,"
             "size,direction,device_id"]
    for i in range(200):
        port = 70000 if i + 2 in bad_lines else 443
        lines.append(f"{i}.5,51514,{port},1,0,tcp,90,out,dev-{i % 2}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ingest_entry_point_skips_a_bad_row(tmp_path):
    csv_path = _packet_csv(tmp_path / "trace.csv", bad_lines={57})
    outdir = tmp_path / "exp"
    done = _zest("ingest", "--outdir", str(outdir), "--csv", str(csv_path),
                 "--n", "10")
    assert done.returncode == 0, done.stderr
    assert f"{csv_path}:57 skipped: port 70000 out of range" in done.stderr
    # dev-1 keeps 100 packets (10 windows), dev-0 keeps 99 (9 windows)
    manifest = json.loads((outdir / "data" / "dataset.json").read_text())
    assert manifest["num_points"] == 19


def test_ingest_entry_point_aborts_over_one_percent(tmp_path):
    csv_path = _packet_csv(tmp_path / "trace.csv", bad_lines={10, 20, 30})
    outdir = tmp_path / "exp"
    done = _zest("ingest", "--outdir", str(outdir), "--csv", str(csv_path),
                 "--n", "10")
    assert done.returncode == 1
    assert "3/200 rows unparseable" in done.stderr
    assert not (outdir / "data" / "dataset.json").exists()


def test_stage_artifacts_exist(experiment):
    rdir = experiment / "runs" / "seed-0"
    names = ("partition.json", "normalizer.npz", "sane.npz", "sane_log.csv",
             "latents.npz", "cvae.npz", "pseudo.npz", "svm_zsl.npz",
             "svm_gzsl.npz", "report_zsl.json", "report_gzsl.json",
             "report.txt")
    for name in names:
        assert (rdir / name).exists(), name
    assert names == tuple(name for stage in STAGES.values()
                          if stage.method in (None, "zest")
                          for name in stage.writes)
    # every array file loads without pickle, and the one CSV is the log
    for name in names:
        if name.endswith(".npz"):
            with np.load(rdir / name, allow_pickle=False) as archive:
                assert all(archive[key].dtype != object
                           for key in archive.files), name
    writes = [name for stage in STAGES.values() for name in stage.writes]
    assert [name for name in writes if name.endswith(".csv")] == [
        "sane_log.csv"]


def test_stage_cache_hit_skips_retraining(experiment):
    ckpt = experiment / "runs" / "seed-0" / "sane.npz"
    before = ckpt.stat().st_mtime_ns
    assert main(["train-sane", "--outdir", str(experiment),
                 "--seed", "0"]) == 0
    assert ckpt.stat().st_mtime_ns == before


def test_config_change_invalidates_cache(experiment):
    # a different pseudo-k must regenerate pseudo data but not the model
    pseudo = experiment / "runs" / "seed-0" / "pseudo.npz"
    ckpt = experiment / "runs" / "seed-0" / "sane.npz"
    ckpt_before = ckpt.stat().st_mtime_ns

    def rows():
        with np.load(pseudo) as data:
            assert len(data["samples"]) == len(data["labels"])
            return len(data["labels"])

    rows_before = rows()
    assert main(["gen-pseudo", "--outdir", str(experiment), "--seed", "0",
                 "--pseudo-k", "25"]) == 0
    assert rows() == 25 * 5
    assert ckpt.stat().st_mtime_ns == ckpt_before
    # restore for other tests
    assert main(["gen-pseudo", "--outdir", str(experiment), "--seed", "0",
                 "--pseudo-k", "40"]) == 0
    assert rows() == rows_before == 40 * 5


def test_corrupted_upstream_artifact_fatal(experiment, tmp_path):
    work = tmp_path / "copy"
    shutil.copytree(experiment, work)
    ckpt = work / "runs" / "seed-0" / "sane.npz"
    raw = bytearray(ckpt.read_bytes())
    raw[-1] ^= 0xFF
    ckpt.write_bytes(bytes(raw))
    assert main(["extract-attrs", "--outdir", str(work), "--seed", "0"]) == 1


def test_missing_upstream_manifest_fatal(tmp_path, profile_file):
    outdir = tmp_path / "fresh"
    assert main(["ingest"] + _base_args(outdir, profile_file)) == 0
    # skip train-sane: extract-attrs must name the stage to re-run
    assert main(["extract-attrs", "--outdir", str(outdir),
                 "--seed", "0"]) == 1


def test_device_without_fit_sequences_is_named(tmp_path, capsys):
    # one session is one sequence, which the split puts in test: the
    # unseen device has none in train or val to fit its attributes on
    profiles = tiny_profiles(num_devices=5, sessions=25)
    profiles[3].sessions = 1
    path = tmp_path / "profiles.json"
    write_profiles(profiles, path)
    seed = next(s for s in range(100)
                if 3 in make_partition(len(profiles), 2, s)[1])
    outdir = tmp_path / "exp"
    args = _base_args(outdir, path)
    args[args.index("--seed-list") + 1] = str(seed)
    assert main(["pipeline"] + args) == 1
    err = capsys.readouterr().err
    assert "[extract-attrs]" in err and profiles[3].device_id in err
    assert not (outdir / "runs" / f"seed-{seed}" / "latents.npz").exists()


def test_baseline_command(experiment):
    assert main(["baseline", "seqcs", "--outdir", str(experiment),
                 "--seed", "0"]) == 0
    payload = json.loads(
        (experiment / "runs" / "seed-0" / "baseline_seqcs.json").read_text())
    assert set(payload) == {"zsl", "gzsl"}


@pytest.mark.parametrize("command, method", [(["eval"], "zest"),
                                             (["baseline", "seqcs"], "seqcs")])
def test_stage_command_prints_zsl_before_gzsl(experiment, capsys, command,
                                              method):
    assert main([*command, "--outdir", str(experiment), "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"{method} zsl",
                                                     f"{method} gzsl"]


def test_lock_blocks_concurrent_runs(experiment):
    # a live process holds the lock: this test's own
    lock = experiment / ".lock"
    lock.write_text(str(os.getpid()))
    try:
        assert main(["eval", "--outdir", str(experiment), "--seed", "0"]) == 1
    finally:
        lock.unlink()


def test_unknown_baseline_rejected(experiment):
    with pytest.raises(SystemExit):
        main(["baseline", "nope", "--outdir", str(experiment)])


def test_eval_reports_have_expected_settings(experiment):
    for setting in ("zsl", "gzsl"):
        payload = json.loads((experiment / "runs" / "seed-0" /
                              f"report_{setting}.json").read_text())
        assert payload["setting"] == setting
        assert 0.0 <= payload["accuracy"] <= 1.0


class TestPipelineAndSweep:
    @pytest.fixture(scope="class")
    def pipe_dir(self, tmp_path_factory, profile_file):
        outdir = tmp_path_factory.mktemp("pipe") / "exp"
        args = _base_args(outdir, profile_file)
        # two partition seeds
        args[args.index("--seed-list") + 1:args.index("--seed-list") + 2] = ["0"]
        assert main(["pipeline"] + args[:args.index("--seed-list")] +
                    ["--seed-list", "0", "1"] +
                    args[args.index("--seed-list") + 2:]) == 0
        return outdir

    def test_aggregate_report_written(self, pipe_dir):
        report = (pipe_dir / "report.csv").read_text().splitlines()
        assert report[0] == "method,setting,mean_accuracy,std_accuracy,num_seeds"
        methods = {line.split(",")[0] for line in report[1:]}
        assert methods == {"zest", "vae-k", "seqcr", "seqcs", "deft"}
        assert all(line.split(",")[4] == "2" for line in report[1:])

    def test_pipeline_rerun_is_cache_hit(self, pipe_dir):
        ckpt = pipe_dir / "runs" / "seed-1" / "sane.npz"
        before = ckpt.stat().st_mtime_ns
        assert main(["pipeline", "--outdir", str(pipe_dir)]) == 0
        assert ckpt.stat().st_mtime_ns == before

    def test_pipeline_reports_reproducible(self, pipe_dir, tmp_path_factory,
                                           profile_file):
        outdir = tmp_path_factory.mktemp("pipe2") / "exp"
        args = _base_args(outdir, profile_file)
        assert main(["pipeline"] + args[:args.index("--seed-list")] +
                    ["--seed-list", "0", "1"] +
                    args[args.index("--seed-list") + 2:]) == 0
        assert ((pipe_dir / "report.csv").read_text()
                == (outdir / "report.csv").read_text())

    def test_sweep_command(self, pipe_dir):
        assert main(["sweep", "unseen", "1", "2", "--outdir",
                     str(pipe_dir)]) == 0
        sweep_csv = pipe_dir / "sweep-unseen" / "sweep.csv"
        lines = sweep_csv.read_text().splitlines()
        assert lines[0].startswith("param,value,method,setting")
        values = {line.split(",")[1] for line in lines[1:]}
        assert values == {"1", "2"}

    def test_sweep_unknown_param(self, pipe_dir):
        with pytest.raises(SystemExit):
            main(["sweep", "bogus", "1", "--outdir", str(pipe_dir)])


@pytest.mark.parametrize("flag, value, field", [
    ("--num-unseen", "0", "num_unseen"), ("--seeds", "0", "seeds"),
    ("--pseudo-k", "0", "pseudo_k"), ("--seed-list", "0 0", "seeds"),
    # the split ratios are constants, so a --config file that sets them
    # names a field the config lacks
    ("--config", '{"ratios": [0.5, 0.5]}', "ratios"),
    # partition seeds numpy's generator rejects
    ("--seed-list", "-1", "seeds"), ("--config", '{"seeds": [1.5]}', "seeds"),
    ("--config", '{"seeds": ["a"]}', "seeds"),
    # source settings the synth stage would reject only after config.json
    ("--preset", "nope", "source.preset"),
    ("--config", '{"source": {"preset": "nope"}}', "source.preset"),
    ("--sessions", "0", "source.sessions"),
    ("--config", '{"source": {"preset": "hard-12", "sessions": "5"}}',
     "source.sessions"),
    ("--synth-seed", "-1", "source.seed"),
    ("--config", '{"source": {"preset": "hard-12", "seed": 1.5}}',
     "source.seed"),
    # a profile file is read before config.json is written: the value edits
    # the second profile of a good file
    ("--profiles", '{"port_probs": 5}', "tiny-01: port_probs must be a dict"),
    ("--profiles", '{"proto_probs": {"TCP": 1.0}}',
     "tiny-01: proto_probs key 'TCP'"),
    # a field of the wrong kind, in a model section or at the top level
    ("--sane", '{"e":2.5}', "sane.e"), ("--sane", "5", "sane must be a dict"),
    ("--config", '{"n": 2.5}', "n must be an integer"),
    ("--config", '{"source": 5}', "source must be a dict"),
    # a value that is not JSON names its flag
    ("--sane", "e=2", "--sane"),
    # a --config file that holds no dict, and flags rejected after a valid
    # --config file: nothing is written, not even the file's config
    ("--config", "[1, 2]", "config.json must hold a JSON dict"),
    ("--config", "notjson", "config.json is not JSON"),
    ("--config", '{"bogus": 1}', "config.json has no field 'bogus'"),
    ("--config", '{"num_unseen": 3} --sane {"e":-1}', "sane.e"),
    # the seed of a per-seed stage command, as the config's seeds
    ("--seed", "-1", "--seed")])
def test_invalid_override_rejected_before_any_stage(tmp_path, profile_file,
                                                    capsys, flag, value,
                                                    field):
    outdir = tmp_path / "exp"
    values = value.split()
    if flag == "--config":
        # the file's content, then the flags that follow it
        content, _, flags = value.partition(" --")
        values = [str(tmp_path / "config.json"),
                  *(f"--{flags}".split() if flags else [])]
        Path(values[0]).write_text(content)
    if flag == "--profiles":
        profiles = [asdict(p) for p in tiny_profiles(num_devices=5,
                                                     sessions=25)]
        profiles[1].update(json.loads(value))
        values = [str(tmp_path / "profiles.json")]
        Path(values[0]).write_text(json.dumps(profiles))
    # a preset's own settings need a preset source: a --profiles one
    # rejects them as meaningless, and replaces a --config file's source
    if flag in ("--sessions", "--synth-seed"):
        base = ["--preset", "hard-12"]
    elif flag in ("--preset", "--profiles") or "source" in value:
        base = []
    else:
        base = ["--profiles", str(profile_file)]
    args = ["pipeline", "--outdir", str(outdir), *base, "--n", "10", flag,
            *values]
    if flag == "--seed":
        args = ["partition", "--outdir", str(outdir), flag, *values]
    assert main(args) == 1
    assert field in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("values, field", [
    # no unseen device is out of range; 03 repeats 3 once read as an integer
    ("2 0", "num_unseen"), ("3 03", "unseen takes distinct integers")],
    ids=["out-of-range", "repeated"])
def test_invalid_sweep_value_rejected_before_any_stage(tmp_path, profile_file,
                                                       capsys, values, field):
    outdir = tmp_path / "exp"
    assert main(["sweep", "unseen", *values.split()]
                + _base_args(outdir, profile_file)) == 1
    assert field in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["config.json"]


def test_non_integer_sweep_value_rejected_before_any_stage(tmp_path,
                                                           profile_file,
                                                           capsys):
    outdir = tmp_path / "exp"
    assert main(["sweep", "attr-dim", "2.5"]
                + _base_args(outdir, profile_file)) == 1
    assert "attr-dim" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["config.json"]


def test_invalid_sweep_model_value_rejected_before_any_stage(tmp_path,
                                                             profile_file,
                                                             capsys):
    # 3 heads do not divide SANE_OVERRIDES' d_model of 16
    outdir = tmp_path / "exp"
    assert main(["sweep", "heads", "3"]
                + _base_args(outdir, profile_file)) == 1
    assert "d_model=16 not divisible by h=3" in capsys.readouterr().err
    assert not (outdir / "sweep-heads" / "3" / "data").exists()
    assert [p.name for p in outdir.iterdir()] == ["config.json"]


@pytest.mark.parametrize("flag, value, field", [
    ("--sane", '{"d_model": 12, "h": 5}', "d_model"),
    ("--sane", '{"bogus": 1}', "bogus"),
    ("--cvae", '{"epochs": -1}', "epochs"),
    ("--cvae", '{"z": 4}', "'z'"),
    *(("--sane", json.dumps({key: 5}), f"sane.{key}")
      for key in ("n", "f", "num_classes", "seed")),
    *(("--cvae", json.dumps({key: 5}), f"cvae.{key}")
      for key in ("input_dim", "cond_dim", "seed")),
    ("--svm", '{"epoch": 5}', "'epoch'"),
    ("--svm", '{"c_reg": -1.0}', "c_reg"), ("--svm", '{"lr": 0}', "lr"),
    ("--svm", '{"epochs": -1}', "epochs")])
def test_invalid_model_override_rejected_before_any_stage(
        tmp_path, profile_file, capsys, flag, value, field):
    outdir = tmp_path / "exp"
    args = ["pipeline", "--outdir", str(outdir), "--profiles",
            str(profile_file), "--n", "10", flag, value]
    assert main(args) == 1
    assert field in capsys.readouterr().err
    assert not outdir.exists()


def test_source_override_merges_unless_it_names_a_kind(tmp_path, capsys):
    outdir = tmp_path / "exp"
    assert main(["ingest", "--outdir", str(outdir), "--preset", "hard-12",
                 "--sessions", "5", "--n", "10"]) == 0
    assert main(["ingest", "--outdir", str(outdir), "--sessions", "6"]) == 0
    config = json.loads((outdir / "config.json").read_text())
    assert config["source"] == {"preset": "hard-12", "sessions": 6}
    assert capsys.readouterr().out.splitlines()[-1] == (
        "dataset: 72 sequences, 12 devices")
    csv_path = tmp_path / "traffic.csv"
    shutil.copy(outdir / "data" / "traffic.csv", csv_path)
    assert main(["ingest", "--outdir", str(outdir), "--csv",
                 str(csv_path)]) == 0
    config = json.loads((outdir / "config.json").read_text())
    assert config["source"] == {"csv": str(csv_path)}
    # a CSV has no sessions to set: the merged source is rejected, and the
    # persisted one stays
    assert main(["ingest", "--outdir", str(outdir), "--sessions", "5"]) == 1
    assert "source.sessions" in capsys.readouterr().err
    config = json.loads((outdir / "config.json").read_text())
    assert config["source"] == {"csv": str(csv_path)}
    # config.json is the first layer: a valid one resolves to itself, byte
    # for byte, and one that is not a JSON dict names its file
    path = outdir / "config.json"
    text = path.read_text()
    assert resolve_config(outdir) == ExperimentConfig(**json.loads(text))
    assert path.read_text() == text
    for bad, message in (("[]", "must hold a JSON dict, got list"),
                         ("{", "is not JSON")):
        path.write_text(bad)
        assert main(["ingest", "--outdir", str(outdir)]) == 1
        assert f"config file {path} {message}" in capsys.readouterr().err
        assert path.read_text() == bad


@pytest.mark.parametrize("flag", ["--csv", "--profiles"])
def test_missing_source_file_makes_no_data_dir(tmp_path, capsys, flag):
    outdir = tmp_path / "exp"
    assert main(["ingest", "--outdir", str(outdir), flag,
                 str(tmp_path / "missing"), "--n", "10"]) == 1
    assert f"{flag[2:]} source not found" in capsys.readouterr().err
    assert not (outdir / "data").exists()


def _stages_run(caplog) -> list[str]:
    """The stages that ran since the last call, by the pipeline's log."""
    ran = [r.args[0] for r in caplog.records if r.msg == "stage %s: running"]
    caplog.clear()
    return ran


def test_edited_profile_file_resynthesizes(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="zest.pipeline")
    path = tmp_path / "profiles.json"
    profiles = tiny_profiles(num_devices=3, sessions=5)
    write_profiles(profiles, path)
    outdir, fresh = tmp_path / "exp", tmp_path / "fresh"
    ingest = ["ingest", "--outdir", str(outdir), "--profiles", str(path),
              "--n", "10"]
    assert main(ingest) == 0
    assert _stages_run(caplog) == ["synth", "ingest"]
    profiles[0].size_log_mean += 1.0
    write_profiles(profiles, path)
    assert main(ingest) == 0
    assert _stages_run(caplog) == ["synth", "ingest"]
    assert main(["ingest", "--outdir", str(fresh), "--profiles", str(path),
                 "--n", "10"]) == 0
    assert ((outdir / "data" / "traffic.csv").read_bytes()
            == (fresh / "data" / "traffic.csv").read_bytes())
    _stages_run(caplog)
    assert main(ingest) == 0
    assert _stages_run(caplog) == []


@pytest.mark.parametrize("source", ["preset", "csv"])
def test_unchanged_source_rerun_hits_every_stage(tmp_path, caplog, source):
    caplog.set_level(logging.INFO, logger="zest.pipeline")
    outdir = tmp_path / "exp"
    if source == "preset":
        flags = ["--preset", "hard-12", "--sessions", "2"]
    else:
        csv_path = tmp_path / "trace.csv"
        generate_csv(tiny_profiles(num_devices=3, sessions=5), seed=0,
                     path=csv_path)
        flags = ["--csv", str(csv_path)]
    assert main(["ingest", "--outdir", str(outdir), *flags, "--n", "10"]) == 0
    data = outdir / "data"
    manifests = {p.name: p.read_bytes() for p in data.glob("*.manifest.json")}
    assert _stages_run(caplog) == [*(["synth"] if source == "preset" else []),
                                   "ingest"]
    assert main(["ingest", "--outdir", str(outdir)]) == 0
    assert _stages_run(caplog) == []
    assert manifests == {p.name: p.read_bytes()
                         for p in data.glob("*.manifest.json")}

"""Tests of the benchmark itself, on the seconds-long smoke workloads (the
tiny device profiles of the test suite)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from zest import pipeline as pl  # noqa: E402

SPEC = harness.load_spec()


def _declared(kind):
    return {name for name, metric in SPEC.items() if metric["kind"] == kind}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return harness.run_benchmark("smoke", 0, 0, False,
                                 tmp_path_factory.mktemp("smoke"))


def test_result_line_schema(smoke):
    line = harness.result_line(smoke, SPEC, "end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    assert set(line["metrics"]) == _declared("end_to_end")
    assert json.loads(json.dumps(line)) == line


def test_provenance(smoke):
    prov = smoke["provenance"]
    assert prov["workload"] == "smoke" and prov["workload_seed"] == 0
    assert len(prov["config_sha256"]) == 64
    assert prov["input_size"] == {"devices": 5, "sequences": 125, "n": 10,
                                  "packets": 1250}
    assert prov["nproc"] >= 1 and prov["numpy"]


def test_undeclared_metric_is_an_error(smoke):
    record = dict(smoke, metrics={**smoke["metrics"], "made_up_s": 1.0})
    with pytest.raises(KeyError, match="made_up_s"):
        harness.result_line(record, SPEC, "end_to_end")


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    record = harness.run_benchmark("smoke", 0, 0, True, tmp_path)
    line = harness.result_line(record, SPEC, "per_layer")
    assert line["failed"] == 0
    assert set(line["metrics"]) == _declared("per_layer")
    metrics = record["metrics"]
    assert metrics["pipeline.StageRunner.run.calls"] == len(harness.SEED_STAGES)
    assert metrics["pipeline.cache_hit_ratio"] == 0.0
    assert metrics["attributes.encoder_passes_per_seq"] >= 1.0
    assert metrics["ingest.parse_packet_csv.rows"] == 1250
    # one traced repetition per partition seed; the stage spans cover it
    traced = record["traced_seed_s"]
    assert len(traced) == len(harness.WORKLOADS["smoke"].partition_seeds)
    median = sorted(traced)[len(traced) // 2]
    assert 0.8 * median <= metrics["trace.stage_span_s"] <= 1.2 * median


def test_tracer_restores_the_program(tmp_path):
    original = pl.load_dataset
    harness.run_benchmark("smoke", 1, 0, True, tmp_path)
    assert pl.load_dataset is original


def test_every_partition_seed_runs_and_accuracies_are_means(smoke):
    seeds = harness.WORKLOADS["smoke"].partition_seeds
    assert set(smoke["rep_partition_seeds"]) == set(seeds)
    assert harness.mean_accuracies([{"a": 0.5}, {"a": 1.0, "b": 0.2}]) == {
        "a": 0.75, "b": 0.2}


def test_rerun_hits_every_stage(tmp_path):
    record = harness.run_benchmark("smoke", 0, 0, True, tmp_path)
    assert record["failed"] == 0, record["errors"]
    assert record["rerun_s"] > 0
    assert record["metrics"]["rerun.cache_hit_ratio"] == 1.0


def test_rerun_that_runs_a_stage_again_is_counted(tmp_path, monkeypatch):
    rerun = harness._rerun
    stage_eval = pl.stage_eval

    def forgetful_eval(config, seed):
        (pl.run_dir(config, seed) / "eval.manifest.json").unlink()
        return stage_eval(config, seed)

    def rerun_forgetting_eval(*args):
        monkeypatch.setattr(pl, "stage_eval", forgetful_eval)
        return rerun(*args)

    monkeypatch.setattr(harness, "_rerun", rerun_forgetting_eval)
    record = harness.run_benchmark("smoke", 0, 0, False, tmp_path)
    assert record["errors"] == ["check failed: eval cache hit"]


def test_corrupted_report_is_counted(tmp_path, monkeypatch):
    stage_eval = pl.stage_eval

    def corrupting(config, seed):
        reports = stage_eval(config, seed)
        path = pl.run_dir(config, seed) / "report_gzsl.json"
        report = json.loads(path.read_text())
        report["num_test"] += 1
        report["confusion"][0][0] += 1
        path.write_text(json.dumps(report))
        return reports

    monkeypatch.setattr(pl, "stage_eval", corrupting)
    record = harness.run_benchmark("smoke", 0, 0, False, tmp_path)
    line = harness.result_line(record, SPEC, "end_to_end")
    assert line["failed"] > 0 and not line["correct"]
    assert line["metrics"]["ok_frac"]["value"] < 1.0
    assert "check failed: zest gzsl num_test" in record["errors"]
    assert "seed_s" in line["metrics"]


def test_failing_stage_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    def broken(config, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(pl, "stage_train_cvae", broken)
    record = harness.run_benchmark("smoke", 0, 0, False, tmp_path)
    assert "train-cvae: RuntimeError: boom" in record["errors"]
    assert record["failed"] > 1   # downstream stages and checks fail too
    # stages that do not depend on train-cvae still report
    assert "seqcr_gzsl_acc" in record["metrics"]
    assert record["metrics"]["seed_s"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

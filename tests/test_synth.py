"""Synthetic traffic generation determinism and Bayes-oracle behavior."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from zest.ingest import build_dataset, parse_packet_csv
from zest.pipeline import check_source
from zest.synth import (DeviceProfile, bayes_oracle, generate_csv,
                        generate_records, oracle_predict, preset_profiles,
                        separable_profiles, source_profiles)


def _profile(device_id, port, proto="udp", sessions=3,
             packets_per_session=50, size_mu=5.0, iat_mu=-1.0):
    return DeviceProfile(
        device_id=device_id,
        proto_probs={"tcp": 0.0, "udp": 0.0, "other": 0.0} | {proto: 1.0},
        port_probs={port: 1.0},
        direction_probs={"in": 0.5, "out": 0.5},
        size_log_mean=size_mu, size_log_sigma=0.4,
        iat_log_mean=iat_mu, iat_log_sigma=0.5,
        sessions=sessions, packets_per_session=packets_per_session,
    )


def test_sequence_counts_after_segmentation():
    profiles = preset_profiles("separable-12", sessions=5)
    packets = generate_records(profiles, seed=0)
    dataset = build_dataset(packets, n=200)
    assert len(dataset.class_map) == 12
    assert dataset.features.shape == (12 * 5, 200, 8)   # one per session
    assert set(dataset.labels.tolist()) == set(range(12))


def test_same_seed_byte_identical_csv(tmp_path):
    profiles = [_profile("a", 53), _profile("b", 443, proto="tcp")]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    generate_csv(profiles, seed=7, path=p1)
    generate_csv(profiles, seed=7, path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    generate_csv(profiles, seed=8, path=p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_generated_csv_passes_ingest_with_zero_skips(tmp_path):
    profiles = preset_profiles("separable-12", sessions=2)
    path = tmp_path / "traffic.csv"
    generate_csv(profiles, seed=3, path=path)
    packets = parse_packet_csv(path)
    assert len(packets) == 12 * 2 * 200


def test_timestamps_monotone_per_device():
    packets = generate_records([_profile("a", 53), _profile("b", 80)], seed=1)
    for dev in ("a", "b"):
        ts = packets["timestamp"][packets["device_id"] == dev]
        assert len(ts) == 150 and (np.diff(ts) > 0).all()


def test_identical_profiles_oracle_at_chance():
    a = _profile("a", 53, sessions=40)
    b = _profile("b", 53, sessions=40)
    dataset = build_dataset(generate_records([a, b], seed=2), n=50)
    acc = bayes_oracle([a, b], dataset.features, dataset.labels)
    assert acc == pytest.approx(0.5, abs=0.02)


def test_disjoint_port_categories_oracle_perfect():
    a = _profile("a", 53, sessions=10)
    b = _profile("b", 443, proto="tcp", sessions=10)
    dataset = build_dataset(generate_records([a, b], seed=4), n=50)
    assert bayes_oracle([a, b], dataset.features, dataset.labels) == 1.0


def test_oracle_predictions_shape_and_determinism():
    profiles = [_profile("a", 53), _profile("b", 80, proto="tcp")]
    dataset = build_dataset(generate_records(profiles, seed=5), n=50)
    p1 = oracle_predict(profiles, dataset.features)
    p2 = oracle_predict(profiles, dataset.features)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (len(dataset.labels),)
    alone = [oracle_predict(profiles, seq[None])[0]
             for seq in dataset.features]
    np.testing.assert_array_equal(p1, alone)


def test_separable_preset_oracle_calibration():
    profiles = separable_profiles(sessions=6)
    dataset = build_dataset(generate_records(profiles, seed=11), n=200)
    assert bayes_oracle(profiles, dataset.features, dataset.labels) >= 0.99


def test_invalid_profile_fatal():
    bad = _profile("a", 53)
    # NaN fails no `< 0` and no sum check
    for probs in ({"tcp": 0.5, "udp": 0.1, "other": 0.1},
                  {"tcp": float("nan"), "udp": 1.0}):
        bad.proto_probs = probs
        with pytest.raises(ValueError, match="probabilities"):
            generate_records([bad, _profile("b", 80)], seed=0)
    with pytest.raises(ValueError, match="2 profiles"):
        generate_records([_profile("a", 53)], seed=0)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(port_probs=5), "^b: port_probs must be a dict"),
    (lambda d: d.update(bogus=1), "^b: .*'bogus'"),
    (lambda d: d.pop("size_log_mean"), "^b: .*'size_log_mean'"),
    # a key that names no protocol, and one that is not a port number
    (lambda d: d.update(proto_probs={"TCP": 1.0}),
     "^b: proto_probs key 'TCP' is not one of"),
    (lambda d: d.update(port_probs={"abc": 1.0}),
     "^b: port_probs key 'abc' is not a port number"),
    # ingest rejects a port outside 0..65535 only after synth wrote it
    (lambda d: d.update(port_probs={"70000": 1.0}),
     "^b: port_probs key 70000 is not a port number"),
    # the file holds one profile where a list of them belongs
    (None, "profiles.json must hold a JSON list of profiles, got dict")],
    ids=["port_probs", "unknown-key", "missing-key", "proto-key", "port-key",
         "port-range", "dict-file"])
def test_invalid_profile_file_fatal(tmp_path, edit, match):
    profiles = [asdict(_profile("a", 53)), asdict(_profile("b", 80))]
    if edit is None:
        profiles = profiles[1]
    else:
        edit(profiles[1])
    path, out = tmp_path / "profiles.json", tmp_path / "traffic.csv"
    path.write_text(json.dumps(profiles))
    with pytest.raises(ValueError, match=match):
        generate_csv(source_profiles({"profiles": str(path)}), seed=0,
                     path=out)
    assert not out.exists()


def test_unknown_preset():
    # the one source rule rejects it; `preset_profiles` trusts its callers
    with pytest.raises(ValueError, match="source.preset must be one of"):
        check_source({"preset": "nope"})

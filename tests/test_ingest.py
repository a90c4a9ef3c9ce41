"""Packet CSV parsing, featurization, segmentation, normalization, and
partitioning behavior."""

import numpy as np
import pytest

from zest import ingest
from zest.ingest import (COL_APP_PROTO, COL_DIRECTION, COL_INTER_ARRIVAL,
                         COL_PORT_CATEGORY, COL_SIZE, DIRECTION_CODES,
                         PROTO_CODES, SPLIT_RATIOS, apply_normalizer,
                         featurize,
                         fit_normalizer, make_partition, packet_array,
                         parse_packet_csv, segment, split_indices)

HEADER = "timestamp,src_port,dst_port,src_internal,dst_internal,proto,size,direction,device_id\n"


def _write(tmp_path, rows, name="trace.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(rows))
    return path


def _record(ts=0.0, src=51514, dst=443, proto="tcp", size=100,
            direction="out", device="dev-a"):
    """One packet as a tuple in packet field order."""
    return (ts, src, dst, direction == "out", direction == "in",
            PROTO_CODES[proto], size, DIRECTION_CODES[direction], device)


def _packets(*records):
    return packet_array(list(records))


class TestParse:
    def test_well_formed_rows_in_order(self, tmp_path):
        path = _write(tmp_path, [
            "1.0,1234,443,1,0,tcp,100,out,dev-a\n",
            "2.0,443,1234,0,1,tcp,200,in,dev-a\n",
            "3.5,5353,5353,1,1,udp,80,out,dev-b\n",
        ])
        packets = parse_packet_csv(path)
        assert len(packets) == 3
        assert packets["timestamp"].tolist() == [1.0, 2.0, 3.5]
        assert packets["proto"][2] == PROTO_CODES["udp"]
        assert packets["device_id"].tolist() == ["dev-a", "dev-a", "dev-b"]

    def test_bad_port_skipped_with_warning(self, tmp_path, caplog):
        path = _write(tmp_path, [
            "1.0,1234,443,1,0,tcp,100,out,dev-a\n",
            "2.0,70000,443,1,0,tcp,100,out,dev-a\n",
            "3.0,1234,443,1,0,tcp,100,out,dev-a\n",
        ])
        with caplog.at_level("WARNING", logger="zest.ingest"):
            records = parse_packet_csv(path)
        assert len(records) == 2
        assert any("skipped" in m for m in caplog.messages)

    def test_size_beyond_int64_skipped_with_warning(self, tmp_path, caplog):
        path = _write(tmp_path, [
            "1.0,1234,443,1,0,tcp,99999999999999999999,out,dev-a\n",
            "2.0,1234,443,1,0,tcp,100,out,dev-a\n",
        ])
        with caplog.at_level("WARNING", logger="zest.ingest"):
            packets = parse_packet_csv(path)
        assert packets["size"].tolist() == [100]
        assert any(f"{path}:2 skipped: packet size" in m
                   for m in caplog.messages)

    def test_clean_file_skips_the_row_rules(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_bytes(HEADER.encode() + b"".join(
            b'%d.5,80,443,1,0,"TCP",9,In,cam#2\r\n' % i for i in range(5)))
        monkeypatch.setattr(ingest, "_parse_row", lambda row: pytest.fail(
            "a clean file went through the row rules"))
        packets = parse_packet_csv(path)
        assert packets["proto"].tolist() == [PROTO_CODES["tcp"]] * 5
        assert packets["direction"].tolist() == [DIRECTION_CODES["in"]] * 5
        assert packets.dtype["device_id"] == np.dtype("U5")

    def test_header_only_gives_empty_list(self, tmp_path):
        path = _write(tmp_path, [])
        assert len(parse_packet_csv(path)) == 0

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_packet_csv(tmp_path / "nope.csv")

    def test_header_mismatch_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_packet_csv(path)

    def test_too_many_bad_rows_aborts(self, tmp_path):
        good = ["%d.0,1,443,1,0,tcp,9,out,d\n" % i for i in range(300)]
        bad = ["1.0,70000,443,1,0,tcp,9,out,d\n"] * 5
        path = _write(tmp_path, good + bad)
        with pytest.raises(ValueError, match="unparseable"):
            parse_packet_csv(path)


class TestFeaturize:
    def test_inter_arrival(self):
        rows = featurize(_packets(_record(ts=10.0), _record(ts=10.5)))
        assert rows[0, COL_INTER_ARRIVAL] == 0.0
        assert rows[1, COL_INTER_ARRIVAL] == pytest.approx(0.5)

    def test_service_port_is_lower_and_https(self):
        rows = featurize(_packets(_record(src=443, dst=51514)))
        assert rows[0, COL_PORT_CATEGORY] == ingest.PORT_CATEGORY_CODES[443]
        assert rows[0, COL_APP_PROTO] == ingest.APP_PROTO_CODES[443]

    def test_single_packet_inter_arrival_zero(self):
        rows = featurize(_packets(_record(ts=123.0)))
        assert rows.shape == (1, 8)
        assert rows[0, COL_INTER_ARRIVAL] == 0.0

    def test_unsorted_fatal(self):
        with pytest.raises(ValueError, match="sorted"):
            featurize(_packets(_record(ts=2.0), _record(ts=1.0)))

    def test_port_swap_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = int(rng.integers(0, 65536)), int(rng.integers(0, 65536))
            r1 = featurize(_packets(_record(src=a, dst=b)))
            r2 = featurize(_packets(_record(src=b, dst=a)))
            assert r1[0, COL_PORT_CATEGORY] == r2[0, COL_PORT_CATEGORY]
            assert r1[0, COL_APP_PROTO] == r2[0, COL_APP_PROTO]

    def test_port_tables_match_the_scalar_rules(self):
        def category(port):
            if port in ingest.PORT_CATEGORY_CODES:
                return ingest.PORT_CATEGORY_CODES[port]
            if port <= 1023:
                return ingest.BUCKET_WELL_KNOWN
            if port <= 49151:
                return ingest.BUCKET_REGISTERED
            return ingest.BUCKET_DYNAMIC

        ports = np.arange(65536)
        assert ingest.port_category(ports).tolist() == [
            category(p) for p in range(65536)]
        assert ingest.app_protocol(ports).tolist() == [
            ingest.APP_PROTO_CODES.get(p, ingest.APP_OTHER)
            for p in range(65536)]

    def test_all_eight_columns(self):
        rows = featurize(_packets(_record(size=321, proto="udp",
                                          direction="in")))
        assert rows.shape == (1, ingest.NUM_FEATURES)
        assert rows[0, COL_SIZE] == 321
        assert rows[0, COL_DIRECTION] == ingest.DIRECTION_CODES["in"]


class TestSegment:
    @pytest.mark.parametrize("rows,n,expected", [(450, 200, 2), (200, 200, 1),
                                                 (199, 200, 0)])
    def test_window_counts(self, rows, n, expected):
        feats = np.arange(rows * 8, dtype=np.float64).reshape(rows, 8)
        windows = segment(feats, n)
        assert windows.shape == (expected, n, 8)
        assert windows.dtype == np.float32

    def test_row_count_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rows = int(rng.integers(1, 1000))
            n = int(rng.integers(1, 300))
            feats = rng.normal(size=(rows, 8))
            windows = segment(feats, n)
            assert windows.shape[0] * windows.shape[1] == n * (rows // n)

    def test_windows_are_consecutive(self):
        feats = np.arange(400 * 8, dtype=np.float64).reshape(400, 8)
        windows = segment(feats, 200)
        np.testing.assert_array_equal(windows[0],
                                      feats[:200].astype(np.float32))
        np.testing.assert_array_equal(windows[1],
                                      feats[200:].astype(np.float32))


class TestNormalizer:
    def _x(self, matrix):
        """One sequence holding the rows of `matrix`."""
        return np.asarray(matrix, dtype=np.float32)[None]

    def test_constant_feature_maps_to_zero(self):
        feats = np.full((4, 8), 7.0)
        norm = fit_normalizer(self._x(feats))
        out = apply_normalizer(norm, self._x(feats))[0]
        np.testing.assert_array_equal(out, np.zeros((4, 8)))

    def test_identity_transform_midpoint(self):
        # port-category column passes through min-max without log1p
        feats = np.zeros((2, 8))
        feats[0, COL_PORT_CATEGORY] = 0.0
        feats[1, COL_PORT_CATEGORY] = 10.0
        norm = fit_normalizer(self._x(feats))
        probe = np.zeros((1, 8))
        probe[0, COL_PORT_CATEGORY] = 5.0
        out = apply_normalizer(norm, probe)
        assert out[0, COL_PORT_CATEGORY] == pytest.approx(0.5)

    def test_clamps_out_of_range(self):
        feats = np.zeros((2, 8))
        feats[1, COL_PORT_CATEGORY] = 10.0
        norm = fit_normalizer(self._x(feats))
        probe = np.zeros((1, 8))
        probe[0, COL_PORT_CATEGORY] = 20.0
        assert apply_normalizer(norm, probe)[0, COL_PORT_CATEGORY] == 1.0
        probe[0, COL_PORT_CATEGORY] = -4.0
        assert apply_normalizer(norm, probe)[0, COL_PORT_CATEGORY] == 0.0

    def test_own_fitting_data_lands_in_unit_interval(self):
        rng = np.random.default_rng(2)
        feats = np.abs(rng.normal(size=(50, 8))) * 100
        norm = fit_normalizer(self._x(feats))
        out = apply_normalizer(norm, self._x(feats))[0]
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_log_columns_use_log1p(self):
        feats = np.zeros((3, 8))
        feats[:, COL_SIZE] = [0.0, np.e - 1.0, np.e ** 2 - 1.0]
        norm = fit_normalizer(self._x(feats))
        out = apply_normalizer(norm, self._x(feats))[0]
        # log1p maps to [0, 1, 2]; min-max to [0, 0.5, 1]
        np.testing.assert_allclose(out[:, COL_SIZE], [0.0, 0.5, 1.0],
                                   atol=1e-6)

    def test_identity_on_renormalized_categoricals(self):
        # re-applying a normalizer fitted on its own normalized output is the
        # identity for identity-transform columns; log columns stay in [0,1]
        rng = np.random.default_rng(3)
        feats = np.abs(rng.normal(size=(40, 8))) * 10
        norm = fit_normalizer(self._x(feats))
        once = apply_normalizer(norm, self._x(feats))
        norm2 = fit_normalizer(once)
        twice = apply_normalizer(norm2, once)[0]
        identity_cols = [c for c in range(8) if c not in ingest.LOG1P_COLUMNS]
        np.testing.assert_allclose(twice[:, identity_cols],
                                   once[0][:, identity_cols],
                                   atol=1e-6)
        assert twice.min() >= 0.0 and twice.max() <= 1.0


class TestPartitionAndSplit:
    def test_sizes_and_disjoint(self):
        seen, unseen = make_partition(12, num_unseen=2, seed=0)
        assert len(seen) == 10 and len(unseen) == 2
        assert seen == sorted(seen) and unseen == sorted(unseen)
        assert all(type(c) is int for c in seen + unseen)
        assert sorted(seen + unseen) == list(range(12))

    def test_deterministic_per_seed(self):
        assert make_partition(12, 2, seed=42) == make_partition(12, 2,
                                                                seed=42)

    def test_five_seeds_all_valid_covers(self):
        partitions = [make_partition(12, 2, seed=s) for s in range(5)]
        assert len({tuple(unseen) for _, unseen in partitions}) >= 2
        for seen, unseen in partitions:
            assert sorted(seen + unseen) == list(range(12))

    def test_num_unseen_bounds(self):
        with pytest.raises(ValueError):
            make_partition(2, 2, seed=0)

    def test_split_ratios_per_device(self):
        labels = np.repeat([0, 1], 20)
        idx = split_indices(labels, seed=1)
        assert SPLIT_RATIOS == (0.6, 0.2, 0.2)
        assert [len(idx[s]) for s in ("train", "val", "test")] == [24, 8, 8]
        for subset in idx.values():
            counts = np.bincount(labels[subset], minlength=2)
            assert counts[0] == counts[1]

    def test_split_deterministic(self):
        labels = np.arange(30) % 3
        assert split_indices(labels, seed=9) == split_indices(labels, seed=9)

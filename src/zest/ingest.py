"""Packet trace ingestion as arrays: CSV parsing, per-packet raw features,
sequence segmentation, normalization, and seen/unseen device partitioning.

Canonical input is a packet metadata CSV with header
``timestamp,src_port,dst_port,src_internal,dst_internal,proto,size,direction,device_id``
(proto in {tcp,udp,other}, direction in {in,out}, booleans as 0/1).
`parse_packet_csv` reads the file once and parses it by columns: one
`np.loadtxt` call, then each rule of `_parse_row` as a whole-column mask.
Only a file with a malformed row goes through `_parse_row` line by line,
which warns about each skipped line by number and aborts above 1 %.

Packets travel as one structured array with the fields of `packet_dtype`
(proto and direction as their codes). `build_dataset` turns it into a
`Dataset`: one (P, n, f) float32 tensor of sequences and one class label per
sequence, with classes numbered by sorted device id.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_json, save_arrays, write_json

logger = logging.getLogger("zest.ingest")

CSV_HEADER = ["timestamp", "src_port", "dst_port", "src_internal",
              "dst_internal", "proto", "size", "direction", "device_id"]

NUM_FEATURES = 8
# each class's train, val and test shares of its sequences (`split_indices`)
SPLIT_RATIOS = (0.6, 0.2, 0.2)

# feature column layout
COL_SRC_INTERNAL = 0
COL_DST_INTERNAL = 1
COL_PORT_CATEGORY = 2
COL_PROTO = 3
COL_APP_PROTO = 4
COL_INTER_ARRIVAL = 5
COL_SIZE = 6
COL_DIRECTION = 7

LOG1P_COLUMNS = (COL_INTER_ARRIVAL, COL_SIZE)

# service-port categories: named well-known services, then coarse range
# buckets for everything else. The ephemeral (non-service) port is dropped,
# i.e. replaced by a constant that never reaches the feature row.
PORT_CATEGORY_CODES = {
    53: 0,     # dns
    123: 1,    # ntp
    80: 2,     # http
    443: 3,    # https
    1883: 4,   # mqtt
    5353: 5,   # mdns
    67: 6,     # dhcp
    68: 6,     # dhcp
}
BUCKET_WELL_KNOWN = 7    # 0..1023
BUCKET_REGISTERED = 8    # 1024..49151
BUCKET_DYNAMIC = 9       # >= 49152

APP_DNS, APP_NTP, APP_HTTP, APP_HTTPS, APP_MQTT, APP_OTHER = range(6)
APP_PROTO_CODES = {
    53: APP_DNS, 5353: APP_DNS, 123: APP_NTP,
    80: APP_HTTP, 443: APP_HTTPS, 1883: APP_MQTT,
}

PROTO_CODES = {"tcp": 0, "udp": 1, "other": 2}
DIRECTION_CODES = {"in": 0, "out": 1}


def packet_dtype(id_width: int = 1) -> np.dtype:
    """One packet per row; `id_width` is the length of the longest device
    id."""
    return np.dtype([("timestamp", "f8"), ("src_port", "i4"),
                     ("dst_port", "i4"), ("src_internal", "?"),
                     ("dst_internal", "?"), ("proto", "u1"), ("size", "i8"),
                     ("direction", "u1"), ("device_id", f"U{id_width}")])


def packet_array(rows: list[tuple]) -> np.ndarray:
    """A packet array from tuples in `packet_dtype` field order."""
    width = max((len(row[-1]) for row in rows), default=1)
    return np.array(rows, dtype=packet_dtype(width))


def port_category(port) -> np.ndarray:
    port = np.asarray(port)
    cat = np.select([port <= 1023, port <= 49151],
                    [BUCKET_WELL_KNOWN, BUCKET_REGISTERED], BUCKET_DYNAMIC)
    for service, code in PORT_CATEGORY_CODES.items():
        cat[port == service] = code
    return cat


def app_protocol(service_port) -> np.ndarray:
    service_port = np.asarray(service_port)
    app = np.full(service_port.shape, APP_OTHER)
    for service, code in APP_PROTO_CODES.items():
        app[service_port == service] = code
    return app


def _parse_row(row: list[str]) -> tuple:
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    ts = float(row[0])
    if not np.isfinite(ts):
        raise ValueError(f"non-finite timestamp {row[0]!r}")
    src_port, dst_port = int(row[1]), int(row[2])
    for port in (src_port, dst_port):
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} out of range")
    src_internal, dst_internal = row[3], row[4]
    if src_internal not in ("0", "1") or dst_internal not in ("0", "1"):
        raise ValueError("internal flags must be 0/1")
    proto = row[5].lower()
    if proto not in PROTO_CODES:
        raise ValueError(f"unknown proto {row[5]!r}")
    size = int(row[6])
    if not 0 <= size <= np.iinfo(np.int64).max:
        raise ValueError(f"packet size {size} out of range")
    direction = row[7].lower()
    if direction not in DIRECTION_CODES:
        raise ValueError(f"unknown direction {row[7]!r}")
    device_id = row[8]
    if not device_id:
        raise ValueError("empty device_id")
    return (ts, src_port, dst_port, src_internal == "1", dst_internal == "1",
            PROTO_CODES[proto], size, DIRECTION_CODES[direction], device_id)


def _parse_rows(path: Path, lines: list[str]) -> np.ndarray:
    """The packet array of the file at `path`, read as `lines`, by
    `_parse_row`, skipping malformed rows with a warning that names
    `path:line`."""
    rows: list[tuple] = []
    skipped = 0
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(
            f"{path}: header {header} does not match {CSV_HEADER}")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            rows.append(_parse_row(row))
        except ValueError as exc:
            skipped += 1
            logger.warning("%s:%d skipped: %s", path, line_no, exc)
    total = len(rows) + skipped
    if skipped > max(1, 0.01 * total):
        raise ValueError(
            f"{path}: {skipped}/{total} rows unparseable (limit 1%)")
    if skipped:
        logger.warning("%s: skipped %d of %d rows", path, skipped, total)
    return packet_array(rows)


def _code_column(column: np.ndarray, codes: dict) -> np.ndarray:
    """`codes.get(value.lower(), -1)` for every value; each distinct
    spelling goes through `str.lower`, as in `_parse_row`."""
    spellings, index = np.unique(column, return_inverse=True)
    return np.array([codes.get(s.lower(), -1)
                     for s in spellings.tolist()], dtype=np.int64)[index]


def _text_field(codes: dict) -> str:
    # one character wider than the longest code, so a longer value cannot
    # be cut down to a valid one
    return f"U{max(map(len, codes)) + 1}"


def _parse_columns(lines: list[str]) -> np.ndarray | None:
    """The packet array of the file read as `lines` from one `np.loadtxt`
    call and a mask per row rule of `_parse_row`, or None when any row
    breaks a rule or the file has something on which `loadtxt` and `csv`
    may disagree: a header other than `CSV_HEADER`, fewer rows than
    non-blank lines (a quoted field over more than one line), a NUL (numpy
    strips trailing NULs from strings), or a \\x1c-\\x1f separator (numpy
    strips them around numbers, `int` and `float` do not)."""
    if not lines or lines[0].rstrip("\r\n") != ",".join(CSV_HEADER):
        return None
    text = "".join(lines)
    if any(c in text for c in "\x00\x1c\x1d\x1e\x1f"):
        return None
    num_rows = (len(lines) - 1 - lines.count("\n") - lines.count("\r\n")
                - lines.count("\r"))
    if not num_rows:
        return packet_array([])
    fields = np.dtype([
        ("timestamp", "f8"), ("src_port", "i4"), ("dst_port", "i4"),
        ("src_internal", "U2"), ("dst_internal", "U2"),
        ("proto", _text_field(PROTO_CODES)), ("size", "i8"),
        ("direction", _text_field(DIRECTION_CODES)), ("device_id", "O")])
    try:
        raw = np.loadtxt(lines, dtype=fields, delimiter=",", quotechar='"',
                         comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    if len(raw) != num_rows:
        return None
    proto = _code_column(raw["proto"], PROTO_CODES)
    direction = _code_column(raw["direction"], DIRECTION_CODES)
    device_id = raw["device_id"].astype(str)  # as wide as the longest id
    valid = np.isfinite(raw["timestamp"])
    for port in (raw["src_port"], raw["dst_port"]):
        valid &= (port >= 0) & (port <= 65535)
    for flag in (raw["src_internal"], raw["dst_internal"]):
        valid &= (flag == "0") | (flag == "1")
    valid &= (proto >= 0) & (raw["size"] >= 0) & (direction >= 0)
    valid &= device_id != ""
    if not valid.all():
        return None
    packets = np.empty(num_rows, packet_dtype(
        int(np.char.str_len(device_id).max())))
    for name in ("timestamp", "src_port", "dst_port", "size"):
        packets[name] = raw[name]
    packets["device_id"] = device_id
    packets["src_internal"] = raw["src_internal"] == "1"
    packets["dst_internal"] = raw["dst_internal"] == "1"
    packets["proto"] = proto
    packets["direction"] = direction
    return packets


def parse_packet_csv(path: str | Path) -> np.ndarray:
    """A packet array in file order, skipping malformed rows with a
    warning. Aborts when more than 1% of rows (and more than one row) fail.

    The file is read once, into lines as `csv` splits them. A well-formed
    file is parsed by columns: one `np.loadtxt` call, then every rule of
    `_parse_row` as a whole-column mask. Only when any row fails (or the
    file holds something the column reader might read differently from
    `csv`) do the lines go through `_parse_row` one by one, which names
    each malformed line and applies the 1% limit."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"packet CSV not found: {path}")
    with open(path, newline="") as fh:
        lines = fh.readlines()
    packets = _parse_columns(lines)
    return _parse_rows(path, lines) if packets is None else packets


def featurize(packets: np.ndarray) -> np.ndarray:
    """Raw per-packet features for one device's packets, sorted by time.

    Columns: src_internal, dst_internal, service-port category, transport
    proto, app proto, inter-arrival time, packet size, direction.
    """
    ts = packets["timestamp"]
    gaps = np.diff(ts, prepend=ts[:1])
    if (gaps < 0).any():
        i = int(np.argmax(gaps < 0))
        raise ValueError(
            f"packets not sorted by timestamp at index {i} "
            f"(device {packets['device_id'][i]})")
    service_port = np.minimum(packets["src_port"], packets["dst_port"])
    rows = np.empty((len(packets), NUM_FEATURES), dtype=np.float64)
    rows[:, COL_SRC_INTERNAL] = packets["src_internal"]
    rows[:, COL_DST_INTERNAL] = packets["dst_internal"]
    rows[:, COL_PORT_CATEGORY] = port_category(service_port)
    rows[:, COL_PROTO] = packets["proto"]
    rows[:, COL_APP_PROTO] = app_protocol(service_port)
    rows[:, COL_INTER_ARRIVAL] = gaps
    rows[:, COL_SIZE] = packets["size"]
    rows[:, COL_DIRECTION] = packets["direction"]
    return rows


def segment(feature_rows: np.ndarray, n: int) -> np.ndarray:
    """Non-overlapping windows of n rows as a (count, n, f) float32 tensor;
    the trailing remainder is dropped."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    count, f = feature_rows.shape[0] // n, feature_rows.shape[1]
    return feature_rows[:count * n].reshape(count, n, f).astype(np.float32)


def _log1p_columns(x: np.ndarray) -> np.ndarray:
    out = x.astype(np.float64, copy=True)
    out[..., LOG1P_COLUMNS] = np.log1p(out[..., LOG1P_COLUMNS])
    return out


def fit_normalizer(x: np.ndarray) -> dict:
    """Per-feature min-max scaling, with log1p first for the heavy-tailed
    `LOG1P_COLUMNS`: {"mins", "maxs"}, the float64 ranges over every row of
    `x` (..., f). Call only on training-split data of seen devices."""
    if x.size == 0:
        raise ValueError("cannot fit normalizer on empty training data")
    t = _log1p_columns(x.reshape(-1, x.shape[-1]))
    return {"mins": t.min(axis=0), "maxs": t.max(axis=0)}


def apply_normalizer(normalizer: dict, x: np.ndarray) -> np.ndarray:
    """Scale every row of `x` (..., f) into [0, 1] as float32 by the ranges
    `fit_normalizer` returned."""
    t = _log1p_columns(x)
    mins, span = normalizer["mins"], normalizer["maxs"] - normalizer["mins"]
    scaled = np.where(span > 0, (t - mins) / np.where(span > 0, span, 1.0),
                      0.0)
    return np.clip(scaled, 0.0, 1.0).astype(np.float32)


def make_partition(num_devices: int, num_unseen: int,
                   seed: int) -> tuple[list[int], list[int]]:
    """(seen, unseen): the device classes 0..num_devices-1 split at random
    into two sorted lists, `num_unseen` of them unseen; deterministic per
    seed."""
    if not 1 <= num_unseen < num_devices:
        raise ValueError(
            f"num_unseen={num_unseen} must be in [1, {num_devices - 1}]")
    rng = np.random.default_rng(seed)
    unseen = rng.choice(num_devices, size=num_unseen, replace=False)
    return (np.setdiff1d(np.arange(num_devices), unseen).tolist(),
            sorted(unseen.tolist()))


def split_indices(labels, seed: int) -> dict[str, list[int]]:
    """Index lists for a train/val/test split of each class of `labels` (one
    per point, taken in sorted order) by SPLIT_RATIOS, shuffled within the
    class; deterministic per seed."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    out: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for label in np.unique(labels):
        group = np.flatnonzero(labels == label)
        order = group[rng.permutation(len(group))]
        m = len(group)
        i1 = int(m * SPLIT_RATIOS[0])
        i2 = int(m * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1]))
        out["train"].extend(order[:i1].tolist())
        out["val"].extend(order[i1:i2].tolist())
        out["test"].extend(order[i2:].tolist())
    return out


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Segmented raw-feature sequences of every device: `features` (P, n, f)
    float32 and the class index of each sequence in `labels` (P,)."""

    features: np.ndarray
    labels: np.ndarray
    class_map: dict[str, int]
    n: int

    @property
    def device_ids(self) -> list[str]:
        return sorted(self.class_map, key=self.class_map.get)


def build_dataset(packets: np.ndarray, n: int) -> Dataset:
    """Group packets by device, sort each device's packets by time (ties
    keep file order), featurize, segment, and assign class indices by
    sorted device id."""
    devices, codes = np.unique(packets["device_id"], return_inverse=True)
    order = np.lexsort((packets["timestamp"], codes))
    bounds = np.searchsorted(codes[order], np.arange(len(devices) + 1))
    windows = [segment(featurize(packets[order[a:b]]), n)
               for a, b in zip(bounds[:-1], bounds[1:])]
    features = np.concatenate(
        [np.zeros((0, n, NUM_FEATURES), dtype=np.float32), *windows])
    labels = np.repeat(np.arange(len(devices), dtype=np.int64),
                       [len(w) for w in windows])
    return Dataset(features=features, labels=labels,
                   class_map={str(dev): i for i, dev in enumerate(devices)},
                   n=n)


def save_dataset(dataset: Dataset, npz_path: str | Path,
                 manifest_path: str | Path) -> None:
    save_arrays(npz_path, features=dataset.features, labels=dataset.labels)
    write_json(manifest_path, {
        "n": dataset.n,
        "f": dataset.features.shape[2],
        "num_points": len(dataset.labels),
        "class_map": dataset.class_map,
    })


def load_dataset(npz_path: str | Path, manifest_path: str | Path) -> Dataset:
    manifest = read_json(manifest_path)
    with np.load(npz_path) as data:
        # np.load hands out a reshaped view; the copy owns its memory
        features, labels = data["features"].copy(), data["labels"]
    return Dataset(features=features, labels=labels,
                   class_map={k: int(v)
                              for k, v in manifest["class_map"].items()},
                   n=manifest["n"])

"""Property tests of the data path (CSV parsing, featurize and segment,
normalization, splits, the dataset round trip), of the metrics (k-means
inertia and the evaluation report's confusion matrix), of the downstream
models against scalar references (the flat forest's vote and the all-class
SVM fit) and of the settings classes' field checks."""

import contextlib
import csv
import dataclasses
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zest.baselines import kmeans
from zest.classifier import SvmConfig, evaluate, train_svm
from zest.cvae import CvaeConfig
from zest.forest import RandomForest
from zest.ingest import (COL_INTER_ARRIVAL, CSV_HEADER, NUM_FEATURES,
                         Dataset, apply_normalizer, featurize,
                         fit_normalizer, load_dataset, packet_array,
                         packet_dtype, parse_packet_csv, save_dataset,
                         segment, split_indices)
from zest.pipeline import ExperimentConfig
from zest.sane import SaneConfig
from zest.synth import DeviceProfile, preset_profiles

GOOD_ROW = "{i}.5,51514,443,1,0,tcp,90,out,dev-{d}\n"
BAD_ROWS = ["1.0,70000,443,1,0,tcp,9,out,d\n",    # port out of range
            "1.0,1,443,1,0,icmp,9,out,d\n",       # unknown proto
            "1.0,1,443,2,0,tcp,9,out,d\n",        # flag not 0/1
            "1.0,1,443,1,0,tcp,-3,out,d\n",       # negative size
            "nan,1,443,1,0,tcp,9,out,d\n",        # non-finite timestamp
            "1.0,1,443,1,0,tcp,9,out\n"]          # missing field


@contextlib.contextmanager
def _scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@contextlib.contextmanager
def _line_warnings():
    """Messages of the per-row skip warnings logged while the block runs."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("zest.ingest")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


@settings(max_examples=60, deadline=None)
@given(good=st.integers(0, 400), bad=st.lists(st.sampled_from(BAD_ROWS),
                                              max_size=8),
       data=st.data())
def test_parse_skips_up_to_one_percent(good, bad, data):
    rows = [GOOD_ROW.format(i=i, d=i % 3) for i in range(good)]
    for row in bad:
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    limit = max(1, 0.01 * (good + len(bad)))
    with _scratch() as tmp, _line_warnings() as messages:
        path = tmp / "trace.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "".join(rows))
        if len(bad) > limit:
            with pytest.raises(ValueError, match="unparseable"):
                parse_packet_csv(path)
            return
        packets = parse_packet_csv(path)
    assert len(packets) == good
    assert packets["timestamp"].tolist() == [i + 0.5 for i in range(good)]
    assert sum(":" in m and "skipped:" in m for m in messages) == len(bad)


def _row_rules_parse(path):
    """A copy of the row-by-row parser, the reference the column reader
    must match: the packets (None when it aborts) and the line numbers it
    skips."""
    protos, directions = {"tcp": 0, "udp": 1, "other": 2}, {"in": 0, "out": 1}

    def parse_row(row):
        if len(row) != 9:
            raise ValueError
        ts = float(row[0])
        if not np.isfinite(ts):
            raise ValueError
        src_port, dst_port = int(row[1]), int(row[2])
        if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
            raise ValueError
        if row[3] not in ("0", "1") or row[4] not in ("0", "1"):
            raise ValueError
        proto, size, direction = row[5].lower(), int(row[6]), row[7].lower()
        if (proto not in protos or not 0 <= size < 2 ** 63
                or direction not in directions):
            raise ValueError
        if not row[8]:
            raise ValueError
        return (ts, src_port, dst_port, row[3] == "1", row[4] == "1",
                protos[proto], size, directions[direction], row[8])

    rows, skipped = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == CSV_HEADER
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append(parse_row(row))
            except ValueError:
                skipped.append(line_no)
    if len(skipped) > max(1, 0.01 * (len(rows) + len(skipped))):
        return None, skipped
    width = max((len(row[-1]) for row in rows), default=1)
    return np.array(rows, dtype=packet_dtype(width)), skipped


_PLAIN = ["1.5", "80", "443", "1", "0", "tcp", "90", "out", "dev-1"]
# per column, spellings on which the row rules (`csv` with `int`, `float`
# and `str.lower`) and `np.loadtxt` may part ways: some the rules accept
# and loadtxt rejects or reads otherwise, some the rules reject and loadtxt
# reads without complaint
_ODD = [
    ["5.0", "1_000.5", " 1.5 ", "+2", ".5", "1.", "1e3", "-0.0", "1e-320",
     "\xa01.5", "١.5", "nan", "inf", "-Infinity", "1e400", "", "x",
     "\x1c1.5", "1.5\x1f", "0x1p3", "1.5\x00"],
    ["0", "65535", " 80 ", "+80", "080", "1_000", "٣", "-1", "65536", "5.0",
     "\x1d80", "80\x1e", "99999999999", "0x50", ""],
    ["\t53\t", "-0", "5_3", "-3", "1e2", "8 0", "\x1c53", "53\x00"],
    [" 1", "1 ", "01", "2", "", "1\x00", "true", "10"],
    ["0 ", "\x1f1", "00", "0\x00", "1"],
    ["TCP", "Udp", "oTHer", "tcp ", " udp", "icmp", "", "tcp\x00", "otherx",
     "othe", "İcp", "udp\x1c"],
    ["0", "9223372036854775807", "9223372036854775808", " 7 ", "+0",
     "1_000", "٧", "-3", "5.0", "9e2", "\x1f7", "-1_0", "7\x00"],
    ["IN", "Out", "iN", "İn", "in ", "inn", "", "ou", "o\x00ut", "out\x00",
     "ın", "outx"],
    ["cam#2", "c\xe2m", "a,b", 'a"b', '"', " d", "d ", "x" * 70, "d\x1c",
     "\x00", "dev\x00", "a\nb", "a\r\nb", "a\rb", "#", "İn", ""],
]
_SHAPES = ["", " ", "\t", "\x0c", "\r", ",".join(_PLAIN[:8]),
           ",".join(_PLAIN) + ",", ",".join(_PLAIN) + ",x"]


def _quote(value):
    return '"' + value.replace('"', '""') + '"'


@st.composite
def _packet_files(draw):
    """CSV text of plain rows (all fields quoted, or none), some of which
    carry one odd spelling in the same column or have one odd shape:
    blank or whitespace lines, a field short or over. Lines end in LF or
    CRLF, and the last may leave a quote open."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    plain = [_quote(v) for v in _PLAIN] if draw(st.booleans()) else _PLAIN
    column, value = draw(st.sampled_from(
        [(c, v) for c, values in enumerate(_ODD) for v in values]
        + [(9, shape) for shape in _SHAPES] + [(8, None)] * 5))
    if column == 9:
        odd = value
    else:
        if value is None:
            value = draw(st.text(max_size=9))
        if draw(st.booleans()):
            value = _quote(value)
        odd = ",".join([*plain[:column], value, *plain[column + 1:]])
    rows = draw(st.integers(0, 150))
    lines = [",".join(CSV_HEADER)] + [",".join(plain)] * rows
    for _ in range(draw(st.sampled_from([0, 1, 2, 5, 40])) if rows else 0):
        lines[draw(st.integers(1, rows))] = odd
    if draw(st.integers(0, 9)) == 0:
        lines.append(",".join(_PLAIN[:8]) + ',"dev'
                     + draw(st.sampled_from(["", eol, eol + eol])))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _one_odd_row(row, plain_rows=150):
    plain = ",".join(_PLAIN) + "\n"
    return ",".join(CSV_HEADER) + "\n" + row + "\n" + plain * plain_rows


@settings(max_examples=300, deadline=None)
@given(text=_packet_files())
# for each check of the column reader, a file that needs it; the generator
# draws each of these too, though not in every run
@example(text=_one_odd_row("1.5,80,443,1,0,tcp,90,out,cam#2"))
@example(text=_one_odd_row("1.5,80,443,1,0,tcp,90,out," + "x" * 70))
@example(text=_one_odd_row("1.5,80,443,1,0,tcp,90,out,"))
@example(text=_one_odd_row('1.5,80,443,1,0,tcp,90,out,"a\nb"'))
@example(text=_one_odd_row('1.5,80,443,1,0,tcp,90,out,"a\rb"'))
@example(text=_one_odd_row("1.5,80,443,10,0,tcp,90,out,d"))
@example(text=_one_odd_row("1.5,80,443,1,0,otherx,90,out,d"))
@example(text=_one_odd_row("1.5,80,443,1,0,tcp\x00,90,out,d"))
@example(text=_one_odd_row("1.5,\x1d80,443,1,0,tcp,90,out,d"))
@example(text=_one_odd_row("nan,80,443,1,0,tcp,90,out,d"))
def test_parse_matches_the_row_rules(text):
    with _scratch() as tmp, _line_warnings() as messages:
        path = tmp / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        expected, skipped = _row_rules_parse(path)
        if expected is None:
            with pytest.raises(ValueError, match="unparseable"):
                parse_packet_csv(path)
        else:
            packets = parse_packet_csv(path)
            assert packets.dtype == expected.dtype
            assert packets.tobytes() == expected.tobytes()
    warned = [int(m.group(1)) for m in
              (re.match(r".*:(\d+) skipped: ", m) for m in messages) if m]
    assert warned == skipped


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(0, 1e4), max_size=300),
       ports=st.data(), n=st.integers(1, 40))
def test_featurize_then_segment(gaps, ports, n):
    ts = 1_700_000_000.0 + np.cumsum([0.0, *gaps])
    rows = len(ts)
    src = ports.draw(st.lists(st.integers(0, 65535), min_size=rows,
                              max_size=rows))
    packets = packet_array([(t, s, 443, True, False, 0, 60, 1, "d")
                            for t, s in zip(ts.tolist(), src)])
    features = featurize(packets)
    windows = segment(features, n)
    assert windows.shape == (rows // n, n, NUM_FEATURES)
    np.testing.assert_array_equal(
        windows.reshape(-1, NUM_FEATURES),
        features[:rows // n * n].astype(np.float32))
    assert (features[:, COL_INTER_ARRIVAL] >= 0).all()
    assert features[0, COL_INTER_ARRIVAL] == 0.0


_tensors = arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 6),
                                        st.just(NUM_FEATURES)),
                  elements=st.floats(0, 1e6, width=32))


@settings(max_examples=60, deadline=None)
@given(fit=_tensors, x=_tensors)
def test_normalizer_is_per_sequence_and_in_unit_interval(fit, x):
    norm = fit_normalizer(fit)
    out = apply_normalizer(norm, x)
    assert out.dtype == np.float32 and out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    np.testing.assert_array_equal(
        out, np.stack([apply_normalizer(norm, seq) for seq in x]))


@given(labels=st.lists(st.integers(0, 5), max_size=200),
       seed=st.integers(0, 2**32 - 1))
def test_split_indices_partition_every_index(labels, seed):
    splits = split_indices(labels, seed=seed)
    parts = [set(splits[name]) for name in ("train", "val", "test")]
    assert sum(len(p) for p in parts) == len(labels)
    assert set().union(*parts) == set(range(len(labels)))


@settings(max_examples=40, deadline=None)
@given(features=arrays(np.float32, st.tuples(st.integers(0, 5),
                                             st.integers(1, 4),
                                             st.just(NUM_FEATURES))),
       data=st.data())
def test_dataset_round_trip_is_exact(features, data):
    labels = np.asarray(data.draw(st.lists(
        st.integers(0, 2), min_size=len(features), max_size=len(features))),
        dtype=np.int64)
    dataset = Dataset(features=features, labels=labels,
                      class_map={"a": 0, "b": 1, "c": 2},
                      n=features.shape[1])
    with _scratch() as tmp:
        save_dataset(dataset, tmp / "d.npz", tmp / "d.json")
        loaded = load_dataset(tmp / "d.npz", tmp / "d.json")
    assert loaded.features.base is None
    assert loaded.features.dtype == np.float32
    np.testing.assert_array_equal(loaded.features, features)
    np.testing.assert_array_equal(loaded.labels, labels)
    assert (loaded.class_map, loaded.n) == (dataset.class_map, dataset.n)


_coords = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                    st.floats(-50, 50))


@settings(max_examples=80, deadline=None)
@given(points=arrays(np.float64, st.tuples(st.integers(1, 30),
                                           st.integers(1, 3)),
                     elements=_coords),
       data=st.data())
def test_kmeans_inertia_never_rises(points, data):
    k = data.draw(st.integers(1, min(len(points), 5)))
    seeded = data.draw(st.booleans())
    # seeded centres anywhere in the box, so clusters can start empty
    init = (data.draw(arrays(np.float64, (k, points.shape[1]),
                             elements=_coords)) if seeded else None)
    result = kmeans(points, k, init=init, seed=data.draw(st.integers(0, 99)))
    history = np.asarray(result.inertia_history)
    assert len(history) == result.n_iter >= 1
    # exact arithmetic never rises; allow for rounding in the centre means
    assert (np.diff(history) <= 1e-9 * np.maximum(1.0, history[:-1])).all()
    assert result.inertia == history[-1]


@given(labels=st.lists(st.integers(-5, 50), min_size=1, max_size=6,
                       unique=True),
       data=st.data())
def test_confusion_rows_sum_to_class_counts(labels, data):
    size = data.draw(st.integers(1, 60))
    y_true = np.asarray(data.draw(st.lists(st.sampled_from(labels),
                                           min_size=size, max_size=size)),
                        dtype=np.int64)
    # predictions may fall outside the label set
    y_pred = np.asarray(data.draw(st.lists(
        st.one_of(st.sampled_from(labels), st.integers(-10, 60)),
        min_size=size, max_size=size)), dtype=np.int64)
    confusion = np.asarray(evaluate("gzsl", y_true, y_pred,
                                    labels)["confusion"])
    k = len(labels)
    outside = ~np.isin(y_pred, labels)
    assert confusion.shape == (k, k + int(outside.any()))
    np.testing.assert_array_equal(confusion.sum(axis=1),
                                  [(y_true == c).sum() for c in labels])
    assert confusion[:, k:].sum() == outside.sum()
    assert np.trace(confusion) == (y_true == y_pred).sum()


def _walk(forest: RandomForest, root: int, row: np.ndarray) -> int:
    node = root
    while forest.feature[node] >= 0:
        node = (forest.left[node]
                if row[forest.feature[node]] <= forest.threshold[node]
                else forest.right[node])
    return int(forest.label[node])


# split thresholds fall half-way between training values, so queries that
# hit a threshold exactly test the `<=` branch
_train_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
_query_values = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0,
                                 1.5, 2.0, 3.0])


@settings(max_examples=80, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
                elements=_train_values),
       data=st.data())
def test_forest_vote_equals_scalar_walk(x, data):
    y = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=len(x),
                                      max_size=len(x))))
    forest = RandomForest(n_trees=data.draw(st.integers(1, 4)),
                          max_depth=data.draw(st.integers(0, 4)),
                          seed=data.draw(st.integers(0, 99))).fit(x, y)
    query = data.draw(arrays(np.float64, (data.draw(st.integers(1, 20)),
                                          x.shape[1]),
                             elements=_query_values))
    # one vote per tree, ties to the lowest label
    expected = [np.bincount([_walk(forest, r, row) for r in forest.roots],
                            minlength=forest.num_classes).argmax()
                for row in query]
    np.testing.assert_array_equal(forest.predict(query), expected)


def _fit_binary(x, y_signed, c_reg, epochs, lr):
    """One class at a time: full-batch subgradient descent with 1/t decay,
    keeping the iterate with the lowest objective."""

    def objective(w, b):
        margins = np.maximum(0.0, 1.0 - y_signed * (x @ w + b))
        return 0.5 * float(w @ w) + c_reg * float(margins.mean())

    w, b = np.zeros(x.shape[1]), 0.0
    best = (objective(w, b), w.copy(), b)
    n = x.shape[0]
    for t in range(1, epochs + 1):
        active = 1.0 - y_signed * (x @ w + b) > 0
        grad_w = w - c_reg * (y_signed[active, None] * x[active]).sum(
            axis=0) / n
        grad_b = -c_reg * y_signed[active].sum() / n
        w = w - lr / t * grad_w
        b = b - lr / t * grad_b
        if objective(w, b) < best[0]:
            best = (objective(w, b), w.copy(), b)
    return best[1], best[2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_svm_fits_each_class_like_one_binary_fit(data):
    n, dim = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 4))
    num_classes = data.draw(st.integers(1, min(n, 5)))
    # multiples of 1/16: the gradient sums are exact in any order
    x = data.draw(arrays(np.float64, (n, dim),
                         elements=st.integers(-64, 64).map(lambda v: v / 16)))
    y = np.asarray(data.draw(st.permutations(
        [i % num_classes for i in range(n)])))
    c_reg = data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    lr = data.draw(st.sampled_from([0.05, 0.5, 1.0, 2.0]))
    epochs = data.draw(st.integers(1, 40))
    model = train_svm(x, y, SvmConfig(c_reg=c_reg, epochs=epochs, lr=lr))
    assert model["classes"].tolist() == list(range(num_classes))
    for row, cls in enumerate(model["classes"]):
        w, b = _fit_binary(x, np.where(y == cls, 1.0, -1.0), c_reg, epochs,
                           lr)
        # the margins are summed in another order: allow float64 rounding
        np.testing.assert_allclose(model["weights"][row], w, rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(model["biases"][row], b, rtol=1e-12,
                                   atol=1e-15)


# a valid instance of every settings class; a profile is checked when
# traffic is generated from it
_SETTINGS = {SaneConfig: SaneConfig(), CvaeConfig: CvaeConfig(),
             SvmConfig: SvmConfig(), ExperimentConfig: ExperimentConfig("x"),
             DeviceProfile: preset_profiles("hard-12")[0]}


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       value=st.one_of(st.integers(), st.floats(), st.booleans(), st.text(),
                       st.just(float("nan")), st.just(float("inf")),
                       st.integers(max_value=-1), st.floats(max_value=-1e-3),
                       st.none()))
def test_settings_field_holds_its_kind_or_is_named(data, value):
    cls = data.draw(st.sampled_from(list(_SETTINGS)))
    name = data.draw(st.sampled_from(
        [f.name for f in dataclasses.fields(cls)]))
    try:
        built = dataclasses.replace(_SETTINGS[cls], **{name: value})
        if cls is DeviceProfile:
            built.validate()
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), (name, str(exc))

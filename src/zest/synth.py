"""Parameterized synthetic IoT traffic generation and a maximum-likelihood
Bayes oracle.

Each device profile draws per-packet transport protocol, service port, and
direction from categorical distributions, and packet size / inter-arrival
time from log-normals, as whole columns of one packet array (the fields of
`ingest.packet_dtype`), from a preset or a profile file (`source_profiles`).
The oracle classifies a (P, n, f) tensor of raw feature sequences under the
true generator parameters; the tests use it as the accuracy ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write, read_json
from .ingest import (CSV_HEADER, COL_DIRECTION, COL_INTER_ARRIVAL,
                     COL_PORT_CATEGORY, COL_PROTO, COL_SIZE, DIRECTION_CODES,
                     PROTO_CODES, packet_dtype, port_category)
from .params import check_fields, is_int

_EPHEMERAL_LOW = 49152
_EPHEMERAL_HIGH = 65536
_BASE_TIMESTAMP = 1_700_000_000.0
_NUM_PORT_CATEGORIES = 10


@dataclass
class DeviceProfile:
    """Generator parameters for one synthetic device."""

    device_id: str
    proto_probs: dict[str, float]       # over {"tcp", "udp", "other"}
    port_probs: dict[int, float]        # over service port numbers
    direction_probs: dict[str, float]   # over {"in", "out"}
    size_log_mean: float
    size_log_sigma: float
    iat_log_mean: float
    iat_log_sigma: float
    sessions: int = 60
    packets_per_session: int = 200

    def validate(self) -> None:
        try:
            check_fields(self, {"size_log_mean": None, "iat_log_mean": None})
        except ValueError as exc:
            raise ValueError(f"{self.device_id}: {exc}") from None
        for name, probs, keys in (("proto", self.proto_probs, PROTO_CODES),
                                  ("port", self.port_probs, None),
                                  ("direction", self.direction_probs,
                                   DIRECTION_CODES)):
            for k in probs:
                if not (k in keys if keys else is_int(k) and 0 <= k < 2 ** 16):
                    want = f"one of {list(keys)}" if keys else "a port number"
                    raise ValueError(f"{self.device_id}: {name}_probs key "
                                     f"{k!r} is not {want}")
            total = sum(probs.values())
            if (abs(total - 1.0) > 1e-9
                    or any(not p >= 0 for p in probs.values())):
                raise ValueError(
                    f"{self.device_id}: {name} probabilities sum to {total}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_records(profiles: list[DeviceProfile],
                     seed: int) -> np.ndarray:
    """A packet array of every device's packets, devices in sorted order,
    with per-device derived seeds and monotone timestamps; deterministic per
    seed."""
    if len(profiles) < 2:
        raise ValueError("need at least 2 profiles")
    dtype = packet_dtype(max(len(p.device_id) for p in profiles))
    parts = []
    for dev_idx, profile in enumerate(sorted(profiles,
                                             key=lambda p: p.device_id)):
        profile.validate()
        rng = np.random.default_rng([seed, dev_idx])
        count = profile.sessions * profile.packets_per_session

        protos = rng.choice([PROTO_CODES[k] for k in profile.proto_probs],
                            p=list(profile.proto_probs.values()), size=count)
        ports = rng.choice(list(profile.port_probs),
                           p=list(profile.port_probs.values()), size=count)
        directions = rng.choice(
            [DIRECTION_CODES[k] for k in profile.direction_probs],
            p=list(profile.direction_probs.values()), size=count)
        sizes = np.maximum(
            1, np.round(rng.lognormal(profile.size_log_mean,
                                      profile.size_log_sigma, size=count))
        ).astype(np.int64)
        iats = rng.lognormal(profile.iat_log_mean, profile.iat_log_sigma,
                             size=count)
        ephemerals = rng.integers(_EPHEMERAL_LOW, _EPHEMERAL_HIGH, size=count)

        outbound = directions == DIRECTION_CODES["out"]
        packets = np.empty(count, dtype=dtype)
        packets["timestamp"] = _BASE_TIMESTAMP + np.cumsum(iats)
        packets["src_port"] = np.where(outbound, ephemerals, ports)
        packets["dst_port"] = np.where(outbound, ports, ephemerals)
        packets["src_internal"] = outbound
        packets["dst_internal"] = ~outbound
        packets["proto"] = protos
        packets["size"] = sizes
        packets["direction"] = directions
        packets["device_id"] = profile.device_id
        parts.append(packets)
    return np.concatenate(parts)


def write_csv(packets: np.ndarray, path: str | Path) -> None:
    protos, directions = list(PROTO_CODES), list(DIRECTION_CODES)
    with atomic_write(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for ts, src, dst, src_in, dst_in, proto, size, direction, device \
                in packets.tolist():
            fh.write(f"{ts:.6f},{src},{dst},{src_in:d},{dst_in:d},"
                     f"{protos[proto]},{size},{directions[direction]},"
                     f"{device}\n")


def generate_csv(profiles: list[DeviceProfile], seed: int,
                 path: str | Path) -> None:
    write_csv(generate_records(profiles, seed), path)


# ---------------------------------------------------------------------------
# Bayes oracle
# ---------------------------------------------------------------------------

def _profile_log_tables(profile: DeviceProfile) -> dict:
    p_cat = np.zeros(_NUM_PORT_CATEGORIES)
    for port, p in profile.port_probs.items():
        p_cat[port_category(port)] += p
    p_proto = np.zeros(len(PROTO_CODES))
    for proto, p in profile.proto_probs.items():
        p_proto[PROTO_CODES[proto]] = p
    p_dir = np.zeros(len(DIRECTION_CODES))
    for direction, p in profile.direction_probs.items():
        p_dir[DIRECTION_CODES[direction]] = p
    with np.errstate(divide="ignore"):
        return {
            "log_cat": np.log(p_cat),
            "log_proto": np.log(p_proto),
            "log_dir": np.log(p_dir),
            "size_mu": profile.size_log_mean,
            "size_sigma": profile.size_log_sigma,
            "iat_mu": profile.iat_log_mean,
            "iat_sigma": profile.iat_log_sigma,
        }


def _lognormal_logpdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return (-np.log(x * sigma * np.sqrt(2 * np.pi))
            - (np.log(x) - mu) ** 2 / (2 * sigma ** 2))


def _sequence_loglik(features: np.ndarray, table: dict) -> np.ndarray:
    """Log-likelihood of each raw feature sequence in `features` (P, n, f).
    The application protocol and internal flags are deterministic given the
    port category and direction, so they contribute no extra terms;
    inter-arrival entries equal to the first-packet sentinel 0 are
    skipped."""
    f = features.astype(np.float64)
    cats = f[..., COL_PORT_CATEGORY].astype(np.int64)
    protos = f[..., COL_PROTO].astype(np.int64)
    dirs = f[..., COL_DIRECTION].astype(np.int64)
    ll = (table["log_cat"][cats] + table["log_proto"][protos]
          + table["log_dir"][dirs]).sum(axis=-1)
    ll += _lognormal_logpdf(f[..., COL_SIZE], table["size_mu"],
                            table["size_sigma"]).sum(axis=-1)
    iats = f[..., COL_INTER_ARRIVAL]
    valid = iats > 0
    iat_ll = _lognormal_logpdf(np.where(valid, iats, 1.0), table["iat_mu"],
                               table["iat_sigma"])
    return ll + np.where(valid, iat_ll, 0.0).sum(axis=-1)


def oracle_predict(profiles: list[DeviceProfile],
                   features: np.ndarray) -> np.ndarray:
    """Class index (by sorted device id) with maximum log-likelihood for
    each sequence of `features` (P, n, f); ties break to the lowest
    index."""
    ordered = sorted(profiles, key=lambda p: p.device_id)
    lls = np.stack([_sequence_loglik(features, _profile_log_tables(p))
                    for p in ordered], axis=-1)
    return lls.argmax(axis=-1)


def bayes_oracle(profiles: list[DeviceProfile], features: np.ndarray,
                 labels: np.ndarray) -> float:
    """Accuracy of the true-parameter maximum-likelihood classifier; an upper
    bound (up to sampling noise) for any model on the same data."""
    return float((oracle_predict(profiles, features) == labels).mean())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def separable_profiles(sessions: int = 60,
                       packets_per_session: int = 200) -> list[DeviceProfile]:
    """Twelve devices with near-disjoint traffic signatures; the oracle and a
    trained classifier should both be near-perfect."""
    specs = [
        # (dominant port, proto mix, out prob, size log-mean, iat log-mean)
        (53, {"udp": 0.9, "tcp": 0.1}, 0.5, 4.4, -3.5),
        (443, {"tcp": 0.95, "udp": 0.05}, 0.7, 6.8, -1.0),
        (123, {"udp": 1.0}, 0.5, 4.0, 1.0),
        (1883, {"tcp": 1.0}, 0.8, 4.8, -0.5),
        (80, {"tcp": 0.9, "other": 0.1}, 0.6, 6.2, -2.0),
        (5353, {"udp": 1.0}, 0.4, 5.0, 0.0),
        (67, {"udp": 0.95, "other": 0.05}, 0.3, 5.4, 0.5),
        (8080, {"tcp": 1.0}, 0.65, 6.5, -2.5),
        (22, {"tcp": 1.0}, 0.55, 5.8, -1.5),
        (25, {"tcp": 0.8, "udp": 0.2}, 0.75, 6.0, -3.0),
        (31000, {"udp": 0.7, "tcp": 0.3}, 0.45, 4.2, -0.8),
        (990, {"tcp": 0.85, "other": 0.15}, 0.35, 7.0, 0.8),
    ]
    profiles = []
    for idx, (port, protos, p_out, size_mu, iat_mu) in enumerate(specs):
        port_probs = {port: 0.85, 53: 0.1, 123: 0.05}
        if port == 53:
            port_probs = {53: 0.95, 123: 0.05}
        elif port == 123:
            port_probs = {123: 0.9, 53: 0.1}
        profiles.append(DeviceProfile(
            device_id=f"device-{idx:02d}",
            proto_probs=_fill_protos(protos),
            port_probs=port_probs,
            direction_probs={"out": p_out, "in": 1.0 - p_out},
            size_log_mean=size_mu,
            size_log_sigma=0.35,
            iat_log_mean=iat_mu,
            iat_log_sigma=0.5,
            sessions=sessions,
            packets_per_session=packets_per_session,
        ))
    return profiles


def hard_profiles(sessions: int = 40,
                  packets_per_session: int = 200) -> list[DeviceProfile]:
    """Twelve devices drawing from a shared port pool with overlapping size
    and timing distributions; methods spread out below the oracle ceiling."""
    shared_ports = [53, 443, 80, 123, 1883, 8080]
    rng = np.random.default_rng(1234)
    profiles = []
    for idx in range(12):
        weights = rng.dirichlet(np.full(len(shared_ports), 1.2))
        port_probs = {p: float(w) for p, w in zip(shared_ports, weights)}
        p_tcp = float(rng.uniform(0.35, 0.75))
        p_udp = float(rng.uniform(0.15, 1.0 - p_tcp - 0.05))
        p_out = float(rng.uniform(0.35, 0.65))
        profiles.append(DeviceProfile(
            device_id=f"device-{idx:02d}",
            proto_probs={"tcp": p_tcp, "udp": p_udp,
                         "other": 1.0 - p_tcp - p_udp},
            port_probs=port_probs,
            direction_probs={"out": p_out, "in": 1.0 - p_out},
            size_log_mean=float(rng.uniform(5.0, 6.4)),
            size_log_sigma=0.8,
            iat_log_mean=float(rng.uniform(-2.0, -0.5)),
            iat_log_sigma=1.0,
            sessions=sessions,
            packets_per_session=packets_per_session,
        ))
    return profiles


def _fill_protos(partial: dict[str, float]) -> dict[str, float]:
    probs = {"tcp": 0.0, "udp": 0.0, "other": 0.0}
    probs.update(partial)
    return probs


PRESETS = {
    "separable-12": separable_profiles,
    "hard-12": hard_profiles,
}


def preset_profiles(name: str, sessions: int | None = None,
                    packets_per_session: int | None = None
                    ) -> list[DeviceProfile]:
    """The profiles of the preset `name`; None keeps the preset's default."""
    given = {"sessions": sessions, "packets_per_session": packets_per_session}
    return PRESETS[name](**{k: v for k, v in given.items() if v is not None})


def source_profiles(source: dict, packets_per_session: int | None = None
                    ) -> list[DeviceProfile]:
    """The profiles of a checked source that names a preset (and perhaps its
    sessions per device) or a file that holds a JSON list of profiles, each
    checked; an error names the device."""
    if "preset" in source:
        return preset_profiles(source["preset"], source.get("sessions"),
                               packets_per_session)
    dicts = read_json(source["profiles"])
    if not isinstance(dicts, list):
        raise ValueError(f"{source['profiles']} must hold a JSON list of "
                         f"profiles, got {type(dicts).__name__}")
    profiles = []
    for d in dicts:
        if not isinstance(d, dict):
            raise ValueError(f"a profile must be a dict, got {d!r}")
        try:
            profile = DeviceProfile(**d)
        except TypeError as exc:    # an unknown or a missing field
            raise ValueError(f"{d.get('device_id')}: {exc}") from None
        if isinstance(profile.port_probs, dict):    # JSON keys are strings
            profile.port_probs = {int(k) if str(k).isdecimal() else k: v
                                  for k, v in profile.port_probs.items()}
        profile.validate()
        profiles.append(profile)
    return profiles

"""Run one workload of the zest benchmark and print its metrics.

    python3 bench/run.py --workload long-seq --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
lines before it print each metric with its unit and which direction is
better, then the run's provenance. A full record (and, when traced, the
spans) is written under `.bench_out/`; scratch files go to `.bench_work/`
and are removed at exit. Workloads and metrics are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_blas_threads() -> None:
    """One process with one BLAS thread, so that a run does not wait on a
    second thread the host has descheduled. Must run before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the generated traffic")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import zest
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(zest.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"zest was imported from {zest.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = harness.load_spec()

    workdir = (ROOT / ".bench_work"
               / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        record = harness.run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    line = harness.result_line(record, spec, kind)
    harness.write_record(
        ROOT / ".bench_out"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        record, line)

    for name, metric in line["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']:<14} "
              f"({spec[name]['better']} is better)")
    for error in record["errors"]:
        print(f"error: {error}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

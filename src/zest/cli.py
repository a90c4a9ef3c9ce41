"""Command-line entry point for the fingerprinting pipeline.

Every experiment lives in an output directory holding config.json plus the
staged artifacts. Its config resolves in one call, from the persisted
config, the --config file, then the flags, checked after each; config.json
is written once, after the last. Each per-seed stage in `pipeline.STAGES`
gets one command (the baselines share `zest baseline NAME`); it runs
`partition` first, which is cheap and cached, then the named stage, under
the directory's lock. Commands are idempotent: re-running with an unchanged
config is a cache hit. Any other upstream artifact that is missing or does
not match its manifest is fatal, and the error names the stage to re-run.
`zest synth` checks its source by the config's rule, `pipeline.check_source`.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline as pl
from .pipeline import ExperimentConfig, RunLock, StageError, resolve_config
from .synth import generate_csv, source_profiles


def _add_outdir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--outdir", required=True,
                        help="experiment directory (holds config.json)")
    parser.add_argument("--config", help="JSON config file to merge in")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="partition seed (default: first config seed)")


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="synthetic preset name")
    parser.add_argument("--profiles", help="device profile JSON file")
    parser.add_argument("--csv", help="packet CSV path")
    parser.add_argument("--sessions", type=int,
                        help="sessions per device for synthetic sources")
    parser.add_argument("--synth-seed", type=int, default=None,
                        help="generator seed for synthetic sources")
    parser.add_argument("--n", type=int, default=None,
                        help="sequence length (packets per data point)")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of partition seeds (0..k-1)")
    parser.add_argument("--seed-list", type=int, nargs="+", default=None,
                        help="explicit partition seeds")
    parser.add_argument("--num-unseen", type=int, default=None)
    parser.add_argument("--sane", default=None,
                        help="JSON dict of feature-extractor overrides")
    parser.add_argument("--cvae", default=None,
                        help="JSON dict of generative-model overrides")
    parser.add_argument("--svm", default=None,
                        help="JSON dict of classifier overrides")
    parser.add_argument("--pseudo-k", type=int, default=None,
                        help="pseudo samples per class")


def build_parser() -> argparse.ArgumentParser:
    epilog = ["per-seed stages, in dependency order (each command runs "
              "partition first):"]
    epilog += [f"  {stage.name.replace('baseline-', 'baseline ', 1):<16} "
               f"{stage.help}" for stage in pl.STAGES.values()]
    parser = argparse.ArgumentParser(
        prog="zest",
        description="Zero-shot IoT device fingerprinting pipeline",
        epilog="\n".join(epilog),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic packet CSV")
    p.add_argument("--preset", help="preset name (e.g. separable-12)")
    p.add_argument("--profiles", help="device profile JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, dest="synth_seed", metavar="SEED")
    p.add_argument("--sessions", type=int, default=None)
    p.add_argument("--packets-per-session", type=int)

    p = sub.add_parser("ingest", help="build the segmented dataset")
    _add_outdir(p)
    _add_source_flags(p)
    _add_config_flags(p)
    p.set_defaults(run=_ingest)

    for stage in pl.STAGES.values():
        if stage.name.startswith("baseline-"):
            continue   # the baselines share `zest baseline NAME`
        p = sub.add_parser(stage.name, help=stage.help)
        _add_outdir(p)
        _add_seed(p)
        _add_config_flags(p)
        p.set_defaults(run=_stage)

    p = sub.add_parser("baseline", help="run one comparison pipeline")
    p.add_argument("name", choices=sorted(pl.BASELINE_NAMES))
    _add_outdir(p)
    _add_seed(p)
    p.set_defaults(run=_stage)

    p = sub.add_parser("pipeline", help="run every stage over all seeds")
    _add_outdir(p)
    _add_source_flags(p)
    _add_config_flags(p)
    p.set_defaults(run=_pipeline)

    p = sub.add_parser("sweep", help="sweep one parameter over values")
    p.add_argument("param", choices=sorted(pl.SWEEP_PARAMS))
    p.add_argument("values", nargs="+")
    _add_outdir(p)
    _add_source_flags(p)
    _add_config_flags(p)
    p.set_defaults(run=_sweep)

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config fields the flags set; an empty string sets nothing."""
    given = {k: v for k, v in vars(args).items() if v is not None and v != ""}
    overrides = {key: given[key] for key in ("n", "num_unseen", "pseudo_k")
                 if key in given}
    overrides["source"] = {key: given[flag] for flag, key in (
        ("preset", "preset"), ("profiles", "profiles"), ("csv", "csv"),
        ("sessions", "sessions"), ("synth_seed", "seed")) if flag in given}
    if "seed_list" in given:
        overrides["seeds"] = given["seed_list"]
    elif "seeds" in given:
        overrides["seeds"] = list(range(given["seeds"]))
    for section in pl.MODEL_SECTIONS:
        if section in given:
            try:
                overrides[section] = json.loads(given[section])
            except ValueError as exc:
                raise ValueError(f"--{section} takes a JSON dict: "
                                 f"{exc}") from None
    return overrides


def _synth(args: argparse.Namespace) -> None:
    source = _overrides_from_args(args)["source"]
    if ("preset" in source) == ("profiles" in source):
        raise ValueError("exactly one of --preset and --profiles is needed")
    if (pl.check_source(source) == "profiles"
            and args.packets_per_session is not None):
        raise ValueError("--packets-per-session means nothing for a "
                         "profiles source, whose profiles set their own")
    generate_csv(source_profiles(source, args.packets_per_session),
                 seed=source.get("seed", 0), path=args.out)
    print(f"wrote {args.out}")


def _ingest(args: argparse.Namespace, config: ExperimentConfig) -> None:
    manifest = pl.stage_ingest(config)
    print(f"dataset: {manifest['num_points']} sequences, "
          f"{len(manifest['class_map'])} devices")


def _stage(args: argparse.Namespace, config: ExperimentConfig) -> None:
    """Run partition, then the named per-seed stage."""
    name = (f"baseline-{args.name}" if args.command == "baseline"
            else args.command)
    seed = args.seed if args.seed is not None else config.seeds[0]
    if name != "partition":
        pl.run_stage("partition", config, seed)
    pl.run_stage(name, config, seed)
    method = pl.STAGES[name].method
    if method:
        for setting, report in pl.read_reports(config, seed, method).items():
            print(f"{method} {setting}: accuracy {report['accuracy']:.4f} "
                  f"(n={report['num_test']})")


def _pipeline(args: argparse.Namespace, config: ExperimentConfig) -> None:
    pl.run_pipeline(config)
    print((Path(config.outdir) / "report.txt").read_text(), end="")


def _sweep(args: argparse.Namespace, config: ExperimentConfig) -> None:
    pl.run_sweep(config, args.param, args.values)
    print(f"sweep written to "
          f"{Path(config.outdir) / f'sweep-{args.param}' / 'sweep.csv'}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, "
                             f"got {args.seed}")
        if args.command == "synth":
            _synth(args)
        else:
            config = resolve_config(
                args.outdir, *([args.config] if args.config else []),
                _overrides_from_args(args))
            with RunLock(config.outdir):
                args.run(args, config)
    except StageError as exc:
        print(f"[{exc.stage}] error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"[{args.command}] error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

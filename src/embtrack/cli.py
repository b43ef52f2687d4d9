"""Command line interface: embtrack gen | run | eval.

Configuration comes from an optional YAML file; command-line flags override
file values. run and eval take the dataset section from the dataset's
manifest, and eval takes the run section from the results'
run_manifest.json. Exit codes: 0 success, 2 configuration error, 3 data
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .experiment import (
    ConfigError,
    DataError,
    ExperimentConfig,
    cmd_eval,
    cmd_gen,
    cmd_run,
)
from .reassignment import BEAMFORMERS, NOISE_COV_SOURCES, TRACKER_VARIANTS
from .scene import SEPARATION_REGIMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    doc: dict = {}
    if path is not None:
        try:
            loaded = yaml.safe_load(Path(path).read_text())
        except (yaml.YAMLError, UnicodeDecodeError, OSError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a mapping")
        doc = loaded
    for dotted, value in overrides.items():
        if value is None:
            continue
        target = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"config section {key!r} must be a mapping, not {target!r}")
        target[leaf] = value
    return ExperimentConfig.from_dict(doc)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--workers", type=int, help="parallel scene workers")


def _common_overrides(args: argparse.Namespace) -> dict:
    return {"master_seed": args.seed, "workers": args.workers}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embtrack",
        description="Speaker tracking with embedding-based identity reassignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic scene dataset")
    _add_common(gen)
    gen.add_argument("--out", required=True, help="dataset output directory")
    gen.add_argument("--count", type=int, help="number of scenes")
    gen.add_argument("--regime", choices=list(SEPARATION_REGIMES), help="separation regime")
    gen.add_argument("--duration", type=float, help="scene duration in seconds")
    gen.add_argument("--snr", type=float, help="mixture SNR in dB")
    gen.add_argument("--static", action="store_true", help="disable jumps during silence")

    run = sub.add_parser("run", help="run the reassignment pipeline over a dataset")
    _add_common(run)
    run.add_argument("--dataset", required=True, help="dataset directory from gen")
    run.add_argument("--out", required=True, help="results output directory")
    run.add_argument("--tracker", choices=TRACKER_VARIANTS, help="observation front-end")
    run.add_argument("--beamformers", help="comma list: " + ",".join(BEAMFORMERS))
    run.add_argument("--durations", help="comma list of prefix ms or 'whole'")
    run.add_argument("--enrollment-sizes", help="comma list of pool sizes M")
    run.add_argument("--noise-cov", choices=NOISE_COV_SOURCES, help="MVDR covariance source")

    ev = sub.add_parser("eval", help="evaluate results into a metrics report")
    _add_common(ev)
    ev.add_argument("--dataset", required=True, help="dataset directory from gen")
    ev.add_argument("--results", required=True, help="results directory from run")
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--per-scene-csv", help="optional per-scene CSV path")
    ev.add_argument("--trend-csv", help="optional AssA trend CSV path")
    ev.add_argument("--alpha", type=float, help="matching threshold in degrees")
    return parser


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma list of integers, got {text!r}") from None


def _csv_strs(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _common_overrides(args)
        if args.command == "gen":
            overrides.update(
                {
                    "dataset.count": args.count,
                    "dataset.regime": args.regime,
                    "dataset.duration": args.duration,
                    "dataset.snr": args.snr,
                    "dataset.jump_on_silence": False if args.static else None,
                }
            )
            cfg = _load_config(args.config, overrides)
            manifest = cmd_gen(cfg, args.out)
            print(f"wrote {manifest}")
        elif args.command == "run":
            overrides.update(
                {
                    "run.tracker": args.tracker,
                    "run.beamformers": _csv_strs(args.beamformers) if args.beamformers else None,
                    "run.durations": _csv_strs(args.durations) if args.durations else None,
                    "run.enrollment_sizes": _csv_ints(args.enrollment_sizes)
                    if args.enrollment_sizes
                    else None,
                    "run.noise_cov": args.noise_cov,
                }
            )
            cfg = _load_config(args.config, overrides)
            manifest = cmd_run(cfg, args.dataset, args.out)
            print(f"wrote {manifest}")
        else:
            overrides.update({"eval.alpha_deg": args.alpha})
            cfg = _load_config(args.config, overrides)
            report = cmd_eval(
                cfg,
                args.results,
                args.dataset,
                args.out,
                per_scene_csv=args.per_scene_csv,
                trend_csv=args.trend_csv,
            )
            for row in report["trend"]:
                print(
                    f"{row['cell']}: AssA before {100 * row['assa_before_mean']:.1f}% "
                    f"-> after {100 * row['assa_after_mean']:.1f}%"
                )
            print(f"wrote {args.out}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for the experiment runners.

Subcommands map one-to-one onto the scenario runners; shared flags override
config-file values, and LOCSIM_SEED in the environment overrides both.

Exit codes: 0 success, 2 configuration error, 3 numerical or degeneracy
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .experiments import (
    DATA_KINDS,
    KINDS,
    ExperimentConfig,
    apply_env_seed,
    load_config,
    run_experiment,
)
from .lasso import DegeneracyError, SolverError
from .lp import LpError
from .stats_core import CovarianceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (DegeneracyError, SolverError, LpError, CovarianceError,
                     np.linalg.LinAlgError)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The locsim argument parser, built once per process and shared, so
    callers must not modify it.  Each parse_args call starts from a fresh
    namespace: no option carries over from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="locsim",
        description="Locally simultaneous inference experiment harness",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} scenario")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, help="RNG seed (u64)")
        p.add_argument("--trials", type=int, help="trials per grid point")
        p.add_argument("--alpha", type=float, help="target error level")
        p.add_argument("--nu", type=float, help="screening budget (< alpha)")
        if kind in DATA_KINDS:
            p.add_argument("--data", help="input CSV (observations or losses)")
        if kind in ("filedrawer", "filedrawer-np"):
            p.add_argument("--threshold", type=float, help="selection threshold")
        if kind == "coverage":
            p.add_argument("--problem", help="which problem to measure coverage for")
    return parser


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(kind=args.kind)
    if args.config:
        cfg = load_config(args.config, base=cfg)
        cfg = replace(cfg, kind=args.kind)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("kind", "config") and value is not None}
    return apply_env_seed(replace(cfg, **overrides))


def _print_summary(rows, out) -> None:
    for r in rows:
        bits = [r.scenario, r.method]
        if r.median_width is not None:
            bits.append(f"median_width={r.median_width:.4g}")
        if r.coverage is not None:
            bits.append(f"coverage={r.coverage:.4f}")
        print("  ".join(bits))
    if out:
        print(f"wrote {out}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        rows = run_experiment(cfg)
    except _NUMERICAL_ERRORS as exc:
        # Caught first: DegeneracyError and CovarianceError are ValueErrors.
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError and bad user inputs (malformed data files,
        # out-of-range values).
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_summary(rows, cfg.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

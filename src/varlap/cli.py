"""Experiment command line: config-driven runs writing CSV artifacts.

Subcommands mirror the experiment kinds:

    varlap weights    --config weights.json   [--out DIR] [--threads K]
    varlap apply-conv --config conv.json      [--out DIR] [--threads K]
    varlap elliptic   --config elliptic.json  [--out DIR] [--threads K]
    varlap evolve     --config evolve.json    [--out DIR] [--threads K]
    varlap bench      --config bench.json     [--out DIR] [--threads K]

Configs are JSON objects and hold every run setting, ``rank`` included;
the flags name only the files and the FFT worker count.  Every operator a
run builds is the fast one.  Exit codes: 0 success, 2 configuration error
(an ``--out`` that cannot be written included), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import scipy.fft as sfft

from . import experiments
from .errors import ConfigError, SolverFailure, VarlapError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varlap",
        description="Variable-order fractional Laplacian experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("weights", "dump a finite-difference weight table as CSV"),
        ("apply-conv", "operator convergence against the Gaussian oracle"),
        ("elliptic", "elliptic solve convergence tables"),
        ("evolve", "time-dependent runs and Richardson tables"),
        ("bench", "timing and iteration-count benchmarks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="FFT worker threads (at least 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        runner = {
            "weights": lambda: experiments.run_weights(cfg, out_dir),
            "apply-conv": lambda: experiments.run_apply_convergence(cfg, out_dir),
            "elliptic": lambda: experiments.run_elliptic(cfg, out_dir),
            "evolve": lambda: experiments.run_evolve(cfg, out_dir),
            "bench": lambda: experiments.run_bench(cfg, out_dir),
        }[args.command]
        with sfft.set_workers(args.threads):
            runner()
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VarlapError as exc:
        # every other library error is raised by a config value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the config reader raises ConfigError; any other OSError comes from
        # writing under --out, e.g. one that names an existing file
        print(f"config error: cannot write under --out {args.out}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Experiment command line: config-driven runs writing CSV artifacts.

Subcommands mirror the experiment kinds:

    varlap weights    --config weights.json   [--out DIR]
    varlap apply-conv --config conv.json      [--out DIR] [--mode fast]
    varlap elliptic   --config elliptic.json  [--out DIR]
    varlap evolve     --config evolve.json    [--out DIR]
    varlap bench      --config bench.json     [--out DIR]

Configs are JSON objects; command-line flags override the matching keys.
Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import scipy.fft as sfft

from . import experiments
from .errors import ConfigError, SolverFailure, VarlapError
from .weights import dump_csv, operator_block

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


def _run_weights(cfg: dict, out_dir: Path) -> None:
    """Write the weights the operator applies, every signed offset to n_max."""
    alpha = experiments._number(cfg, "alpha", None)
    dim = experiments._choice(cfg, "dim", (1, 2, 3), 1)
    n_max = experiments._number(cfg, "n_max", 64, int)
    experiments._check_nodes(2 * n_max + 1, dim)
    block = operator_block(alpha, dim, n_max,
                           experiments._optional_number(cfg, "quadrature", int))
    out = experiments._output(cfg, out_dir, "weights.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_csv(block, out)
    print(f"wrote {out} (alpha={alpha}, dim={dim}, offsets to {n_max})")


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
        p.add_argument("--mode", choices=["fast", "direct"],
                       help="override apply mode")
        p.add_argument("--rank", type=int, help="override low-rank term count")
        p.add_argument("--quadrature", type=int,
                       help="override weight quadrature size")
        p.add_argument("--threads", type=int, default=1,
                       help="FFT worker threads")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for key in ("mode", "rank", "quadrature"):
            val = getattr(args, key)
            if val is not None:
                cfg[key] = val
        out_dir = Path(args.out)
        runner = {
            "weights": lambda: _run_weights(cfg, out_dir),
            "apply-conv": lambda: experiments.run_apply_convergence(cfg, out_dir),
            "elliptic": lambda: experiments.run_elliptic(cfg, out_dir),
            "evolve": lambda: experiments.run_evolve(cfg, out_dir),
            "bench": lambda: experiments.run_bench(cfg, out_dir),
        }[args.command]
        with sfft.set_workers(max(1, args.threads)):
            runner()
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VarlapError as exc:
        # every other library error is raised by a config value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

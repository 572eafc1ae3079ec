"""Config-driven experiment runners producing convergence and benchmark CSVs.

Each runner takes a plain dict (usually parsed from a JSON config file),
validates it, runs the experiment, writes one CSV under the output directory,
and returns the rows it wrote.  A key that is absent or null takes its
default; any other value, false, 0 and "" included, is checked.  Error
columns follow the convergence convention: the observed order is
``log2(E(2h)/E(h))`` and is empty on the first row.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidRange, NotNested
from .grid import GridFunction, UniformGrid, build_grid, make_mask
from .lowrank import DEFAULT_RANK
from .operator import VariableOrderOperator, fit_loglog_slope, operator_timing
from .oracle import gaussian_frac_lap, manufactured_rhs_case1
from .presets import initial_condition, order_field, parse_predicate
from .solver import (
    EllipticProblem,
    KrylovConfig,
    TimeStepper,
    evolve,
    solve_elliptic,
    step_crank_nicolson,
    write_observer_csv,
)
from .weights import dump_csv, operator_block

__all__ = [
    "ConvergenceRow",
    "run_weights",
    "run_apply_convergence",
    "run_elliptic",
    "run_evolve",
    "run_bench",
    "restrict_nested",
]


@dataclass
class ConvergenceRow:
    h: float
    e_inf: float
    order: float | None


def _orders(errors: list[float]) -> list[float | None]:
    """Observed orders log2(e_{i-1} / e_i); None where an error is not positive."""
    return [None] + [math.log2(a / b) if a > 0.0 and b > 0.0 else None
                     for a, b in zip(errors, errors[1:])]


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6e}"


def _table(path: Path, hs: list[float], errors: list[float],
           dts: list[float] | None = None) -> list[ConvergenceRow]:
    """Write the convergence table of ``errors`` at steps ``hs`` and return
    its rows; a Richardson table lists its time steps ``dts`` too."""
    orders = _orders(errors)
    steps = [hs] if dts is None else [hs, dts]
    _write_rows(path, ["h", "dt"][:len(steps)] + ["E_inf", "order"],
                [[_fmt(x) for x in row] for row in zip(*steps, errors, orders)])
    return [ConvergenceRow(h=h, e_inf=e, order=o)
            for h, e, o in zip(hs, errors, orders)]


def _get(cfg: dict, key: str, default=None):
    """``cfg[key]``, or ``default`` when the key is absent or null."""
    val = cfg.get(key)
    return default if val is None else val


def _box(cfg: dict, default: tuple[float, float]) -> tuple[float, float]:
    box = _get(cfg, "box", list(default))
    if (not isinstance(box, (list, tuple)) or len(box) != 2
            or not all(_is_number(v) for v in box)):
        raise ConfigError(f"box must be [lower, upper], got {box!r}")
    return float(box[0]), float(box[1])


#: Most nodes a config may ask for in one grid or weight block: 128 MiB per
#: array of doubles.  The largest grid the tests and benchmarks build, 2D
#: N = 1023, has about 1.05M.
MAX_NODES = 2**24


def _check_nodes(n: int, dim: int) -> int:
    """``n``, if n^dim nodes are within MAX_NODES; ConfigError otherwise."""
    if n ** dim > MAX_NODES:
        raise ConfigError(f"{n}^{dim} nodes exceed the limit of {MAX_NODES}")
    return n


def _grid_for_h(dim: int, lo: float, hi: float, h: float) -> UniformGrid:
    n_float = (hi - lo) / h - 1.0 if h else math.nan
    n = int(round(n_float)) if math.isfinite(n_float) else 0
    if n < 1 or abs(n_float - n) > 1e-9:
        raise ConfigError(f"step {h} does not fit the box [{lo}, {hi}]")
    return build_grid(dim, lo, hi, _check_nodes(n, dim))


def _is_number(v, kind=float) -> bool:
    """True for a finite non-bool number that ``kind`` holds exactly."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and kind(v) == v)
    except OverflowError:            # an int beyond the float range
        return False


def _number(cfg: dict, key: str, default, kind=float):
    """``cfg[key]`` (or ``default``) as a finite ``kind``; ConfigError otherwise."""
    val = _get(cfg, key, default)
    if not _is_number(val, kind):
        raise ConfigError(f"{key} must be a finite {kind.__name__}, got {val!r}")
    return kind(val)


def _positive_list(cfg: dict, key: str, default=None, kind=float) -> list:
    """``cfg[key]`` (or ``default``) as a nonempty list of positive ``kind``s."""
    vals = _get(cfg, key, default)
    if (not isinstance(vals, list) or not vals
            or not all(_is_number(v, kind) and v > 0 for v in vals)):
        raise ConfigError(f"{key} must be a nonempty list of positive "
                          f"{kind.__name__}s, got {vals!r}")
    return [kind(v) for v in vals]


def _choice(cfg: dict, key: str, choices: tuple[int, ...], default=None) -> int:
    """``cfg[key]`` (or ``default``) as one of the integers ``choices``."""
    val = _get(cfg, key, default)
    if not _is_number(val, int) or val not in choices:
        raise ConfigError(f"{key} must be one of "
                          f"{', '.join(map(str, choices))}, got {val!r}")
    return int(val)


def _order(cfg: dict):
    spec = cfg.get("order")
    if spec is None:
        raise ConfigError("missing order field spec")
    return order_field(spec)


def _output(cfg: dict, out_dir, default: str) -> Path:
    """Path of the CSV a runner writes: ``cfg["out"]`` under ``out_dir``.

    ``out`` must be a bare file name, so every output stays under ``out_dir``:
    no directory part, not absolute, and neither ``.`` nor ``..``.
    """
    name = _get(cfg, "out", default)
    if (not isinstance(name, str) or name in ("", ".", "..")
            or Path(name).name != name):
        raise ConfigError(f"out must be a file name, got {name!r}")
    return Path(out_dir) / name


def _krylov(cfg: dict) -> KrylovConfig:
    return KrylovConfig(tol=_number(cfg, "tol", 1e-14),
                        max_iter=_number(cfg, "max_iter", 5000, int))


def _h_list(cfg: dict) -> list[float]:
    hs = _positive_list(cfg, "h_list")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("h_list must be strictly decreasing")
    return hs


def _build_operator(grid: UniformGrid, field, cfg: dict, mask=None
                    ) -> VariableOrderOperator:
    """The operator of a run on ``grid``, which samples the config's order
    ``field`` there: every operator the CLI builds, the fast one at the
    config's ``rank``."""
    return VariableOrderOperator(grid, field, mask=mask,
                                 rank=_number(cfg, "rank", DEFAULT_RANK, int))


def restrict_nested(fine: GridFunction, coarse: UniformGrid) -> np.ndarray:
    """Sample a fine-grid function at the nodes of a nested coarser grid."""
    fg = fine.grid
    if fg.lower != coarse.lower or fg.upper != coarse.upper:
        raise NotNested("grids cover different boxes")
    ratio_f = coarse.h / fg.h
    ratio = int(round(ratio_f))
    if ratio < 1 or abs(ratio_f - ratio) > 1e-9:
        raise NotNested(f"steps {coarse.h} and {fg.h} are not nested")
    picks = tuple(slice(ratio - 1, None, ratio) for _ in range(fg.dim))
    vals = fine.values_nd[picks]
    if vals.shape != coarse.shape:
        raise NotNested("restriction shape mismatch")
    return vals.ravel()


def _halving_gaps(sols: list[GridFunction]) -> list[float]:
    """Step-halving differences ``||u_h - u_{h/2}||_inf`` on each coarser grid
    of a run list whose steps halve from one entry to the next."""
    return [float(np.abs(coarse.values - restrict_nested(fine, coarse.grid)).max())
            for coarse, fine in zip(sols, sols[1:])]


# -- weights ------------------------------------------------------------------

def run_weights(cfg: dict, out_dir) -> np.ndarray:
    """Write the weights the operator applies, every signed offset to n_max;
    returns their nonnegative-offset block."""
    alpha = _number(cfg, "alpha", None)
    dim = _choice(cfg, "dim", (1, 2, 3), 1)
    n_max = _number(cfg, "n_max", 64, int)
    _check_nodes(2 * n_max + 1, dim)
    block = operator_block(alpha, dim, n_max)
    out = _output(cfg, out_dir, "weights.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_csv(block, out)
    print(f"wrote {out} (alpha={alpha}, dim={dim}, offsets to {n_max})")
    return block


# -- apply convergence --------------------------------------------------------

def run_apply_convergence(cfg: dict, out_dir) -> list[ConvergenceRow]:
    """Max-norm error of the discrete apply against the Gaussian oracle."""
    dim = _choice(cfg, "dim", (1, 2, 3))
    lo, hi = _box(cfg, (-4.0, 4.0))
    hs = _h_list(cfg)
    base_field = _order(cfg)
    out = _output(cfg, out_dir, "apply_conv.csv")
    grids = [_grid_for_h(dim, lo, hi, h) for h in hs]
    return _table(out, hs, [_apply_error(g, base_field, cfg) for g in grids])


def _apply_error(grid: UniformGrid, base_field, cfg: dict) -> float:
    """The apply's max-norm error on ``grid``: only the number outlives the
    call, so no array of one grid is alive while the next is built."""
    op = _build_operator(grid, base_field, cfg)
    pts = grid.points()
    # |x|^2 column by column: no squared copy of the (n, dim) points
    r2 = pts[:, 0] ** 2
    for p in range(1, grid.dim):
        r2 += pts[:, p] ** 2
    u = GridFunction(grid, np.exp(-r2, out=r2))
    v = op.apply(u)
    exact = gaussian_frac_lap(pts, op.field.sampled, grid.dim)
    return float(np.abs(v.values - exact).max())


# -- elliptic solves ----------------------------------------------------------

def run_elliptic(cfg: dict, out_dir) -> list[ConvergenceRow]:
    """Convergence of the elliptic scheme.

    Case 1 manufactures data from a known polynomial solution on a fine
    reference grid and measures the true error; case 2 uses data f = 1 and
    measures the step-halving difference ``||u_h - u_{h/2}||_inf``.
    """
    case = _choice(cfg, "case", (1, 2))
    dim = _choice(cfg, "dim", (1, 2, 3), 2)
    lo, hi = _box(cfg, (-1.0, 1.0))
    hs = _h_list(cfg)
    base_field = _order(cfg)
    krylov = _krylov(cfg)
    out = _output(cfg, out_dir, f"elliptic_case{case}.csv")

    def solve_on(grid: UniformGrid, f_vals: np.ndarray, reaction: float):
        op = _build_operator(grid, base_field, cfg)
        b = GridFunction(grid, np.full(grid.size, reaction)) if reaction else None
        problem = EllipticProblem(operator=op, f=GridFunction(grid, f_vals), b=b)
        return solve_elliptic(problem, krylov).u

    if case == 1:
        beta = _number(cfg, "beta", 4.0)
        if beta < 2.0:               # refused before the reference operator
            raise ConfigError(f"beta must be >= 2, got {beta}")
        reaction = _number(cfg, "reaction", 1.0)
        fine = _grid_for_h(dim, lo, hi, _number(cfg, "h_ref", 2.0**-9))
        # one reference operator per table; every h samples its data
        ref_op = _build_operator(fine, base_field, cfg)
        f_ref = manufactured_rhs_case1(ref_op, beta, reaction)
        errors = []
        for h in hs:
            grid = _grid_for_h(dim, lo, hi, h)
            f_vals = restrict_nested(f_ref, grid)
            u_h = solve_on(grid, f_vals, reaction)
            pts = grid.points()
            exact = np.prod(1.0 - pts**2, axis=-1) ** beta
            errors.append(float(np.abs(u_h.values - exact).max()))
    else:
        reaction = _number(cfg, "reaction", 0.0)
        grids = [_grid_for_h(dim, lo, hi, h) for h in hs + [hs[-1] / 2.0]]
        errors = _halving_gaps([solve_on(g, np.ones(g.size), reaction)
                                for g in grids])
    return _table(out, hs, errors)


# -- time-dependent runs --------------------------------------------------------

def _stepper_from_cfg(cfg: dict, dt: float) -> TimeStepper:
    try:
        return TimeStepper(
            scheme=_get(cfg, "scheme", "crank_nicolson"),
            dt=dt,
            t_final=_number(cfg, "t_final", 0.5),
            kappa=_number(cfg, "kappa", 0.01),
            diffusion=_number(cfg, "diffusion", 1.0),
            krylov=_krylov(cfg),
        )
    except InvalidRange as exc:
        raise ConfigError(str(exc)) from exc


def run_evolve(cfg: dict, out_dir):
    """Evolve an initial state; single run with observers, or a Richardson
    convergence table over simultaneous (h, dt) halvings.

    Every run is built, and so validated, before anything is written.
    """
    dim = _choice(cfg, "dim", (1, 2, 3), 2)
    lo, hi = _box(cfg, (-4.0, 4.0))
    base_field = _order(cfg)
    kind = _get(cfg, "kind", "single")
    if kind not in ("single", "richardson"):
        raise ConfigError(f"evolve kind must be single or richardson, got {kind!r}")

    def set_up(h: float, dt: float):
        """The stepper, operator and initial state of one run."""
        grid = _grid_for_h(dim, lo, hi, h)
        mask = None
        if cfg.get("mask") is not None:
            mask = make_mask(grid, parse_predicate(cfg["mask"]))
        op = _build_operator(grid, base_field, cfg, mask=mask)
        stepper = _stepper_from_cfg(cfg, dt)
        ic = initial_condition(_get(cfg, "ic", "gaussian"), kappa=stepper.kappa)
        return stepper, op, GridFunction.from_callable(grid, ic)

    if kind == "single":
        out = _output(cfg, out_dir, "evolve.csv")
        if cfg.get("h") is None:
            raise ConfigError("single evolve needs h")
        h = _number(cfg, "h", None)
        frame_every = _number(cfg, "frame_every", 0, int)
        if frame_every < 0:
            raise ConfigError(f"frame_every must be >= 0, got {frame_every}")
        run = set_up(h, _number(cfg, "dt", h))
        frames = None
        if frame_every:
            frames = Path(out_dir) / "frames"
            frames.mkdir(parents=True, exist_ok=True)
        record = evolve(*run, frame_dir=frames, frame_every=frame_every)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_observer_csv(record, out)
        return record

    out = _output(cfg, out_dir, "evolve_richardson.csv")
    hs = _h_list(cfg)
    dts = _positive_list(cfg, "dt_list", hs)
    if len(dts) != len(hs):
        raise ConfigError("dt_list must pair with h_list")
    finals = [evolve(*set_up(h, dt)).final
              for h, dt in zip(hs + [hs[-1] / 2.0], dts + [dts[-1] / 2.0])]
    return _table(out, hs, _halving_gaps(finals), dts)


# -- benchmarks -----------------------------------------------------------------

def run_bench(cfg: dict, out_dir):
    """Timing benchmarks.

    kind "cn3d": one Crank-Nicolson step per (N, dt) pair on [-1,1]^3,
    reporting wall time and BiCGSTAB iteration count.  kind "apply_sweep":
    seconds per fast apply over a grid-size sweep plus the fitted log-log
    slope, which is None unless the sweep has two distinct sizes.
    """
    kind = _get(cfg, "kind", "cn3d")
    base_field = _order(cfg)

    if kind == "cn3d":
        dim = _choice(cfg, "dim", (1, 2, 3), 3)
        out = _output(cfg, out_dir, "bench_cn3d.csv")
        lo, hi = _box(cfg, (-1.0, 1.0))
        ns = [_check_nodes(n, dim) for n in _positive_list(cfg, "n_list", kind=int)]
        dts = _positive_list(cfg, "dt_list", [1.0 / (n + 1) for n in ns])
        if len(dts) != len(ns):
            raise ConfigError("dt_list must pair with n_list")
        rows = []
        for n, dt in zip(ns, dts):
            grid = build_grid(dim, lo, hi, n)
            op = _build_operator(grid, base_field, cfg)
            stepper = _stepper_from_cfg({**cfg, "t_final": dt}, dt)
            ic = initial_condition(_get(cfg, "ic", "cos_modes"))
            u0 = GridFunction(grid, ic(grid.points()))
            t0 = time.perf_counter()
            _, res = step_crank_nicolson(u0, stepper, op)
            seconds = time.perf_counter() - t0
            rows.append([n ** dim, dt, seconds, res.iterations])
        _write_rows(out, ["n_total", "dt", "seconds_per_step", "iterations"],
                    [[r[0], _fmt(r[1]), _fmt(r[2]), r[3]] for r in rows])
        return rows

    if kind != "apply_sweep":
        raise ConfigError(f"bench kind must be cn3d or apply_sweep, got {kind!r}")
    dim = _choice(cfg, "dim", (1, 2, 3), 1)
    out = _output(cfg, out_dir, "bench_apply.csv")
    lo, hi = _box(cfg, (-4.0, 4.0))
    ns = [_check_nodes(n, dim) for n in _positive_list(cfg, "n_list", kind=int)]
    reps = _number(cfg, "reps", 5, int)
    rows = []
    for n in ns:
        grid = build_grid(dim, lo, hi, n)
        op = _build_operator(grid, base_field, cfg)
        timing = operator_timing(op, n_reps=reps)
        rows.append([n, timing["seconds_per_apply"]])
    slope = (fit_loglog_slope(ns, [r[1] for r in rows])
             if len(set(ns)) > 1 else None)
    _write_rows(out, ["n", "seconds_per_apply"],
                [[r[0], _fmt(r[1])] for r in rows])
    return {"rows": rows, "slope": slope}

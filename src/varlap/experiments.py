"""Config-driven experiment runners producing convergence and benchmark CSVs.

Each runner takes a plain dict (usually parsed from a JSON config file),
validates it, runs the experiment, writes one CSV under the output directory,
and returns the rows it wrote.  Error columns follow the convergence
convention: the observed order is ``log2(E(2h)/E(h))`` and is empty on the
first row.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidRange, NotNested
from .grid import GridFunction, UniformGrid, build_grid, make_mask, sample_order
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

__all__ = [
    "ConvergenceRow",
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
    out: list[float | None] = [None]
    for i in range(1, len(errors)):
        out.append(math.log2(errors[i - 1] / errors[i]))
    return out


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6e}"


def _convergence_csv(path: Path, rows: list[ConvergenceRow]) -> None:
    _write_rows(path, ["h", "E_inf", "order"],
                [[_fmt(r.h), _fmt(r.e_inf), _fmt(r.order)] for r in rows])


def _box(cfg: dict, default: tuple[float, float]) -> tuple[float, float]:
    box = cfg.get("box", list(default))
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
    n_float = (hi - lo) / h - 1.0
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
    val = cfg.get(key, default)
    if not _is_number(val, kind):
        raise ConfigError(f"{key} must be a finite {kind.__name__}, got {val!r}")
    return kind(val)


def _positive_list(cfg: dict, key: str, default=None, kind=float) -> list:
    """``cfg[key]`` (or ``default``) as a nonempty list of positive ``kind``s."""
    vals = cfg.get(key, default)
    if (not isinstance(vals, list) or not vals
            or not all(_is_number(v, kind) and v > 0 for v in vals)):
        raise ConfigError(f"{key} must be a nonempty list of positive "
                          f"{kind.__name__}s, got {vals!r}")
    return [kind(v) for v in vals]


def _optional_number(cfg: dict, key: str, kind=float):
    """``cfg[key]`` as a finite ``kind``, or None when absent or null."""
    return None if cfg.get(key) is None else _number(cfg, key, None, kind)


def _choice(cfg: dict, key: str, choices: tuple[int, ...], default=None) -> int:
    """``cfg[key]`` (or ``default``) as one of the integers ``choices``."""
    val = cfg.get(key, default)
    if not _is_number(val, int) or val not in choices:
        raise ConfigError(f"{key} must be one of "
                          f"{', '.join(map(str, choices))}, got {val!r}")
    return int(val)


def _order(cfg: dict):
    spec = cfg.get("order")
    if not spec:
        raise ConfigError("missing order field spec")
    return order_field(spec)


def _output(cfg: dict, out_dir, default: str) -> Path:
    """Path of the CSV a runner writes: ``cfg["out"]`` under ``out_dir``."""
    name = cfg.get("out", default)
    if not isinstance(name, str) or not name:
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


def _operator_options(cfg: dict) -> dict:
    return {"rank": _optional_number(cfg, "rank", int),
            "epsilon": _optional_number(cfg, "epsilon"),
            "quadrature_m": _optional_number(cfg, "quadrature", int)}


def _build_operator(grid: UniformGrid, field, cfg: dict, mask=None
                    ) -> VariableOrderOperator:
    mode = cfg.get("mode") or ("direct" if grid.dim == 1 else "fast")
    return VariableOrderOperator(grid, field, mode=mode, mask=mask,
                                 **_operator_options(cfg))


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


# -- apply convergence --------------------------------------------------------

def run_apply_convergence(cfg: dict, out_dir) -> list[ConvergenceRow]:
    """Max-norm error of the discrete apply against the Gaussian oracle."""
    dim = _choice(cfg, "dim", (1, 2, 3))
    lo, hi = _box(cfg, (-4.0, 4.0))
    hs = _h_list(cfg)
    base_field = _order(cfg)
    out = _output(cfg, out_dir, "apply_conv.csv")
    grids = [_grid_for_h(dim, lo, hi, h) for h in hs]
    rows: list[ConvergenceRow] = []
    errors: list[float] = []
    for grid in grids:
        field = sample_order(base_field, grid)
        op = _build_operator(grid, field, cfg)
        pts = grid.points()
        u = GridFunction(grid, np.exp(-np.sum(pts**2, axis=-1)))
        v = op.apply(u)
        exact = gaussian_frac_lap(pts, field.sampled, dim)
        errors.append(float(np.abs(v.values - exact).max()))
    for h, e, o in zip(hs, errors, _orders(errors)):
        rows.append(ConvergenceRow(h=h, e_inf=e, order=o))
    _convergence_csv(out, rows)
    return rows


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
        field = sample_order(base_field, grid)
        op = _build_operator(grid, field, cfg)
        b = GridFunction(grid, np.full(grid.size, reaction)) if reaction else None
        problem = EllipticProblem(operator=op, f=GridFunction(grid, f_vals), b=b)
        return solve_elliptic(problem, krylov).u

    rows: list[ConvergenceRow] = []
    if case == 1:
        beta = _number(cfg, "beta", 4.0)
        reaction = _number(cfg, "reaction", 1.0)
        fine = _grid_for_h(dim, lo, hi, _number(cfg, "h_ref", 2.0**-9))
        # one reference operator per table; every h samples its data
        f_ref = manufactured_rhs_case1(fine, base_field, beta, reaction,
                                       **_operator_options(cfg))
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
        sols = [solve_on(g, np.ones(g.size), reaction) for g in grids]
        errors = []
        for i, h in enumerate(hs):
            fine_on_coarse = restrict_nested(sols[i + 1], grids[i])
            errors.append(float(np.abs(sols[i].values - fine_on_coarse).max()))
    for h, e, o in zip(hs, errors, _orders(errors)):
        rows.append(ConvergenceRow(h=h, e_inf=e, order=o))
    _convergence_csv(out, rows)
    return rows


# -- time-dependent runs --------------------------------------------------------

def _stepper_from_cfg(cfg: dict, dt: float) -> TimeStepper:
    try:
        return TimeStepper(
            scheme=cfg.get("scheme", "crank_nicolson"),
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
    convergence table over simultaneous (h, dt) halvings."""
    dim = _choice(cfg, "dim", (1, 2, 3), 2)
    lo, hi = _box(cfg, (-4.0, 4.0))
    base_field = _order(cfg)
    kind = cfg.get("kind", "single")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    def run_one(h: float, dt: float, frames=None):
        grid = _grid_for_h(dim, lo, hi, h)
        mask = None
        if cfg.get("mask"):
            mask = make_mask(grid, parse_predicate(cfg["mask"]))
        field = sample_order(base_field, grid)
        op = _build_operator(grid, field, cfg, mask=mask)
        stepper = _stepper_from_cfg(cfg, dt)
        ic = initial_condition(cfg.get("ic", "gaussian"), kappa=stepper.kappa)
        u0_vals = np.asarray(ic(grid.points()), dtype=float).ravel()
        if mask is not None:
            u0_vals[~mask.inside] = 0.0
        u0 = GridFunction(grid, u0_vals)
        frame_every = _number(cfg, "frame_every", 0, int) if frames else 0
        return evolve(stepper, op, u0, frame_dir=frames, frame_every=frame_every)

    if kind == "single":
        out = _output(cfg, out_path, "evolve.csv")
        frames = None
        if cfg.get("frame_every"):
            frames = out_path / "frames"
            frames.mkdir(exist_ok=True)
        h = _number(cfg, "h", 0.0) or None
        if h is None:
            raise ConfigError("single evolve needs h")
        record = run_one(h, _number(cfg, "dt", h), frames=frames)
        write_observer_csv(record, out)
        return record

    if kind != "richardson":
        raise ConfigError(f"evolve kind must be single or richardson, got {kind!r}")
    out = _output(cfg, out_path, "evolve_richardson.csv")
    hs = _h_list(cfg)
    dts = _positive_list(cfg, "dt_list", hs)
    if len(dts) != len(hs):
        raise ConfigError("dt_list must pair with h_list")
    finals = []
    grids = []
    for h, dt in zip(hs + [hs[-1] / 2.0], dts + [dts[-1] / 2.0]):
        rec = run_one(h, dt)
        finals.append(rec.final)
        grids.append(rec.final.grid)
    errors = []
    for i in range(len(hs)):
        fine_on_coarse = restrict_nested(finals[i + 1], grids[i])
        errors.append(float(np.abs(finals[i].values - fine_on_coarse).max()))
    rows = [ConvergenceRow(h=h, e_inf=e, order=o)
            for h, e, o in zip(hs, errors, _orders(errors))]
    _write_rows(out, ["h", "dt", "E_inf", "order"],
                [[_fmt(h), _fmt(dt), _fmt(r.e_inf), _fmt(r.order)]
                 for h, dt, r in zip(hs, dts, rows)])
    return rows


# -- benchmarks -----------------------------------------------------------------

def run_bench(cfg: dict, out_dir):
    """Timing benchmarks.

    kind "cn3d": one Crank-Nicolson step per (N, dt) pair on [-1,1]^3,
    reporting wall time and BiCGSTAB iteration count.  kind "apply_sweep":
    seconds per fast apply over a grid-size sweep plus the fitted log-log
    slope.
    """
    kind = cfg.get("kind", "cn3d")
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
            field = sample_order(base_field, grid)
            op = _build_operator(grid, field, cfg)
            stepper = _stepper_from_cfg({**cfg, "t_final": dt}, dt)
            ic = initial_condition(cfg.get("ic", "cos_modes"))
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
        field = sample_order(base_field, grid)
        op = _build_operator(grid, field, {**cfg, "mode": "fast"})
        timing = operator_timing(op, n_reps=reps)
        rows.append([n, timing["seconds_per_apply"]])
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    _write_rows(out, ["n", "seconds_per_apply"],
                [[r[0], _fmt(r[1])] for r in rows])
    return {"rows": rows, "slope": slope}

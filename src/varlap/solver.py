"""Krylov solver and time steppers for PDEs with the variable-order operator.

The elliptic scheme solves ``(-Lap_h)^{alpha_j/2} u_j + b_j u_j = f_j`` on the
interior nodes with the extended zero condition outside; nodes excluded by an
embedding mask are pinned to zero through identity rows, keeping the system
square and nonsingular.  Linear systems are solved matrix-free by BiCGSTAB
with a zero initial guess by default.  Elliptic and phase-field solves are
right preconditioned by the tau-algebra (DST-I) model of a constant-order
block, shifted for the phase-field steps by the mean of their diagonal.
Crank-Nicolson solves stay unpreconditioned: their identity-dominated
systems converge in a few dozen half-steps already, and a shift model made
the ``bench_tanh`` step slower.

A requested tolerance below double-precision reach is treated as "iterate to
stagnation": the solver stops once the relative residual is at ``tol`` or no
improvement has been seen for a fixed window of iterations, and returns the
best iterate either way.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.fft as sfft
from scipy import ndimage

from .errors import GridMismatch, InvalidRange, SolverFailure
from .grid import DomainMask, GridFunction
from .operator import VariableOrderOperator
from .weights import symbol

__all__ = [
    "KrylovConfig",
    "KrylovResult",
    "bicgstab",
    "EllipticProblem",
    "SolveOutcome",
    "solve_elliptic",
    "TimeStepper",
    "step_crank_nicolson",
    "step_allen_cahn_three_level",
    "evolve",
    "EvolveRecord",
    "write_residual_csv",
    "write_observer_csv",
]

LinearMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KrylovConfig:
    """BiCGSTAB controls; defaults reproduce iterate-to-stagnation behavior."""

    tol: float = 1e-14
    max_iter: int = 5000
    stagnation_window: int = 25
    max_restarts: int = 8
    accept_relres: float = 1e-6
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidRange("tolerance must be positive")
        if self.max_iter < 1:
            raise InvalidRange("max_iter must be >= 1")


@dataclass
class KrylovResult:
    x: np.ndarray
    iterations: int
    relres: float
    status: str                  # converged | stagnated | max_iter | breakdown
    residuals: list[float] = field(default_factory=list)
    accept_relres: float = 1e-6
    restarts: int = 0            # fresh Krylov cycles begun from the best iterate

    @property
    def ok(self) -> bool:
        return self.status == "converged" or self.relres <= self.accept_relres


def bicgstab(apply_a: LinearMap, rhs: np.ndarray,
             config: KrylovConfig | None = None) -> KrylovResult:
    """BiCGSTAB for a general linear map.

    Right preconditioning is left to the caller: hand in ``A M^-1`` and map
    the returned iterate through ``M^-1`` (``_solve_preconditioned`` does
    this for the elliptic and phase-field solves; Crank-Nicolson calls this
    function plainly); the monitored residual is then the true residual of
    that iterate.

    Iterations are counted in half-steps: every full sweep applies the
    operator twice and produces two iterates, and the count increments at
    each, the usual convention for reported BiCGSTAB iteration numbers.

    Stops on relative residual <= tol, stagnation (no improvement of the best
    residual over ``stagnation_window`` consecutive full sweeps, after
    ``max_restarts`` fresh Krylov cycles from the best iterate have been
    spent), breakdown of the recurrence (rho or omega numerically zero,
    reported distinctly), or the sweep cap.  Always returns the best iterate
    seen.

    Raises:
        SolverFailure: a NaN or infinity appeared in the iteration.
    """
    cfg = config or KrylovConfig()
    b = np.asarray(rhs, dtype=float).ravel()
    n = b.size
    x = np.zeros(n) if cfg.x0 is None else np.array(cfg.x0, dtype=float).ravel()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return KrylovResult(x=np.zeros(n), iterations=0, relres=0.0,
                            status="converged", residuals=[0.0],
                            accept_relres=cfg.accept_relres)
    r = b - apply_a(x) if cfg.x0 is not None else b.copy()
    r_hat = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    relres = float(np.linalg.norm(r)) / b_norm
    residuals = [relres]
    best_x, best_res, best_half = x.copy(), relres, 0
    if relres <= cfg.tol:
        return KrylovResult(x=x, iterations=0, relres=relres,
                            status="converged", residuals=residuals,
                            accept_relres=cfg.accept_relres)
    status = "max_iter"
    half = 0
    restarts = 0
    cycle_anchor = 0
    for it in range(1, cfg.max_iter + 1):
        rho = float(r_hat @ r)
        if abs(rho) < 1e-300:
            status = "breakdown"
            break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        v = apply_a(p)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            status = "breakdown"
            break
        alpha = rho / denom
        s = x + alpha * p          # half-step iterate
        res_half = r - alpha * v
        half = 2 * it - 1
        half_norm = float(np.linalg.norm(res_half)) / b_norm
        residuals.append(half_norm)
        if not math.isfinite(half_norm):
            raise SolverFailure("NaN detected in BiCGSTAB iteration")
        if half_norm < best_res:
            best_x, best_res, best_half = s.copy(), half_norm, half
        if half_norm <= cfg.tol:
            x, relres = s, half_norm
            status = "converged"
            break
        t = apply_a(res_half)
        tt = float(t @ t)
        if tt == 0.0:
            status = "breakdown"
            break
        omega = float(t @ res_half) / tt
        if omega == 0.0:
            status = "breakdown"
            break
        x = s + omega * res_half
        r = res_half - omega * t
        rho_old = rho
        half = 2 * it
        relres = float(np.linalg.norm(r)) / b_norm
        residuals.append(relres)
        if not math.isfinite(relres):
            raise SolverFailure("NaN detected in BiCGSTAB iteration")
        if relres < best_res:
            best_x, best_res, best_half = x.copy(), relres, half
        if relres <= cfg.tol:
            status = "converged"
            break
        # the initial transient can wander above the starting residual for a
        # long stretch on stiff systems; only call it stagnation once some
        # progress has been made (or after a much longer leash if none)
        leash = 2 * cfg.stagnation_window
        if best_res >= 0.999 * residuals[0]:
            leash *= 8
        if half - max(best_half, cycle_anchor) >= leash:
            if restarts < cfg.max_restarts:
                # plateau: restart from the best iterate with a fresh shadow
                # residual and Krylov space; the recomputed true residual
                # resets the bar (the recursive one can drift optimistic,
                # which would block all further improvement)
                restarts += 1
                cycle_anchor = half
                x = best_x.copy()
                r = b - apply_a(x)
                r_hat = r.copy()
                rho_old = alpha = omega = 1.0
                v = np.zeros(n)
                p = np.zeros(n)
                relres = float(np.linalg.norm(r)) / b_norm
                best_x, best_res, best_half = x.copy(), relres, half
                if relres <= cfg.tol:
                    status = "converged"
                    break
                continue
            status = "stagnated"
            break
    if status == "converged":
        return KrylovResult(x=x, iterations=half, relres=relres, status=status,
                            residuals=residuals,
                            accept_relres=cfg.accept_relres, restarts=restarts)
    return KrylovResult(x=best_x, iterations=best_half, relres=best_res,
                        status=status, residuals=residuals,
                        accept_relres=cfg.accept_relres, restarts=restarts)


@dataclass(frozen=True)
class EllipticProblem:
    """``(-Lap_h)^{alpha(x)/2} u + b(x) u = f`` with nonnegative reaction b."""

    operator: VariableOrderOperator
    f: GridFunction
    b: GridFunction | None = None

    def __post_init__(self):
        if self.f.grid.shape != self.operator.grid.shape:
            raise GridMismatch("rhs grid does not match operator grid")
        if self.b is not None:
            if self.b.grid.shape != self.operator.grid.shape:
                raise GridMismatch("reaction grid does not match operator grid")
            if np.any(self.b.values < 0.0):
                raise InvalidRange("reaction coefficient must be nonnegative")


@dataclass
class SolveOutcome:
    u: GridFunction
    krylov: KrylovResult


def _pinned_map(op: VariableOrderOperator, diag: np.ndarray | None,
                scale_a: float = 1.0, shift: float = 0.0) -> LinearMap:
    """Linear map u -> shift*u + scale_a*(A u) + diag*u, identity on masked rows."""
    mask = op.mask

    def apply_a(u: np.ndarray) -> np.ndarray:
        out = scale_a * op._apply_flat(u)
        if diag is not None:
            out += diag * u
        if shift != 0.0:
            out = out + shift * u
        if mask is not None:
            out[~mask.inside] = u[~mask.inside]
        return out

    return apply_a


def _masked_rhs(rhs: np.ndarray, mask: DomainMask | None) -> np.ndarray:
    if mask is None:
        return rhs
    out = rhs.copy()
    out[~mask.inside] = 0.0
    return out


def _tau_inverse(op: VariableOrderOperator, scale: float = 1.0,
                 shift: float = 0.0) -> tuple[LinearMap, LinearMap]:
    """``(M^-1, M)`` for the tau model M of ``shift*I + scale*A``.

    S is the orthonormal DST-I, its own inverse; it diagonalizes the tau
    (sine-algebra) approximation of a constant-order Toeplitz block, whose
    eigenvalues are the weight symbol ``Lam = (sum_p 4 sin^2(theta_p/2))^(a/2)``
    at ``theta_k = k pi / (N_p + 1)``.  The order a is the geometric mean of
    the sampled order.  With no shift, ``M^-1 v = S (scale Lam)^-1 S (h^alpha_j
    v)`` undoes the per-node scaling h^(-alpha_j) exactly; with a shift, one
    scale h^(-a) fits better: ``M^-1 v = S (shift + scale h^(-a) Lam)^-1 S v``.
    Both maps are the identity on masked rows.
    """
    shape = op.grid.shape
    alphas = op.field.sampled
    abar = float(np.exp(np.mean(np.log(alphas))))
    thetas = [np.pi * np.arange(1, n + 1) / (n + 1) for n in shape]
    theta = np.stack(np.meshgrid(*thetas, indexing="ij"), axis=-1)
    lam = symbol(theta, 1.0)
    if shift == 0.0:
        inv_lam = lam ** (-abar / 2.0)
        inv_lam /= scale
        h_alpha = op.grid.h ** alphas
    else:
        inv_lam = 1.0 / (shift + scale * op.grid.h ** (-abar) * lam ** (abar / 2.0))
        h_alpha = None
    outside = None if op.mask is None else ~op.mask.inside

    def sine_diag(v: np.ndarray, diag: np.ndarray) -> np.ndarray:
        w = sfft.dstn(v.reshape(shape), type=1, norm="ortho")
        w *= diag
        return sfft.dstn(w, type=1, norm="ortho", overwrite_x=True).ravel()

    def pinned(out: np.ndarray, v: np.ndarray) -> np.ndarray:
        if outside is not None:
            out[outside] = v[outside]
        return out

    def inverse(v: np.ndarray) -> np.ndarray:
        return pinned(sine_diag(v if h_alpha is None else h_alpha * v, inv_lam), v)

    def forward(u: np.ndarray) -> np.ndarray:
        out = sine_diag(u, 1.0 / inv_lam)
        return pinned(out if h_alpha is None else out / h_alpha, u)

    return inverse, forward


def _solve_preconditioned(apply_a: LinearMap, tau: tuple[LinearMap, LinearMap],
                          rhs: np.ndarray,
                          config: KrylovConfig | None) -> KrylovResult:
    """Right-preconditioned BiCGSTAB: solve ``A M^-1 y = rhs``, return ``M^-1 y``.

    ``tau`` is the ``(M^-1, M)`` pair of ``_tau_inverse``.  The residuals are
    those of the returned iterate; an initial guess x0 enters as y0 = M x0.
    """
    inverse, forward = tau
    if config is not None and config.x0 is not None:
        config = replace(config, x0=forward(np.asarray(config.x0, dtype=float).ravel()))
    # composed here, not passed to bicgstab, so bicgstab keeps the
    # (apply_a, rhs, config) form that perfbench/tracing.py wraps
    result = bicgstab(lambda y: apply_a(inverse(y)), rhs, config)
    return replace(result, x=inverse(result.x))


def solve_elliptic(problem: EllipticProblem,
                   config: KrylovConfig | None = None) -> SolveOutcome:
    """Solve the elliptic scheme by right-preconditioned BiCGSTAB.

    BiCGSTAB runs on ``A M^-1 y = f`` with M^-1 the unshifted tau inverse of
    ``_tau_inverse`` and returns ``u = M^-1 y``, so its residuals are those
    of u.  The reaction term stays out of M; masked nodes stay at zero.

    Raises:
        SolverFailure: the Krylov iteration broke down or left a residual
            above 1e-8 relative.
    """
    op = problem.operator
    diag = problem.b.values if problem.b is not None else None
    rhs = _masked_rhs(problem.f.values, op.mask)
    result = _solve_preconditioned(_pinned_map(op, diag), _tau_inverse(op), rhs,
                                   config)
    if not result.ok:
        raise SolverFailure(
            f"elliptic solve ended with status {result.status}, "
            f"relative residual {result.relres:.3e}"
        )
    return SolveOutcome(u=GridFunction(op.grid, result.x), krylov=result)


@dataclass(frozen=True)
class TimeStepper:
    """Time-stepping configuration.

    ``scheme`` is "crank_nicolson" or "allen_cahn" (the three-level linearized
    scheme; ``kappa`` is its interface width, unused otherwise).  ``source``
    maps (points, t) to values; ``diffusion`` scales the operator.
    """

    scheme: str = "crank_nicolson"
    dt: float = 1e-2
    t_final: float = 1.0
    kappa: float = 0.01
    diffusion: float = 1.0
    source: Callable[[np.ndarray, float], np.ndarray] | None = None
    krylov: KrylovConfig = field(default_factory=KrylovConfig)

    def __post_init__(self):
        if self.scheme not in ("crank_nicolson", "allen_cahn"):
            raise InvalidRange(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0.0 or self.t_final < self.dt:
            raise InvalidRange("need dt > 0 and t_final >= dt")
        if self.scheme == "allen_cahn" and self.kappa <= 0.0:
            raise InvalidRange("Allen-Cahn needs kappa > 0")


def step_crank_nicolson(u_prev: GridFunction, stepper: TimeStepper,
                        operator: VariableOrderOperator,
                        t: float = 0.0,
                        b: GridFunction | None = None) -> tuple[GridFunction, KrylovResult]:
    """One Crank-Nicolson step of ``u_t + L u = f`` with L = diffusion*A + b.

    Solves ``(I + dt/2 L) u_next = (I - dt/2 L) u_prev + dt f(t + dt/2)``.
    """
    op = operator
    dt = stepper.dt
    diag = dt / 2.0 * b.values if b is not None else None
    lhs = _pinned_map(op, diag, scale_a=stepper.diffusion * dt / 2.0, shift=1.0)
    explicit = _pinned_map(op, -diag if diag is not None else None,
                           scale_a=-stepper.diffusion * dt / 2.0, shift=1.0)
    rhs = explicit(u_prev.values)
    if op.mask is not None:
        rhs[~op.mask.inside] = 0.0
    if stepper.source is not None:
        rhs = rhs + dt * np.asarray(
            stepper.source(op.grid.points(), t + dt / 2.0), dtype=float).ravel()
        rhs = _masked_rhs(rhs, op.mask)
    result = bicgstab(lhs, rhs, stepper.krylov)
    if not result.ok:
        raise SolverFailure(
            f"Crank-Nicolson step failed: {result.status}, relres {result.relres:.3e}"
        )
    return GridFunction(op.grid, result.x), result


def _step_allen_cahn_bootstrap(w: GridFunction, stepper: TimeStepper,
                               operator: VariableOrderOperator
                               ) -> tuple[GridFunction, KrylovResult]:
    """First phase-field step: Crank-Nicolson with the nonlinearity explicit.

    ``w`` is in the shifted variable (physical phase + 1), as for
    ``step_allen_cahn_three_level``, which needs two levels to start from.
    """
    op = operator
    dt = stepper.dt
    lhs = _pinned_map(op, None, scale_a=stepper.diffusion * dt / 2.0, shift=1.0)
    phys = w.values - 1.0
    rhs = (w.values
           - dt / 2.0 * stepper.diffusion * op._apply_flat(w.values)
           - (dt / stepper.kappa**2) * (phys**3 - phys))
    rhs = _masked_rhs(rhs, op.mask)
    tau = _tau_inverse(op, scale=stepper.diffusion * dt / 2.0, shift=1.0)
    result = _solve_preconditioned(lhs, tau, rhs, stepper.krylov)
    if not result.ok:
        raise SolverFailure(f"bootstrap step failed: {result.status}")
    return GridFunction(op.grid, result.x), result


def step_allen_cahn_three_level(u_nm1: GridFunction, u_n: GridFunction,
                                stepper: TimeStepper,
                                operator: VariableOrderOperator
                                ) -> tuple[GridFunction, KrylovResult]:
    """One step of the three-level linearized phase-field scheme.

    All arguments are in the shifted variable (physical phase + 1), which
    carries the homogeneous exterior condition.  The cubic is linearized
    about the middle level, u^3 ~ (u^n)^2 * u-averaged, while the mild -u
    part stays explicit; with mu = dt/kappa^2 and q = (u^n)^2 the update
    solves

        (I + dt A + mu diag(q)) w^{n+1}
            = (I - dt A - mu diag(q)) w^{n-1} + 2 mu (q + u^n).

    The nonnegative implicit factor q keeps the scheme stable at dt ~
    kappa^2; fully explicit or fully averaged treatments of the double-well
    term are leapfrog-unstable there.  The solve is right preconditioned by
    the tau model with shift 1 + mu mean(q) over the unmasked nodes.
    """
    op = operator
    dt = stepper.dt
    mu = dt / stepper.kappa**2
    phys = u_n.values - 1.0
    q = phys**2
    lhs = _pinned_map(op, mu * q, scale_a=stepper.diffusion * dt, shift=1.0)
    rhs = (u_nm1.values
           - dt * stepper.diffusion * op._apply_flat(u_nm1.values)
           - mu * q * u_nm1.values
           + 2.0 * mu * (q + phys))
    rhs = _masked_rhs(rhs, op.mask)
    q_mean = float(np.mean(q if op.mask is None else q[op.mask.inside]))
    tau = _tau_inverse(op, scale=stepper.diffusion * dt, shift=1.0 + mu * q_mean)
    result = _solve_preconditioned(lhs, tau, rhs, stepper.krylov)
    if not result.ok:
        raise SolverFailure(
            f"three-level step failed: {result.status}, relres {result.relres:.3e}"
        )
    return GridFunction(op.grid, result.x), result


def positive_component_count(u: GridFunction) -> int:
    """Connected components of the region {u > 0} (orthogonal connectivity)."""
    _, count = ndimage.label(u.values_nd > 0.0)
    return int(count)


@dataclass
class ObserverRow:
    step: int
    t: float
    max_norm: float
    l2: float
    mass: float
    components: int
    iterations: int
    seconds: float


@dataclass
class EvolveRecord:
    rows: list[ObserverRow]
    final: GridFunction

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]


def _observe(u: GridFunction, step: int, t: float, iterations: int,
             seconds: float) -> ObserverRow:
    h_d = u.grid.h ** u.grid.dim
    vals = u.values
    return ObserverRow(step=step, t=t,
                       max_norm=float(np.abs(vals).max()),
                       l2=float(np.sqrt(h_d * np.sum(vals**2))),
                       mass=float(h_d * np.sum(vals)),
                       components=positive_component_count(u),
                       iterations=iterations, seconds=seconds)


def evolve(stepper: TimeStepper, operator: VariableOrderOperator,
           u0: GridFunction, frame_dir=None, frame_every: int = 0,
           stop_when=None) -> EvolveRecord:
    """March to t_final recording observers each step.

    ``stop_when`` is an optional predicate on the latest observer row; the
    march ends early once it returns True.

    For the phase-field scheme ``u0`` and all recorded states are physical
    (phase in [-1, 1]); the shifted variable is managed internally and the
    first step is bootstrapped by one Crank-Nicolson step with the
    nonlinearity taken explicitly.  Frames, when requested, are written as
    flat row-major text arrays, one file per step.
    """
    if u0.grid.shape != operator.grid.shape:
        raise GridMismatch("initial data grid does not match operator grid")
    n_steps = int(round(stepper.t_final / stepper.dt))
    rows = [_observe(u0, 0, 0.0, 0, 0.0)]
    _dump_frame(frame_dir, frame_every, 0, u0)

    # advance(k, state) -> (state, physical u at step k, Krylov result)
    if stepper.scheme == "crank_nicolson":
        state = u0

        def advance(k, u):
            u, res = step_crank_nicolson(u, stepper, operator, t=(k - 1) * stepper.dt)
            return u, u, res
    else:
        # three-level scheme in the shifted variable; state = (w^{k-2}, w^{k-1})
        state = (None, GridFunction(operator.grid, u0.values + 1.0))

        def advance(k, state):
            w_prev, w_cur = state
            if k == 1:
                w_next, res = _step_allen_cahn_bootstrap(w_cur, stepper, operator)
            else:
                w_next, res = step_allen_cahn_three_level(w_prev, w_cur, stepper,
                                                          operator)
            return ((w_cur, w_next), GridFunction(operator.grid, w_next.values - 1.0),
                    res)

    u = u0
    for k in range(1, n_steps + 1):
        t0 = time.perf_counter()
        state, u, res = advance(k, state)
        rows.append(_observe(u, k, k * stepper.dt, res.iterations,
                             time.perf_counter() - t0))
        _dump_frame(frame_dir, frame_every, k, u)
        if stop_when is not None and stop_when(rows[-1]):
            break
    return EvolveRecord(rows=rows, final=u)


def _dump_frame(frame_dir, frame_every: int, step: int, u: GridFunction) -> None:
    if frame_dir is None or frame_every <= 0 or step % frame_every != 0:
        return
    np.savetxt(f"{frame_dir}/frame_{step:06d}.txt", u.values_nd.reshape(
        u.grid.shape[0], -1))


def write_residual_csv(result: KrylovResult, path) -> None:
    """Per-iteration relative residuals of one solve."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "relative_residual"])
        for i, r in enumerate(result.residuals):
            writer.writerow([i, f"{r:.6e}"])


def write_observer_csv(record: EvolveRecord, path) -> None:
    """Per-step observer values of one evolution."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "max_norm", "l2", "mass",
                         "components", "iterations", "seconds"])
        for r in record.rows:
            writer.writerow([r.step, f"{r.t:.6e}", f"{r.max_norm:.6e}",
                             f"{r.l2:.6e}", f"{r.mass:.6e}", r.components,
                             r.iterations, f"{r.seconds:.3e}"])

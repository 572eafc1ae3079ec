"""Krylov solver and time steppers for PDEs with the variable-order operator.

The elliptic scheme solves ``(-Lap_h)^{alpha_j/2} u_j + b_j u_j = f_j`` on the
interior nodes with the extended zero condition outside; nodes excluded by an
embedding mask are pinned to zero through identity rows, keeping the system
square and nonsingular.  Every time step solves, pinned the same way,
``(sigma I + c A) w_next = ((2 - sigma) I - c A) w_old + g``; the schemes
differ only in c, sigma and g.  Systems are solved matrix-free by BiCGSTAB,
from zero by default.  Elliptic and phase-field solves are right
preconditioned by the tau-algebra (DST-I) model of a constant-order block,
its inverse Lagrange interpolated in the order over three Chebyshev nodes of
the sampled range and, for the phase-field steps, in sigma over two
Chebyshev nodes of its range.  Crank-Nicolson solves stay unpreconditioned:
their identity-dominated systems converge in a few dozen half-steps, and a
shift model made the ``bench_tanh`` step slower.

BiCGSTAB has one stop rule: the recursive relative residual reaches ``tol``
(converged), or the best residual has not improved for ``STAGNATION_SWEEPS``
full sweeps, eight times as many before any progress (stagnated), or the
recurrence breaks down, or ``max_iter`` sweeps are spent.  A tolerance below
double-precision reach thus means "iterate to stagnation".  Every exit but
converged returns the best iterate with its true relative residual.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.fft as sfft
from scipy import ndimage

from .errors import GridMismatch, InvalidRange, SolverFailure
from .grid import DomainMask, GridFunction
from .lowrank import build_plan, chebyshev_plan, eval_lagrange
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
    "write_observer_csv",
]

LinearMap = Callable[[np.ndarray], np.ndarray]

TAU_ORDER_NODES = 3  # Chebyshev order nodes of the tau inverse
TAU_SHIFT_NODES = 2  # Chebyshev shift nodes of the tau inverse

#: Full sweeps without a new best residual before BiCGSTAB stops as
#: stagnated; eight times as many while the best is within 0.1% of the start,
#: since the initial transient can wander above it for long on stiff systems.
STAGNATION_SWEEPS = 25

#: Most time steps ``t_final / dt`` may ask for.  The longest march the tests
#: and benchmarks run, the phase-field criterion, takes 200.
MAX_STEPS = 2**20


@dataclass(frozen=True)
class KrylovConfig:
    """BiCGSTAB controls; defaults reproduce iterate-to-stagnation behavior.

    ``x0`` is the start (zero if None); ``preconditioner`` is a right
    preconditioner M^-1 that :func:`bicgstab` applies.  The solve entry
    points set it themselves; a value here reaches direct calls only.
    """

    tol: float = 1e-14
    max_iter: int = 5000
    accept_relres: float = 1e-6
    x0: np.ndarray | None = None
    preconditioner: LinearMap | None = None

    def __post_init__(self):
        if isinstance(self.tol, bool) or not 0.0 < self.tol < math.inf:
            raise InvalidRange("tolerance must be positive and finite")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise InvalidRange(f"max_iter must be an integer >= 1, "
                               f"got {self.max_iter!r}")
        if isinstance(self.accept_relres, bool) or not self.accept_relres >= 0.0:
            raise InvalidRange(f"accept_relres must be >= 0, "
                               f"got {self.accept_relres!r}")


@dataclass
class KrylovResult:
    x: np.ndarray
    iterations: int
    relres: float                # recursive if converged, else true ||b - A x||/||b||
    status: str                  # converged | stagnated | max_iter | breakdown
    residuals: list[float] = field(default_factory=list)
    accept_relres: float = 1e-6

    @property
    def ok(self) -> bool:
        return self.status == "converged" or self.relres <= self.accept_relres


def bicgstab(apply_a: LinearMap, rhs: np.ndarray,
             config: KrylovConfig | None = None) -> KrylovResult:
    """BiCGSTAB for a general linear map, right preconditioned by
    ``config.preconditioner`` (M^-1) if one is given.

    The recurrence is van der Vorst's (SIAM J. Sci. Stat. Comput. 13(2),
    1992) with the search direction and half-step residual mapped through
    M^-1 before A; iterates and residuals are those of x, so ``config.x0``
    is the start.

    Iterations are counted in half-steps: every full sweep applies the
    operator twice and produces two iterates, and the count increments at
    each, the usual convention for reported BiCGSTAB iteration numbers.

    Stops on recursive relative residual <= tol (converged), on no
    improvement of the best residual over ``STAGNATION_SWEEPS`` full sweeps,
    eight times as many before any progress (stagnated), on breakdown of the
    recurrence (rho or omega numerically zero), or at ``max_iter`` sweeps.
    Every exit but converged returns the best iterate seen, and reports as
    ``relres`` its true residual ``||b - A x|| / ||b||`` (one extra apply): the
    recursive one can drift far below it once it nears rounding.

    Raises:
        SolverFailure: a NaN or infinity appeared in the iteration.
    """
    cfg = config or KrylovConfig()
    b = np.asarray(rhs, dtype=float).ravel()
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if cfg.x0 is None or b_norm == 0.0:
        x, r = np.zeros(n), b.copy()
    else:
        x = np.array(cfg.x0, dtype=float).ravel()
        r = b - apply_a(x)
    m_inv = cfg.preconditioner if cfg.preconditioner is not None else (lambda v: v)
    r_hat = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    relres = float(np.linalg.norm(r)) / b_norm if b_norm else 0.0
    residuals = [relres]
    best_x, best_res, best_half = x.copy(), relres, 0
    status = "converged" if relres <= cfg.tol else "max_iter"
    half = it = 0
    while status == "max_iter" and it < cfg.max_iter:
        it += 1
        rho = float(r_hat @ r)
        if abs(rho) < 1e-300:
            status = "breakdown"
            break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = m_inv(p)
        v = apply_a(p_hat)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            status = "breakdown"
            break
        alpha = rho / denom
        s = x + alpha * p_hat      # half-step iterate
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
        s_hat = m_inv(res_half)
        t = apply_a(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            status = "breakdown"
            break
        omega = float(t @ res_half) / tt
        if omega == 0.0:
            status = "breakdown"
            break
        x = s + omega * s_hat
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
        leash = 2 * STAGNATION_SWEEPS
        if best_res >= 0.999 * residuals[0]:
            leash *= 8
        if half - best_half >= leash:
            status = "stagnated"
            break
    if status != "converged":
        x, half = best_x, best_half
        relres = float(np.linalg.norm(b - apply_a(x))) / b_norm
    return KrylovResult(x=x, iterations=half, relres=relres, status=status,
                        residuals=residuals, accept_relres=cfg.accept_relres)


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


def _pinned_map(op: VariableOrderOperator, scale: float,
                sigma: float | np.ndarray = 0.0) -> LinearMap:
    """Linear map u -> scale*(A u) + sigma*u, identity on masked rows."""
    mask = op.mask
    diagonal = np.ndim(sigma) > 0 or sigma != 0.0

    def apply_a(u: np.ndarray) -> np.ndarray:
        out = scale * op._apply_flat(u)
        if diagonal:
            out += sigma * u
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
                 shift: float | np.ndarray = 0.0) -> LinearMap:
    """``M^-1`` for the tau model M of ``diag(shift) + scale*A``.

    S is the orthonormal DST-I, its own inverse; it diagonalizes the tau
    (sine-algebra) approximation of a constant-order Toeplitz block, whose
    eigenvalues are ``h^(-a) Lam^(a/2)`` with ``Lam = sum_p 4 sin^2(theta_p/2)``
    at ``theta_k = k pi / (N_p + 1)``.

    The frozen-coefficient inverse ``S (sigma + scale h^(-a) Lam^(a/2))^-1 S``
    is Lagrange interpolated in the order a over ``TAU_ORDER_NODES``
    Chebyshev nodes alpha_p of the sampled range, the split the operator uses
    for its own rank sum, and in the shift sigma over ``TAU_SHIFT_NODES``
    Chebyshev nodes sigma_s of the shift's range on unmasked nodes:

        M^-1 v = sum_s L_s(sigma_j) S sum_p (sigma_s h^alpha_p
                 + scale Lam^(alpha_p/2))^-1 S (L_p(alpha_j) h^alpha_j v_j).

    The order weights act before the transforms, so h^(-alpha_j) is undone
    exactly and the order sum costs one DST per order node; the shift weights
    act after them, one inverse DST per shift node.  A constant order or
    shift collapses its sum to one node.  The map is the identity on masked
    rows.
    """
    shape = op.grid.shape
    alphas = op.field.sampled
    h = op.grid.h
    thetas = [np.pi * np.arange(1, n + 1) / (n + 1) for n in shape]
    lam = symbol(np.stack(np.meshgrid(*thetas, indexing="ij"), axis=-1), 1.0)
    order_plan = build_plan(alphas.min(), alphas.max(), TAU_ORDER_NODES)
    # row p: L_p(alpha_j) h^alpha_j
    order_weights = np.ascontiguousarray(
        eval_lagrange(order_plan, alphas).T * h ** alphas)
    sigma = np.broadcast_to(np.asarray(shift, dtype=float), alphas.shape)
    inside = sigma if op.mask is None else sigma[op.mask.inside]
    lo, hi = inside.min(), inside.max()
    shift_plan = chebyshev_plan(lo, hi, TAU_SHIFT_NODES)
    # rows L_s(sigma_j) but the last, which is one minus their sum; masked
    # nodes may lie outside the range and are clipped (their rows are pinned)
    shift_weights = np.ascontiguousarray(
        eval_lagrange(shift_plan, np.clip(sigma, lo, hi)).T[:-1])
    inv_lams = []  # row p: (sigma_s h^alpha_p + scale Lam^(alpha_p/2))^-1 over s
    for a in order_plan.nodes:
        scaled = scale * lam ** (a / 2.0)
        inv_lams.append([1.0 / (s * h ** a + scaled) for s in shift_plan.nodes])
    outside = None if op.mask is None else ~op.mask.inside

    def inverse(v: np.ndarray) -> np.ndarray:
        accs = [0.0] * len(shift_plan.nodes)
        for c, invs in zip(order_weights, inv_lams):
            v_hat = sfft.dstn((c * v).reshape(shape), type=1, norm="ortho",
                              overwrite_x=True)
            accs = [acc + inv * v_hat for acc, inv in zip(accs, invs)]
        outs = [sfft.dstn(acc, type=1, norm="ortho", overwrite_x=True).ravel()
                for acc in accs]
        out = sum((w * (o - outs[-1]) for w, o in zip(shift_weights, outs)),
                  outs[-1])
        if outside is not None:
            out[outside] = v[outside]
        return out

    return inverse


def _solve(what: str, op: VariableOrderOperator, apply_a: LinearMap,
           rhs: np.ndarray, krylov: KrylovConfig | None,
           inverse: LinearMap | None) -> tuple[GridFunction, KrylovResult]:
    """BiCGSTAB on ``apply_a u = rhs`` with rhs zeroed on masked rows and
    M^-1 = ``inverse``; raises SolverFailure unless the result is ``ok``."""
    result = bicgstab(apply_a, _masked_rhs(rhs, op.mask),
                      replace(krylov or KrylovConfig(), preconditioner=inverse))
    if not result.ok:
        raise SolverFailure(f"{what} ended with status {result.status}, "
                            f"relative residual {result.relres:.3e}")
    return GridFunction(op.grid, result.x), result


def solve_elliptic(problem: EllipticProblem,
                   config: KrylovConfig | None = None) -> SolveOutcome:
    """Solve the elliptic scheme by right-preconditioned BiCGSTAB.

    M^-1 is the unshifted tau inverse of ``_tau_inverse``, in place of any
    ``config.preconditioner``; the reaction term stays out of M.  Masked
    nodes stay at zero.

    Raises:
        SolverFailure: the Krylov iteration broke down or left a residual
            above ``config.accept_relres``.
    """
    op = problem.operator
    sigma = problem.b.values if problem.b is not None else 0.0
    u, result = _solve("elliptic solve", op, _pinned_map(op, 1.0, sigma),
                       problem.f.values, config, _tau_inverse(op))
    return SolveOutcome(u=u, krylov=result)


@dataclass(frozen=True)
class TimeStepper:
    """Time-stepping configuration.

    ``scheme`` is "crank_nicolson" or "allen_cahn" (the three-level linearized
    scheme; ``kappa`` is its interface width, unused otherwise).  ``source``
    maps (points, t) to values, for Crank-Nicolson only; ``diffusion`` scales
    the operator.
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
        if not (math.isfinite(self.dt) and math.isfinite(self.t_final)):
            raise InvalidRange(f"dt and t_final must be finite, got "
                               f"dt = {self.dt}, t_final = {self.t_final}")
        if self.dt <= 0.0 or self.t_final < self.dt:
            raise InvalidRange("need dt > 0 and t_final >= dt")
        if not self.t_final / self.dt <= MAX_STEPS:
            raise InvalidRange(f"t_final / dt = {self.t_final / self.dt:.3g} "
                               f"exceeds the limit of {MAX_STEPS} steps")
        if not math.isfinite(self.kappa) or (self.scheme == "allen_cahn"
                                             and self.kappa <= 0.0):
            raise InvalidRange("kappa must be finite, and > 0 for Allen-Cahn")
        if self.scheme == "allen_cahn" and self.source is not None:
            raise InvalidRange("the Allen-Cahn scheme takes no source")
        if not 0.0 <= self.diffusion < math.inf:
            raise InvalidRange("diffusion coefficient must be finite and >= 0")


def _implicit_step(what: str, op: VariableOrderOperator, w_old: GridFunction,
                   c: float, sigma: float | np.ndarray, g: float | np.ndarray,
                   krylov: KrylovConfig, precondition: bool = True
                   ) -> tuple[GridFunction, KrylovResult]:
    """Solve ``(sigma I + c A) w_next = ((2 - sigma) I - c A) w_old + g``, the
    system of every time step, pinned on masked rows; right preconditioned by
    its tau model, or plain whatever ``krylov`` holds if not ``precondition``."""
    rhs = _pinned_map(op, -c, 2.0 - sigma)(w_old.values) + g
    inverse = _tau_inverse(op, scale=c, shift=sigma) if precondition else None
    return _solve(what, op, _pinned_map(op, c, sigma), rhs, krylov, inverse)


def step_crank_nicolson(u_prev: GridFunction, stepper: TimeStepper,
                        operator: VariableOrderOperator,
                        t: float = 0.0) -> tuple[GridFunction, KrylovResult]:
    """One Crank-Nicolson step of ``u_t + diffusion*A u = f``: the step
    system with c = diffusion*dt/2, sigma = 1, g = dt f(t + dt/2), solved by
    plain BiCGSTAB."""
    dt = stepper.dt
    g = 0.0 if stepper.source is None else dt * np.asarray(
        stepper.source(operator.grid.points(), t + dt / 2.0), dtype=float).ravel()
    return _implicit_step("Crank-Nicolson step", operator, u_prev,
                          stepper.diffusion * dt / 2.0, 1.0, g, stepper.krylov,
                          precondition=False)


def _step_allen_cahn_bootstrap(w: GridFunction, stepper: TimeStepper,
                               operator: VariableOrderOperator
                               ) -> tuple[GridFunction, KrylovResult]:
    """First phase-field step, in the shifted variable w = phi + 1 of
    ``step_allen_cahn_three_level``: Crank-Nicolson with the nonlinearity
    explicit, g = -(dt/kappa^2)(phi^3 - phi), tau preconditioned."""
    dt = stepper.dt
    phys = w.values - 1.0
    return _implicit_step("bootstrap step", operator, w, stepper.diffusion * dt / 2.0,
                          1.0, -(dt / stepper.kappa**2) * (phys**3 - phys),
                          stepper.krylov)


def step_allen_cahn_three_level(u_nm1: GridFunction, u_n: GridFunction,
                                stepper: TimeStepper,
                                operator: VariableOrderOperator
                                ) -> tuple[GridFunction, KrylovResult]:
    """One step of the three-level linearized phase-field scheme.

    All arguments are in the shifted variable (physical phase + 1), which
    carries the homogeneous exterior condition.  The cubic is linearized
    about the middle level, u^3 ~ (u^n)^2 * u-averaged, while the mild -u
    part stays explicit; with mu = dt/kappa^2 and q = (u^n)^2 this is the
    step system with c = dt, sigma = 1 + mu q and g = 2 mu (q + u^n):

        (I + dt A + mu diag(q)) w^{n+1}
            = (I - dt A - mu diag(q)) w^{n-1} + 2 mu (q + u^n).

    The nonnegative implicit factor q keeps the scheme stable at dt ~
    kappa^2; fully explicit or fully averaged treatments of the double-well
    term are leapfrog-unstable there.  The solve is right preconditioned by
    the tau model with the per-node shift sigma.
    """
    dt = stepper.dt
    mu = dt / stepper.kappa**2
    phys = u_n.values - 1.0
    q = phys**2
    return _implicit_step("three-level step", operator, u_nm1, stepper.diffusion * dt,
                          1.0 + mu * q, 2.0 * mu * (q + phys), stepper.krylov)


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
    nonlinearity taken explicitly.  Masked nodes read the exterior value from
    row 0 on, whatever ``u0`` holds there: 0 for Crank-Nicolson and -1 for
    the phase-field scheme.  Frames, when requested, are written as flat
    row-major text arrays, one file per step.
    """
    if u0.grid.shape != operator.grid.shape:
        raise GridMismatch("initial data grid does not match operator grid")
    if operator.mask is not None:
        outside = -1.0 if stepper.scheme == "allen_cahn" else 0.0
        u0 = GridFunction(operator.grid,
                          np.where(operator.mask.inside, u0.values, outside))
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

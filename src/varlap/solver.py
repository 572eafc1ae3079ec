"""Krylov solver and time steppers for PDEs with the variable-order operator.

The elliptic scheme solves ``(-Lap_h)^{alpha_j/2} u_j + b_j u_j = f_j`` on the
interior nodes with the extended zero condition outside; nodes excluded by an
embedding mask are pinned to zero through identity rows, keeping the system
square and nonsingular.  Every solve is one system, pinned the same way,
``(sigma I + c A) w_next = ((2 - sigma) I - c A) w_old + g``: the time
schemes differ only in c, sigma and g, and the elliptic scheme is the
system from w_old = 0 with c = 1, sigma = b and g = f.  Systems are solved
matrix-free by BiCGSTAB, which starts from zero.  Elliptic solves, the
phase-field steps and every step of the :func:`evolve` march are right
preconditioned by the tau-algebra (DST-I) model of a constant-order block,
its inverse Lagrange interpolated in the order over three Chebyshev nodes of
the sampled range and in sigma over two Chebyshev nodes of its range.  The
order side of that inverse is built once per march or solve; each
(c, sigma) builds only its shift side.  The single step
``step_crank_nicolson`` stays plain BiCGSTAB.

The march of :func:`evolve`, one loop for both schemes, carries A w from
each solve, as ``c A w_next = rhs - sigma w_next`` (off by that solve's
residual), so only its first step applies the operator to its right-hand
side.  Once two states are carried, a step starts from
``x0 = 2 w^n - w^{n-1}``, whose residual the carried values give without an
apply, and BiCGSTAB solves for the correction with ``tol`` rescaled so that
it stays relative to ||rhs||.  The public step functions take no carried
state and start from zero.

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
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.fft as sfft
from scipy import ndimage

from .errors import InvalidRange, SolverFailure, check_integer, is_real
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

    ``preconditioner`` is a right preconditioner M^-1 that :func:`bicgstab`
    applies.  Every solve entry point sets it itself, the tau inverse or,
    for ``step_crank_nicolson``, none; a value here reaches direct calls
    only.
    """

    tol: float = 1e-14
    max_iter: int = 5000
    accept_relres: float = 1e-6
    preconditioner: LinearMap | None = None

    def __post_init__(self):
        if not (is_real(self.tol) and 0.0 < self.tol < math.inf):
            raise InvalidRange(f"tolerance must be positive and finite, "
                               f"got {self.tol!r}")
        check_integer(self.max_iter, "max_iter", 1)
        if not (is_real(self.accept_relres) and self.accept_relres >= 0.0):
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
    M^-1 before A; iterates and residuals are those of x, which starts
    from zero.

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

    The vectors are updated in place: x, r, p, one scratch vector and the
    best iterate are allocated once, and ``rhs``, never written, is the
    shadow residual.  The half-step iterate and residual overwrite x and r,
    and a new best is copied into its buffer.  Each update does the
    out-of-place recurrence's operations in its order, so the results are
    bitwise the same.  The maps may alias: the identity preconditioner
    returns p and r themselves, an operator such as ``lambda u: u`` returns
    its input, and a preconditioner may return one reused buffer.  So M^-1 p
    is used up before the next M^-1 call, and x takes omega M^-1 r before r
    takes omega A M^-1 r.  Beside these vectors a sweep holds the maps'
    outputs: A M^-1 p, and M^-1 r and A M^-1 r until they are used up.

    Raises:
        SolverFailure: a NaN or infinity appeared in the iteration.
    """
    cfg = config or KrylovConfig()
    b = np.asarray(rhs, dtype=float).ravel()
    n = b.size
    b_norm = float(np.linalg.norm(b))
    x, r = np.zeros(n), b.copy()
    m_inv = cfg.preconditioner if cfg.preconditioner is not None else (lambda v: v)
    r_hat = b  # the shadow residual; b is never written
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    tmp = np.empty(n)
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
        # p = r + beta (p - omega v)
        np.multiply(omega, v, out=tmp)
        p -= tmp
        p *= beta
        p += r
        p_hat = m_inv(p)
        v = apply_a(p_hat)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            status = "breakdown"
            break
        alpha = rho / denom
        # the half-step iterate and residual, over x and r
        np.multiply(alpha, p_hat, out=tmp)
        x += tmp
        del p_hat  # used up: freed before the next M^-1 call
        np.multiply(alpha, v, out=tmp)
        r -= tmp
        half = 2 * it - 1
        half_norm = float(np.linalg.norm(r)) / b_norm
        residuals.append(half_norm)
        if not math.isfinite(half_norm):
            raise SolverFailure("NaN detected in BiCGSTAB iteration")
        if half_norm < best_res:
            best_x[...] = x
            best_res, best_half = half_norm, half
        if half_norm <= cfg.tol:
            relres = half_norm
            status = "converged"
            break
        s_hat = m_inv(r)
        t = apply_a(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            status = "breakdown"
            break
        omega = float(t @ r) / tt
        if omega == 0.0:
            status = "breakdown"
            break
        # x before r: s_hat and t may be r itself
        np.multiply(omega, s_hat, out=tmp)
        x += tmp
        np.multiply(omega, t, out=tmp)
        r -= tmp
        del s_hat, t
        rho_old = rho
        half = 2 * it
        relres = float(np.linalg.norm(r)) / b_norm
        residuals.append(relres)
        if not math.isfinite(relres):
            raise SolverFailure("NaN detected in BiCGSTAB iteration")
        if relres < best_res:
            best_x[...] = x
            best_res, best_half = relres, half
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
        self.operator._check_grid(f=self.f, b=self.b)
        if self.b is not None and np.any(self.b.values < 0.0):
            raise InvalidRange("reaction coefficient must be nonnegative")


@dataclass
class SolveOutcome:
    u: GridFunction
    krylov: KrylovResult


def _pinned(a_u: np.ndarray, u: np.ndarray, scale: float,
            sigma: float | np.ndarray, mask: DomainMask | None,
            out: np.ndarray | None = None) -> np.ndarray:
    """``scale*a_u + sigma*u`` with ``a_u`` = A u, identity on masked rows;
    written into ``out`` if given, which may be ``a_u``."""
    out = np.multiply(scale, a_u, out=out)
    if np.ndim(sigma) > 0 or sigma != 0.0:
        out += sigma * u
    if mask is not None:
        out[~mask.inside] = u[~mask.inside]
    return out


def _pinned_map(op: VariableOrderOperator, scale: float,
                sigma: float | np.ndarray = 0.0) -> LinearMap:
    """u -> scale*(A u) + sigma*u, identity on masked rows; no apply at scale 0.

    The map owns one apply workspace (``op._workspace()``), allocated here
    and freed with the map, so it lives for one solve or one right-hand
    side, and the map may be called from one thread at a time.  At scale 0
    it allocates none.
    """
    work = op._workspace() if scale != 0.0 else None

    def apply_a(u: np.ndarray) -> np.ndarray:
        a_u = op._apply_flat(u, work) if scale != 0.0 else np.zeros_like(u)
        return _pinned(a_u, u, scale, sigma, op.mask, out=a_u)

    return apply_a


def _tau_model(op: VariableOrderOperator) -> Callable[..., LinearMap]:
    """The tau model of ``op``: ``(scale, shift=0.0) -> M^-1`` for the tau
    model M of ``diag(shift) + scale*A``.

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
    rows.  The order side (the nodes alpha_p, their weights and the powers
    Lam^(alpha_p/2), with Lam summed from one sine symbol per axis) is built
    here, once, from the operator's grouping of its orders: the weights and
    h^alpha once per distinct order.  Each (scale, shift) builds only the
    shift side.  At scale 0 the model is diag(shift) itself, and M^-1
    divides by it.

    What it holds: the order side a (3, distinct) weight table and the
    three grid-sized powers Lam^(alpha_p/2); each (scale, shift) the
    grid-sized inverse eigenvalues, one per order node and shift node, and
    the per-node shift weights of all shift nodes but the last (none for a
    scalar shift).  Each M^-1 v gathers a row of the table through the
    operator's index into a fresh array, multiplies it by v in place and
    transforms it in place; the last shift node's product is formed in that
    array too.  So beside its output it holds one accumulator per shift
    node and that array, and it neither writes v nor returns it.
    """
    shape, h = op.grid.shape, op.grid.h
    thetas = [np.pi * np.arange(1, n + 1) / (n + 1) for n in shape]
    lam = sum(np.ix_(*[symbol(t[:, None], 1.0) for t in thetas]))
    orders = op._orders
    plan = build_plan(orders[0], orders[-1], TAU_ORDER_NODES)
    # row p: L_p(alpha) h^alpha at each distinct order alpha
    order_weights = eval_lagrange(plan, orders).T
    order_weights *= h ** orders
    index = op._order_index.ravel()
    lam_powers = [lam ** (a / 2.0) for a in plan.nodes]
    outside = None if op.mask is None else ~op.mask.inside

    def inverse_of(scale: float, shift: float | np.ndarray = 0.0) -> LinearMap:
        sigma = np.asarray(shift, dtype=float)
        if scale == 0.0:
            diag = np.broadcast_to(sigma, (op.grid.size,)).copy()
            if outside is not None:
                diag[outside] = 1.0
            return lambda v: v / diag
        inside = sigma if op.mask is None or sigma.ndim == 0 else sigma[op.mask.inside]
        lo, hi = inside.min(), inside.max()
        shift_plan = chebyshev_plan(lo, hi, TAU_SHIFT_NODES)
        # rows L_s(sigma_j) but the last, which is one minus their sum, copied
        # out of eval_lagrange's buffer; none for a scalar shift, whose plan
        # has one node.  Masked nodes may lie outside the range and are
        # clipped (their rows are pinned)
        shift_weights = eval_lagrange(shift_plan,
                                      np.clip(sigma, lo, hi)).T[:-1].copy()
        inv_lams = []  # row p: (sigma_s h^alpha_p + scale Lam^(alpha_p/2))^-1 over s
        for a, lam_power in zip(plan.nodes, lam_powers):
            scaled = scale * lam_power
            inv_lams.append([1.0 / (s * h ** a + scaled) for s in shift_plan.nodes])

        def inverse(v: np.ndarray) -> np.ndarray:
            accs = [np.zeros(shape) for _ in shift_plan.nodes]
            for weights, invs in zip(order_weights, inv_lams):
                c = np.take(weights, index, mode="clip")
                c *= v
                v_hat = sfft.dstn(c.reshape(shape), type=1, norm="ortho",
                                  overwrite_x=True)
                for acc, inv in zip(accs[:-1], invs):
                    acc += inv * v_hat
                v_hat *= invs[-1]
                accs[-1] += v_hat
            *outs, out = [sfft.dstn(acc, type=1, norm="ortho",
                                    overwrite_x=True).ravel() for acc in accs]
            # out + sum_s w_s (o_s - out), in place
            for w, o in zip(shift_weights, outs):
                o -= out
                o *= w
            for o in outs:
                out += o
            if outside is not None:
                out[outside] = v[outside]
            return out

        return inverse

    return inverse_of


def solve_elliptic(problem: EllipticProblem,
                   config: KrylovConfig | None = None) -> SolveOutcome:
    """Solve the elliptic scheme by right-preconditioned BiCGSTAB.

    It is the step system from w_old = 0 with c = 1, sigma = b and g = f.
    M^-1 is the unshifted tau inverse ``_tau_model(op)(1.0)``, in place of
    any ``config.preconditioner``; the reaction term stays out of M.  Masked
    nodes stay at zero.

    Raises:
        SolverFailure: the Krylov iteration broke down or left a residual
            above ``config.accept_relres``.
    """
    op = problem.operator
    sigma = problem.b.values if problem.b is not None else 0.0
    u, result, _ = _implicit_step(
        "elliptic solve", op, GridFunction.zeros(op.grid), 1.0, sigma,
        problem.f.values, config or KrylovConfig(), _tau_model(op)(1.0),
        aw_old=np.zeros(op.grid.size))
    return SolveOutcome(u=u, krylov=result)


@dataclass(frozen=True)
class TimeStepper:
    """Time-stepping configuration.

    ``scheme`` is "crank_nicolson" or "allen_cahn" (the three-level linearized
    scheme; ``kappa`` is its interface width, unused otherwise).  ``source``
    maps (points, t) to values, for Crank-Nicolson only; ``diffusion`` scales
    the operator.  ``t_final`` must be a whole number of steps, to 1e-9
    relative.
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
        for name in ("dt", "t_final", "kappa", "diffusion"):
            value = getattr(self, name)
            if not is_real(value):
                raise InvalidRange(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.dt) and math.isfinite(self.t_final)):
            raise InvalidRange(f"dt and t_final must be finite, got "
                               f"dt = {self.dt}, t_final = {self.t_final}")
        if self.dt <= 0.0 or self.t_final < self.dt:
            raise InvalidRange("need dt > 0 and t_final >= dt")
        steps = self.t_final / self.dt
        if not steps <= MAX_STEPS:
            raise InvalidRange(f"t_final / dt = {steps:.3g} "
                               f"exceeds the limit of {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidRange(f"t_final / dt = {steps:.12g} is not a whole "
                               f"number of steps")
        if not math.isfinite(self.kappa) or (self.scheme == "allen_cahn"
                                             and self.kappa <= 0.0):
            raise InvalidRange("kappa must be finite, and > 0 for Allen-Cahn")
        if self.scheme == "allen_cahn" and self.source is not None:
            raise InvalidRange("the Allen-Cahn scheme takes no source")
        if not 0.0 <= self.diffusion < math.inf:
            raise InvalidRange("diffusion coefficient must be finite and >= 0")


def _implicit_step(what: str, op: VariableOrderOperator, w_old: GridFunction,
                   c: float, sigma: float | np.ndarray, g: float | np.ndarray,
                   krylov: KrylovConfig, inverse: LinearMap | None,
                   aw_old: np.ndarray | None = None,
                   start: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[GridFunction, KrylovResult, np.ndarray | None]:
    """Solve ``(sigma I + c A) w_next = ((2 - sigma) I - c A) w_old + g``, the
    system of every solve, pinned on masked rows: BiCGSTAB with the rhs
    zeroed there and M^-1 = ``inverse``, plain if None whatever ``krylov``
    holds.  Raises SolverFailure unless the result is ``ok``.

    ``aw_old`` is A w_old if the caller carries it; one apply computes it if
    not, and none at c = 0.  ``start`` is an optional warm start
    ``(x0, A x0)``, the second known without an apply: the one warm start,
    which only the march of :func:`evolve` passes.  BiCGSTAB then solves for
    the correction from the residual r0 with ``tol`` scaled by
    ||rhs|| / ||r0||, and the result reports its residuals relative to
    ||rhs||, as a solve from zero does; ``accept_relres`` judges that
    reported residual.

    Also returns A w_next as the solve leaves it, ``(rhs - sigma w_next) / c``
    with masked rows zero: it is off the true one by the solve's residual
    over c, so c times it is off by the residual itself.  None if c = 0.
    """
    rhs = (_pinned_map(op, -c, 2.0 - sigma)(w_old.values) if aw_old is None
           else _pinned(aw_old, w_old.values, -c, 2.0 - sigma, op.mask)) + g
    b = op._masked_input(rhs)
    apply_a = _pinned_map(op, c, sigma)
    cfg = replace(krylov, preconditioner=inverse)
    b_norm = float(np.linalg.norm(b))
    if start is None or b_norm == 0.0:
        result = bicgstab(apply_a, b, cfg)
    else:
        x0, a_x0 = start
        r0 = b - _pinned(a_x0, x0, c, sigma, op.mask)
        r0_norm = float(np.linalg.norm(r0))
        ratio = b_norm / r0_norm if r0_norm > 0.0 else 1.0
        fix = bicgstab(apply_a, r0, replace(cfg, tol=min(cfg.tol * ratio, 1.0)))
        result = replace(fix, x=x0 + fix.x, relres=fix.relres / ratio,
                         residuals=[r / ratio for r in fix.residuals])
    if not result.ok:
        raise SolverFailure(f"{what} ended with status {result.status}, "
                            f"relative residual {result.relres:.3e}")
    aw_next = None
    if c != 0.0:
        aw_next = rhs - sigma * result.x
        aw_next /= c
        if op.mask is not None:
            aw_next[~op.mask.inside] = 0.0
    return GridFunction(op.grid, result.x), result, aw_next


def step_crank_nicolson(u_prev: GridFunction, stepper: TimeStepper,
                        operator: VariableOrderOperator,
                        t: float = 0.0) -> tuple[GridFunction, KrylovResult]:
    """One Crank-Nicolson step of ``u_t + diffusion*A u = f``: the step
    system with c = diffusion*dt/2, sigma = 1, g = dt f(t + dt/2), solved by
    plain BiCGSTAB.  Refuses a stepper of the other scheme."""
    if stepper.scheme != "crank_nicolson":
        raise InvalidRange(f"a Crank-Nicolson step takes a crank_nicolson "
                           f"stepper, got {stepper.scheme!r}")
    operator._check_grid(u_prev=u_prev)
    return _implicit_step("Crank-Nicolson step", operator, u_prev,
                          *_crank_nicolson_system(stepper, operator, t),
                          stepper.krylov, None)[:2]


def _crank_nicolson_system(stepper: TimeStepper, op: VariableOrderOperator,
                           t: float) -> tuple:
    """(c, sigma, g) of ``step_crank_nicolson`` from time t."""
    dt = stepper.dt
    g = 0.0 if stepper.source is None else dt * np.asarray(
        stepper.source(op.grid.points(), t + dt / 2.0), dtype=float).ravel()
    return stepper.diffusion * dt / 2.0, 1.0, g


def _bootstrap_system(w: GridFunction, stepper: TimeStepper) -> tuple:
    """(c, sigma, g) of the first phase-field step: Crank-Nicolson with the
    nonlinearity explicit, g = -(dt/kappa^2)(phi^3 - phi)."""
    dt = stepper.dt
    phys = w.values - 1.0
    return (stepper.diffusion * dt / 2.0, 1.0,
            -(dt / stepper.kappa**2) * (phys**3 - phys))


def _three_level_system(u_n: GridFunction, stepper: TimeStepper) -> tuple:
    """(c, sigma, g) of ``step_allen_cahn_three_level``."""
    dt = stepper.dt
    mu = dt / stepper.kappa**2
    phys = u_n.values - 1.0
    q = phys**2
    return stepper.diffusion * dt, 1.0 + mu * q, 2.0 * mu * (q + phys)


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
    the tau model with the per-node shift sigma, built for this one step.
    Refuses a stepper of the other scheme.
    """
    if stepper.scheme != "allen_cahn":
        raise InvalidRange(f"a three-level step takes an allen_cahn stepper, "
                           f"got {stepper.scheme!r}")
    operator._check_grid(u_nm1=u_nm1, u_n=u_n)
    c, sigma, g = _three_level_system(u_n, stepper)
    return _implicit_step("three-level step", operator, u_nm1, c, sigma, g,
                          stepper.krylov, _tau_model(operator)(c, sigma))[:2]


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

    Both schemes run one march in w = u + shift, shift 1 for the phase-field
    scheme (its shifted variable) and 0 for Crank-Nicolson; ``u0`` and all
    recorded states are physical.  Each step solves the step system of its
    scheme, right preconditioned by the tau model, which the march builds
    once: Crank-Nicolson from w^n, the phase-field bootstrap step
    (Crank-Nicolson with the nonlinearity explicit) from w^0, and the
    three-level step from w^{n-1}.  The march carries A w from each solve,
    so only the first step applies the operator to its right-hand side, and
    none does without diffusion.  It starts a step from ``2 w^n - w^{n-1}``
    once both are carried; its states match those of the public step
    functions up to the solves' residuals.  Masked nodes read the exterior
    value from row 0 on, whatever ``u0`` holds there: 0 for Crank-Nicolson
    and -1 for the phase-field scheme.  Frames, when requested, are written
    as flat row-major text arrays, one file per step.
    """
    operator._check_grid(u0=u0)
    shift = 1.0 if stepper.scheme == "allen_cahn" else 0.0
    if operator.mask is not None:  # w = 0 outside; 0.0 - shift is never -0.0
        u0 = GridFunction(operator.grid,
                          np.where(operator.mask.inside, u0.values, 0.0 - shift))
    n_steps = int(round(stepper.t_final / stepper.dt))
    rows = [_observe(u0, 0, 0.0, 0, 0.0)]
    _dump_frame(frame_dir, frame_every, 0, u0)

    # w and A w of steps n-1 and n, A w as the solve left it (None if the
    # step had c = 0)
    w_prev = aw_prev = aw_cur = None
    w_cur = GridFunction(operator.grid, u0.values + shift)
    u = u0
    tau = _tau_model(operator)
    for k in range(1, n_steps + 1):
        t0 = time.perf_counter()
        if k == 1 and stepper.diffusion != 0.0:
            aw_cur = operator._apply_flat(w_cur.values)
        base = (w_cur, aw_cur)
        if stepper.scheme == "crank_nicolson":
            system = _crank_nicolson_system(stepper, operator, (k - 1) * stepper.dt)
        elif k == 1:
            system = _bootstrap_system(w_cur, stepper)
        else:
            system, base = _three_level_system(w_cur, stepper), (w_prev, aw_prev)
        start = None
        if aw_prev is not None and aw_cur is not None:
            start = (2.0 * w_cur.values - w_prev.values, 2.0 * aw_cur - aw_prev)
        w_next, res, aw_next = _implicit_step(
            f"{stepper.scheme} step {k}", operator, base[0], *system,
            stepper.krylov, tau(*system[:2]), aw_old=base[1], start=start)
        w_prev, aw_prev, w_cur, aw_cur = w_cur, aw_cur, w_next, aw_next
        u = GridFunction(operator.grid, w_next.values - shift)
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

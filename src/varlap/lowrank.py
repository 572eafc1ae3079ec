"""Low-rank decomposition of the variable-order symbol in the order variable.

For the symbol power ``a**(t/2)`` with a = M_h(xi) >= 0, Lagrange
interpolation in t at r Chebyshev points alpha_q of [alpha_min, alpha_max]
splits the variable-order operator into r constant-order ones:

    (-Lap_h)^{alpha(x)/2}  ~=  sum_q diag(L_q(alpha(x))) (-Lap_h)^{alpha_q/2}.

Chebyshev points of the first kind keep every node strictly inside the
interval; evaluation uses the barycentric form, which is O(r) per point,
numerically stable, and exactly cardinal at the nodes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, OutOfRange, RankCapExceeded
from .grid import OrderField

__all__ = [
    "ChebyshevPlan",
    "build_plan",
    "eval_lagrange",
    "rank_coefficients",
    "estimate_rank",
]

RANK_CAP = 32
DEFAULT_RANK = 7


@dataclass(frozen=True)
class ChebyshevPlan:
    """Interpolation nodes and barycentric weights on [alpha_min, alpha_max]."""

    rank: int
    nodes: np.ndarray
    bary_weights: np.ndarray
    alpha_min: float
    alpha_max: float


def check_rank_options(rank: int | None = None,
                       epsilon: float | None = None) -> None:
    """Raise InvalidRange for a rank that is not an integer in 1..RANK_CAP
    or an epsilon that is not > 0 (NaN included)."""
    if rank is not None and (isinstance(rank, bool)
                             or not isinstance(rank, numbers.Integral)
                             or not 1 <= rank <= RANK_CAP):
        raise InvalidRange(f"rank must be an integer in 1..{RANK_CAP}, got {rank!r}")
    if epsilon is not None and not epsilon > 0.0:
        raise InvalidRange(f"epsilon must be positive, got {epsilon}")


def build_plan(alpha_min: float, alpha_max: float, r: int = DEFAULT_RANK) -> ChebyshevPlan:
    """Chebyshev first-kind nodes of the order interval [alpha_min, alpha_max]
    with weights, by :func:`chebyshev_plan`.

    Raises:
        InvalidRange: bounds outside (0, 2], inverted interval, or r
            outside 1..RANK_CAP.
    """
    alpha_min, alpha_max = float(alpha_min), float(alpha_max)
    if not (0.0 < alpha_min <= alpha_max <= 2.0):
        raise InvalidRange(f"interval [{alpha_min}, {alpha_max}] outside (0, 2]")
    check_rank_options(rank=r)
    return chebyshev_plan(alpha_min, alpha_max, r)


def chebyshev_plan(lo: float, hi: float, r: int) -> ChebyshevPlan:
    """Chebyshev first-kind nodes of any interval lo <= hi with weights.

    A degenerate interval (lo == hi) collapses to the single node with L_1
    identically one.
    """
    lo, hi = float(lo), float(hi)
    if lo == hi:
        return ChebyshevPlan(rank=1, nodes=np.array([lo]),
                             bary_weights=np.array([1.0]),
                             alpha_min=lo, alpha_max=hi)
    r = int(r)
    k = np.arange(1, r + 1)
    theta = (2.0 * k - 1.0) * np.pi / (2.0 * r)
    # cos(theta) is decreasing; flip for ascending nodes
    ref = np.cos(theta)[::-1]
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * ref
    # first-kind barycentric weights up to a common factor: (-1)^q sin(theta_q)
    w = ((-1.0) ** k * np.sin(theta))[::-1]
    return ChebyshevPlan(rank=r, nodes=nodes, bary_weights=w,
                         alpha_min=lo, alpha_max=hi)


def eval_lagrange(plan: ChebyshevPlan, t) -> np.ndarray:
    """Evaluate all Lagrange cardinal polynomials at ``t``.

    Returns shape (r,) for scalar t, else t.shape + (r,).  Exact node hits
    return the corresponding unit vector; components always sum to one.

    Raises:
        OutOfRange: some t outside [alpha_min, alpha_max].
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < plan.alpha_min - 1e-12) or np.any(t_arr > plan.alpha_max + 1e-12):
        raise OutOfRange(
            f"t outside [{plan.alpha_min}, {plan.alpha_max}]"
        )
    flat = t_arr.ravel()
    if plan.rank == 1:
        out = np.ones((flat.size, 1))
    else:
        # (r, n): the reductions run over the short rank axis as r whole-row
        # adds, not as n strided short sums
        diff = flat[None, :] - plan.nodes[:, None]
        hit = np.abs(diff) < 1e-14
        safe = np.where(hit, 1.0, diff)
        kern = plan.bary_weights[:, None] / safe
        out = (kern / kern.sum(axis=0)).T
        cols = hit.any(axis=0)
        if cols.any():
            out[cols] = hit[:, cols].T
    out = out.reshape(t_arr.shape + (plan.rank,))
    return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def rank_coefficients(plan: ChebyshevPlan, field: OrderField) -> np.ndarray:
    """Per-node Lagrange values c_q(x_j) = L_q(alpha_j), shape (nodes, rank).

    Rows sum to one (partition of unity of the Lagrange basis).
    """
    if field.sampled is None:
        raise InvalidRange("order field must be sampled first")
    return eval_lagrange(plan, field.sampled)


def _sample_symbol_values(h: float, dim: int) -> np.ndarray:
    """Representative symbol values a = M_h(xi) on a dense xi sweep.

    Covers [0, 4*dim/h^2] linearly plus a logarithmic refinement toward 0,
    where the interpolated function a**(t/2) varies fastest in t.
    """
    a_max = 4.0 * dim / h**2
    lin = a_max * np.sin(np.linspace(0.0, np.pi / 2.0, 1500)) ** 2
    logs = a_max * np.logspace(-12, 0, 600)
    return np.unique(np.concatenate([lin[1:], logs]))


def interpolation_error(plan: ChebyshevPlan, h: float, dim: int = 1,
                        nt: int = 240) -> float:
    """Measured sup error of the plan over a dense (t, a) sample grid.

    The error is relative to the largest sampled symbol power
    ``a_max**(alpha_max/2)`` so the certificate is h-aware.
    """
    a = _sample_symbol_values(h, dim)
    t = np.linspace(plan.alpha_min, plan.alpha_max, nt)
    la = np.log(a)
    exact = np.exp(np.outer(t / 2.0, la))
    basis = np.exp(np.outer(plan.nodes / 2.0, la))
    approx = eval_lagrange(plan, t) @ basis
    scale = float(np.max(a)) ** (plan.alpha_max / 2.0)
    return float(np.abs(exact - approx).max()) / scale


def estimate_rank(alpha_min: float, alpha_max: float, h: float,
                  epsilon: float, dim: int = 1) -> tuple[int, float]:
    """Smallest rank whose measured interpolation error is below epsilon.

    Sweeps r upward, measuring the sup error of each plan over dense (t, a)
    samples as in :func:`interpolation_error`.  Returns (r, measured_error).

    Raises:
        RankCapExceeded: no r <= 32 meets the tolerance.
    """
    check_rank_options(epsilon=epsilon)
    if alpha_min == alpha_max:
        return 1, 0.0
    for r in range(1, RANK_CAP + 1):
        err = interpolation_error(build_plan(alpha_min, alpha_max, r), h, dim)
        if err <= epsilon:
            return r, err
    raise RankCapExceeded(
        f"no rank <= {RANK_CAP} reaches epsilon = {epsilon:g} on "
        f"[{alpha_min}, {alpha_max}] at h = {h:g}"
    )

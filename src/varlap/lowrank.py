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

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidDim, InvalidRange, OutOfRange, RankCapExceeded,
                     check_integer, is_real)

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


def build_plan(alpha_min: float, alpha_max: float, r: int = DEFAULT_RANK) -> ChebyshevPlan:
    """Chebyshev first-kind nodes of the order interval [alpha_min, alpha_max]
    with weights, by :func:`chebyshev_plan`.

    Raises:
        InvalidRange: bounds outside (0, 2], inverted interval, or r not
            an integer in 1..RANK_CAP.
    """
    alpha_min, alpha_max = float(alpha_min), float(alpha_max)
    if not (0.0 < alpha_min <= alpha_max <= 2.0):
        raise InvalidRange(f"interval [{alpha_min}, {alpha_max}] outside (0, 2]")
    return chebyshev_plan(alpha_min, alpha_max,
                          check_integer(r, "rank", 1, RANK_CAP))


def chebyshev_plan(lo: float, hi: float, r: int) -> ChebyshevPlan:
    """Chebyshev first-kind nodes of any interval lo <= hi with weights.

    A degenerate interval (lo == hi) collapses to the single node with L_1
    identically one.  ``r`` is a positive int, as :func:`build_plan` checks.
    """
    lo, hi = float(lo), float(hi)
    if lo == hi:
        return ChebyshevPlan(rank=1, nodes=np.array([lo]),
                             bary_weights=np.array([1.0]),
                             alpha_min=lo, alpha_max=hi)
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

    The n = t.size values are computed in place in one C-ordered (r, n)
    buffer: the differences t - alpha_q, the barycentric quotients
    w_q / (t - alpha_q) (a node hit, |t - alpha_q| < 1e-14, divides by
    one), their normalisation by the column sums, and the unit columns of
    the hits.  So the call holds at most that buffer plus a few length-n
    vectors, and the result is its transposed view: for a one-dimensional
    t, ``.T`` of the result is the C-ordered (r, n) buffer, which a caller
    may scale in place.  Each point's values are bitwise the same whether
    it is evaluated alone or among others.

    Raises:
        OutOfRange: some t outside [alpha_min, alpha_max], or NaN.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    # min and max propagate NaN, which then fails both comparisons
    if t_arr.size and not (plan.alpha_min - 1e-12 <= t_arr.min()
                           and t_arr.max() <= plan.alpha_max + 1e-12):
        raise OutOfRange(
            f"t outside [{plan.alpha_min}, {plan.alpha_max}]"
        )
    # (r, n): the reductions run over the short rank axis as r whole-row
    # adds, not as n strided short sums
    buf = np.subtract(t_arr.ravel()[None, :], plan.nodes[:, None])
    hits = [np.flatnonzero(np.abs(row) < 1e-14) for row in buf]
    for row, idx in zip(buf, hits):
        row[idx] = 1.0
    np.divide(plan.bary_weights[:, None], buf, out=buf)
    # the column sums row by row, in ascending q, whatever n is: for a
    # single column of 8 or more rows numpy's buf.sum(axis=0) sums pairwise,
    # so a point's values would depend on how many points share the call
    total = buf[0].copy()
    for row in buf[1:]:
        total += row
    buf /= total
    for idx in hits:
        buf[:, idx] = 0.0
    for row, idx in zip(buf, hits):
        row[idx] = 1.0
    out = buf.T.reshape(t_arr.shape + (plan.rank,))
    return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


#: entries per step of :func:`distinct_values`' gathers and scatters
_CHUNK = 2**12


def distinct_values(*keys: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``(distinct, index)``: the distinct tuples of the equal-length 1D
    ``keys``, one array per key, sorted by the first key and ties by the
    next, and each entry's position among them, as ``np.unique(key,
    return_inverse=True)`` gives them for one key.

    One sort serves the tuples and the index, and each chunk of sorted keys
    is gathered once, so beside the sort permutation and the index the call
    holds one flag per entry; ``np.unique`` holds three more length-n arrays.
    """
    n = keys[0].size
    perm = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    # first[k]: the k-th smallest tuple differs from the one before it
    first = np.ones(n, dtype=bool)
    for k in range(1, n, _CHUNK):
        stop = min(k + _CHUNK, n)
        part = first[k:stop]
        part[:] = False
        for key in keys:
            ordered = key[perm[k - 1:stop]]
            part |= ordered[1:] != ordered[:-1]
    starts = perm[first]
    distinct = tuple(key[starts] for key in keys)
    # an entry's position: the distinct tuples up to its place in the sort
    index = np.empty(n, dtype=np.intp)
    count = -1
    for k in range(0, n, _CHUNK):
        rows = np.cumsum(first[k:k + _CHUNK])
        rows += count
        index[perm[k:k + _CHUNK]] = rows
        count = rows[-1]
    return distinct, index


def rank_coefficients(plan: ChebyshevPlan, orders: np.ndarray,
                      h: float) -> np.ndarray:
    """The C-ordered (rank, orders) table of the rank sum's coefficients:
    row q is :func:`eval_lagrange` at the distinct ``orders``, scaled in
    place by the float h^(-alpha_q).  Unscaled, each column sums to one.
    """
    table = eval_lagrange(plan, orders).T
    table *= np.array([float(h) ** (-float(a)) for a in plan.nodes])[:, None]
    return table


def _sample_symbol_values(h: float, dim: int) -> np.ndarray:
    """Representative symbol values a = M_h(xi) on a dense xi sweep.

    Covers [0, 4*dim/h^2] linearly plus a logarithmic refinement toward 0,
    where the interpolated function a**(t/2) varies fastest in t.
    """
    a_max = 4.0 * dim / h**2
    lin = a_max * np.sin(np.linspace(0.0, np.pi / 2.0, 1500)) ** 2
    logs = a_max * np.logspace(-12, 0, 600)
    return np.unique(np.concatenate([lin[1:], logs]))


def interpolation_error(plan: ChebyshevPlan, h: float, dim: int = 1) -> float:
    """Measured sup error of the plan over a dense (t, a) sample grid of
    240 orders.

    The error is relative to the largest sampled symbol power
    ``a_max**(alpha_max/2)`` so the certificate is h-aware.
    """
    a = _sample_symbol_values(h, dim)
    t = np.linspace(plan.alpha_min, plan.alpha_max, 240)
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
        InvalidRange: epsilon not a positive real number (NaN included).
        InvalidDim: dim not an integer in 1..3.
        RankCapExceeded: no r <= 32 meets the tolerance.
    """
    if not (is_real(epsilon) and epsilon > 0.0):      # NaN fails too
        raise InvalidRange(f"epsilon must be a positive real number, got {epsilon!r}")
    dim = check_integer(dim, "dim", 1, 3, InvalidDim)
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

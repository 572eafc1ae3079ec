"""Finite-difference weights for the discrete fractional Laplacian.

The discrete operator of order alpha has the Fourier multiplier
``M_h(xi) = sum_p (4/h^2) sin^2(xi_p h / 2)`` raised to the power alpha/2.
Its stencil weights are the Fourier coefficients of the h-free symbol

    phi(eta) = (sum_p 4 sin^2(eta_p / 2))**(alpha/2),   eta in [-pi, pi]^d,

so ``a_n = (2*pi)^-d * integral phi(eta) exp(-i n.eta) d eta``.  In 1D the
integral has a closed form through a ratio of Gamma functions; in any
dimension the trapezoidal rule on the periodic cell turns the whole table
into one inverse DFT of the sampled symbol.

The symbol is even in every component of eta, so the inverse DFT reduces to a
type-I cosine transform on the nonnegative quadrant.  Every weight array here
is such a nonnegative-offset block, entry n the weight at offset n; the rest
follows by evenness (:func:`signed_block`).  Weights are even
(a_n = a_-n), have a positive center and nonpositive tails, sum to zero over
the full periodic table (the symbol vanishes at eta = 0), and decay like
|n|^(-d-alpha).

The trapezoidal table of size m is the aliased sum
``sum_k a_(n+km)``; the far weights follow ``-C_{d,alpha} |j|^(-d-alpha)``,
so its error decays only algebraically in m.  :func:`alias_corrected_block`
adds those aliases back in 2D (Navot 1961; Lyness 1976) and leaves about
1e-11 at m = 4N, N = 63.

:func:`operator_block` is the one place that picks the weights an operator
applies, and their quadrature size: the closed form in 1D, the
alias-corrected table in 2D and the plain table in 3D.  The fast kernels,
the direct rows and ``varlap weights`` all read it.

Tables are built afresh on every call.  An operator's table keeps only its
offsets 0..N per axis, and each axis of the transform stops there, so a 2D
N = 511 table (m = 2048) is 2.1 MB and takes about 30 ms, against 8.4 MB and
35-45 ms for the whole quadrant.  The symbol is sampled one slab of the last
axis at a time, so a table's build holds the cut table, one slab and the
result, never the sampled quadrant: 6.4 MiB for the 2.0 MiB table of 3D
N = 63 (m = 256), where the quadrant alone is 16.4 MiB.  The one cache is
the order-free geometry of the 2D alias sum, which :func:`clear_weight_cache`
drops.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import (InvalidDim, OrderOutOfRange, QuadratureTooCoarse, SizeMismatch,
                     check_integer, is_real)
from .lowrank import chebyshev_plan, eval_lagrange
from .oracle import normalization_constant

__all__ = [
    "WeightTable",
    "DecayReport",
    "symbol",
    "weights_nd_fft",
    "alias_corrected_block",
    "signed_block",
    "operator_block",
    "check_decay",
    "dump_csv",
    "default_quadrature_size",
    "clear_weight_cache",
]

def symbol(xi, h: float):
    """Discrete Laplacian multiplier ``sum_p (4/h^2) sin^2(xi_p h / 2)``.

    ``xi`` may be a scalar (1D) or an array whose last axis indexes the
    dimension; returns a scalar for a single point.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return float(4.0 / h**2 * np.sin(xi * h / 2.0) ** 2)
    out = np.sum(4.0 / h**2 * np.sin(xi * h / 2.0) ** 2, axis=-1)
    return float(out) if out.ndim == 0 else out


def _check_alpha(alpha: float) -> float:
    # NaN and infinities fail the comparison
    if not (is_real(alpha) and 0.0 < alpha <= 2.0):
        raise OrderOutOfRange(f"order {alpha!r} outside (0, 2]")
    return float(alpha)


@dataclass(frozen=True)
class WeightTable:
    """Trapezoidal weights of one constant order at quadrature size m.

    ``values`` is the nonnegative-offset block of offsets 0..K per axis:
    K = m/2 for the whole table, from which the period-m table follows by
    evenness and aliasing modulo m, or the ``target_n`` it was cut at.
    """

    alpha: float
    dim: int
    m: int
    values: np.ndarray

    def total_sum(self) -> float:
        """Sum of all m**dim periodic values; a cut table raises SizeMismatch."""
        if self.values.shape[0] != self.m // 2 + 1:
            raise SizeMismatch(f"table cut below offset m/2 = {self.m // 2} "
                               "has no periodic sum")
        # multiplicity 2 everywhere except the self-symmetric planes 0 and m/2
        w = np.full(self.m // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        out = self.values
        for _ in range(self.dim):
            out = np.tensordot(out, w, axes=([-1], [0]))
        return float(out)


def signed_block(block: np.ndarray, kmax: int | None = None) -> np.ndarray:
    """Weights at offsets -kmax..kmax per axis from a block of offsets 0..K.

    ``kmax`` defaults to K; axis position i of the result is offset i - kmax.
    A negative or non-integer kmax raises InvalidDim, one above K
    QuadratureTooCoarse.
    """
    k = block.shape[0] - 1
    kmax = k if kmax is None else check_integer(kmax, "kmax", 0, error=InvalidDim)
    if kmax > k:
        raise QuadratureTooCoarse(f"offset {kmax} exceeds block range {k}")
    idx = np.abs(np.arange(-kmax, kmax + 1))
    return block[np.ix_(*([idx] * block.ndim))]


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def default_quadrature_size(dim: int, n_target: int) -> int:
    """Quadrature size of the 2D and 3D operator weights at N = ``n_target``,
    the one size rule of :func:`operator_block`.

    In 2D the operator adds the trapezoidal aliases back
    (:func:`alias_corrected_block`), which leaves an error of order
    m^(-4-alpha), about 1e-11 at N = 63 and m = next_pow2(4N).  The floor
    of 128 serves coarse grids: at N = 7 and m = 32 that error would be
    4e-8, more than the plain m = 512 table used to have.  The plain 3D
    table aliases with error O(m^(-3-alpha)) and keeps a lean multiple,
    floored at 64 and capped at 512, but never below 2N + 2.  The 1D
    weights are the closed form and need no quadrature.

    Raises:
        InvalidDim: dim not 2 or 3, or n_target not an integer >= 1.
    """
    dim = check_integer(dim, "dim", 2, 3, InvalidDim)
    n_target = check_integer(n_target, "n_target", 1, error=InvalidDim)
    if dim == 2:
        return max(_next_pow2(4 * n_target), 128)
    return max(min(max(_next_pow2(4 * n_target), 64), 512),
               _next_pow2(2 * n_target + 2))


#: Sample points per slab of the last axis that :func:`weights_nd_fft` builds
#: its table in (0.25 MiB of doubles)
_SLAB_ELEMENTS = 2**15


def weights_nd_fft(alpha: float, dim: int, m: int,
                   target_n: int | None = None) -> WeightTable:
    """Weight table in ``dim`` dimensions by trapezoidal quadrature.

    Samples the symbol at the M^d points ``eta = m_vec * 2*pi/M``; one
    d-dimensional inverse DFT of the samples approximates the true Fourier
    coefficients with aliasing error O(M^(-d-alpha)).  Because the symbol is
    even in every component, that inverse DFT is a type-I DCT of the samples
    on the nonnegative quadrant, and only that quadrant is computed.

    Without ``target_n`` the whole quadrant, offsets 0..m/2 per axis, is
    kept.  With it only offsets 0..target_n are: axis 0 is transformed
    whole, and each later axis only on the lines the earlier cuts kept
    (pruned output, Markel 1971), in place.  The table is built in slabs of
    the last axis of about ``_SLAB_ELEMENTS`` samples: each slab is sampled,
    transformed along the leading axes, cut and stored, and the last axis
    is transformed once all are stored.  So the sampled quadrant is never
    held whole, and the kept weights are bitwise those of the whole table.

    Args:
        alpha: order in (0, 2].
        dim: 1, 2 or 3.
        m: quadrature size per dimension, a power of two >= 4.
        target_n: interior node count the table serves, a nonnegative
            integer; enforces m >= 2*N and keeps offsets 0..N per axis.

    Raises:
        OrderOutOfRange: alpha outside (0, 2], or not a real number.
        InvalidDim: dim not an integer in 1..3, or target_n not an integer
            >= 0.
        QuadratureTooCoarse: m not an integer power of two >= 4, or
            m < 2*target_n.
    """
    alpha = _check_alpha(alpha)
    dim = check_integer(dim, "dim", 1, 3, InvalidDim)
    m = check_integer(m, "quadrature size m", 4, error=QuadratureTooCoarse)
    if m & (m - 1):
        raise QuadratureTooCoarse(f"quadrature size must be a power of two >= 4, got {m}")
    half = keep = m // 2 + 1
    if target_n is not None:
        target_n = check_integer(target_n, "target_n", 0, error=InvalidDim)
        if m < 2 * target_n:
            raise QuadratureTooCoarse(f"quadrature size {m} < 2*N = {2 * target_n}")
        keep = target_n + 1

    eta = 2.0 * np.pi * np.arange(half) / m
    s = 4.0 * np.sin(eta / 2.0) ** 2
    # the leading axes' part of the sample sums; 0.0 + s adds no rounding
    lead = np.zeros(())
    for _ in range(dim - 1):
        lead = lead[..., None] + s
    # slabs of the last axis, each sampled and transformed along the leading
    # axes on whole lines, then cut: every line sees the transform it would
    # in the whole quadrant, and only one slab is sampled at a time
    width = max(1, _SLAB_ELEMENTS // half ** (dim - 1))
    out = np.empty((keep,) * (dim - 1) + (half,))
    for j in range(0, half, width):
        slab = lead[..., None] + s[j:j + width]
        slab **= alpha / 2.0
        # in place, each dct writing into its view
        for ax in range(dim - 1):
            sfft.dct(slab[(slice(0, keep),) * ax], type=1, axis=ax,
                     overwrite_x=True)
        out[..., j:j + width] = slab[(slice(0, keep),) * (dim - 1)]
    sfft.dct(out, type=1, axis=-1, overwrite_x=True)
    # a cut block divides into a compact copy, which lets the slabs' table go
    if keep < half:
        vals = out[..., :keep] / m**dim
    else:
        vals = np.divide(out, m**dim, out=out)
    return WeightTable(alpha=alpha, dim=dim, m=m, values=vals)


#: Chebyshev nodes per axis at which the 2D alias sum is evaluated, the
#: lattice shells |k|_inf <= _ALIAS_SHELLS it sums term by term, and the
#: Gauss-Legendre rule of its far-field angle integrals
_ALIAS_NODES = 8
_ALIAS_SHELLS = 12
_EDGE_RULE = np.polynomial.legendre.leggauss(12)


@functools.lru_cache(maxsize=8)
def _alias_geometry(n_max: int, m: int) -> tuple[np.ndarray, ...]:
    """The order-free parts of the 2D alias sum for offsets 0..n_max at size m.

    The sum ``G(x) = sum over k in Z^2 minus 0 of |k + x|^(-s)``, s = 2 +
    alpha, is needed at the node pairs x of the Chebyshev grid on
    [0, n_max/m]^2.  The shells |k|_inf <= K are summed term by term.  The
    remaining lattice points are the centers of the unit cells that tile the
    plane outside the square ``Q = x + [-K-1/2, K+1/2]^2``; by the midpoint
    rule their sum is the integral of f = |z|^(-s) over that region minus
    1/24 of the integral of its Laplacian s^2 |z|^(-s-2), with error
    O(K^(-s-2)).  In polar coordinates an edge of Q at distance d is
    ``R(phi) = d / cos(phi)``, so beyond it the two integrals are
    ``int (cos(phi)/d)^alpha / alpha`` and ``s int (cos(phi)/d)^s`` over the
    angle the edge spans, taken by Gauss-Legendre.

    Returns the interpolation matrix of ``chebyshev_plan(0, n_max, 8)`` at
    offsets 0..n_max, log |k + x|^2 over the near shells (k != 0) at each
    node pair (x = plan nodes / m), half the angle each of the four edges
    spans, and log(cos(phi)/d) at the Gauss points of each edge; all
    read-only.
    """
    plan = chebyshev_plan(0.0, n_max, _ALIAS_NODES)
    interp = eval_lagrange(plan, np.arange(n_max + 1.0))
    x = plan.nodes / m
    k = np.arange(-_ALIAS_SHELLS, _ALIAS_SHELLS + 1)
    d2 = (k[None, :] + x[:, None]) ** 2
    r2 = (d2[:, None, :, None] + d2[None, :, None, :]).reshape(x.size, x.size, -1)
    log_r2 = np.log(np.delete(r2, r2.shape[-1] // 2, axis=-1))      # k = 0
    # the four edges of Q: distance from the origin, tangential shift
    x1 = np.broadcast_to(x[:, None], (x.size, x.size))
    x2 = x1.T
    half_width = _ALIAS_SHELLS + 0.5
    dist = half_width + np.stack([x1, -x1, x2, -x2])
    shift = np.stack([x2, x2, x1, x1])
    lo = np.arctan((shift - half_width) / dist)
    hi = np.arctan((shift + half_width) / dist)
    phi = ((lo + hi) / 2)[..., None] + ((hi - lo) / 2)[..., None] * _EDGE_RULE[0]
    log_ratio = np.log(np.cos(phi)) - np.log(dist)[..., None]
    out = (interp, log_r2, (hi - lo) / 2, log_ratio)
    for a in out:
        a.setflags(write=False)
    return out


def clear_weight_cache() -> None:
    """Drop the cached 2D alias geometry, the one table-side cache."""
    _alias_geometry.cache_clear()


def alias_corrected_block(alpha: float, m: int, n_max: int) -> np.ndarray:
    """2D weights at offsets 0..n_max per axis: the plain table plus its aliases.

    The trapezoidal table of size m holds ``sum_k a_(n+km)``.  Far from the
    origin ``a_j = -C |j|^(-2-alpha) (1 + O(|j|^-2))`` with C the
    fractional Laplacian's normalizing constant, so adding back

        C m^(-2-alpha) G(n/m),   G(x) = sum_(k != 0) |k + x|^(-2-alpha),

    leaves an error O(m^(-4-alpha)).  G is analytic on [0, 1/2]^2; it is
    evaluated at 8 x 8 Chebyshev nodes of [0, n_max/m]^2 and interpolated,
    which is exact to rounding for n_max/m <= 1/4 (the default m) and
    within about 1e-5 of the correction at m = 2 n_max.  At alpha = 2 the
    constant vanishes and the block is the plain five-point one.

    Raises:
        OrderOutOfRange: alpha outside (0, 2], or not a real number.
        InvalidDim: n_max not an integer >= 0.
        QuadratureTooCoarse: m not an integer power of two >= 4, or
            m < 2*n_max.
    """
    table = weights_nd_fft(alpha, 2, m, target_n=n_max)
    block = table.values
    alpha = table.alpha
    if alpha == 2.0:
        return block
    interp, log_r2, half_angle, log_ratio = _alias_geometry(block.shape[0] - 1,
                                                            table.m)
    s = 2.0 + alpha
    near = np.exp(-0.5 * s * log_r2).sum(axis=-1)
    far = half_angle * ((np.exp(alpha * log_ratio) / alpha
                         - (s / 24.0) * np.exp(s * log_ratio)) @ _EDGE_RULE[1])
    scale = normalization_constant(2, alpha) * float(table.m) ** -s
    block += interp @ (scale * (near + far.sum(axis=0))) @ interp.T
    return block


def operator_block(alpha: float, dim: int, n_max: int) -> np.ndarray:
    """The weights an operator of order ``alpha`` applies, offsets 0..n_max.

    Shape (n_max+1,)*dim.  They depend only on ``alpha``, ``dim`` and
    ``n_max``: 1D weights are the closed form, exact; 2D weights are the
    alias-corrected quadrature and 3D weights the plain one, both of size
    :func:`default_quadrature_size`.

    Raises:
        InvalidDim: dim not an integer in 1..3, or n_max not an integer
            >= 1.
        OrderOutOfRange: alpha outside (0, 2], or not a real number.
    """
    dim = check_integer(dim, "dim", 1, 3, InvalidDim)
    n_max = check_integer(n_max, "n_max", 1, error=InvalidDim)
    if dim == 1:
        # The closed form a_n = (-1)^n Gamma(alpha+1) / (Gamma(alpha/2+n+1)
        # Gamma(alpha/2-n+1)) hits Gamma poles for n >= 2.  The recurrence
        #     a_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2,
        #     a_{n+1} = a_n (n - alpha/2) / (n + 1 + alpha/2)
        # is pole-free and exact at alpha = 2 (stencil 2, -1, 0, ...).
        alpha = _check_alpha(alpha)
        n = np.arange(n_max, dtype=float)
        factors = np.empty(n_max + 1)
        factors[0] = math.gamma(alpha + 1.0) / math.gamma(alpha / 2.0 + 1.0) ** 2
        factors[1:] = (n - alpha / 2.0) / (n + 1.0 + alpha / 2.0)
        return np.cumprod(factors)
    m = default_quadrature_size(dim, n_max)
    if dim == 2:
        return alias_corrected_block(alpha, m, n_max)
    return weights_nd_fft(alpha, dim, m, target_n=n_max).values


@dataclass(frozen=True)
class DecayReport:
    """Bounds on |a_n| * n^(alpha+1) over a mid-range of offsets."""

    alpha: float
    n_lo: int
    n_hi: int
    ratio_min: float
    ratio_max: float
    degenerate: bool

    @property
    def spread(self) -> float:
        return self.ratio_max / self.ratio_min if self.ratio_min > 0 else math.inf


def check_decay(alpha: float, n_max: int) -> DecayReport:
    """Tail decay of the 1D weights ``operator_block(alpha, 1, n_max)``.

    Returns min and max of |a_n| n^(alpha+1) over 4 <= n <= n_max/2; for
    well-behaved weights both are finite, positive, and within a factor ~10
    of each other.  At alpha = 2 the tail vanishes identically and the report
    is flagged degenerate instead.

    Raises:
        OrderOutOfRange: alpha outside (0, 2], or not a real number.
        InvalidDim: n_max not an integer >= 16, the shortest block with a
            decay range.
    """
    alpha = _check_alpha(alpha)
    n_max = check_integer(n_max, "n_max", 16, error=InvalidDim)
    n_hi = n_max // 2
    block = operator_block(alpha, 1, n_max)
    n = np.arange(4, n_hi + 1)
    scaled = np.abs(block[4: n_hi + 1]) * n.astype(float) ** (alpha + 1.0)
    if scaled.max() < 1e-13 * max(abs(block[0]), 1.0):
        return DecayReport(alpha, 4, n_hi, 0.0, 0.0, degenerate=True)
    return DecayReport(alpha, 4, n_hi,
                       float(scaled.min()), float(scaled.max()),
                       degenerate=False)


def dump_csv(block: np.ndarray, path) -> None:
    """Write the weights of a nonnegative-offset block as CSV.

    ``block`` holds offsets 0..K per axis; the file lists every signed offset
    -K..K.  Columns are n_1..n_d and value; rows run lexicographically with
    the last index fastest.
    """
    kmax = block.shape[0] - 1
    signed = signed_block(block)
    offsets = np.indices(signed.shape).reshape(block.ndim, -1).T - kmax
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"n_{p + 1}" for p in range(block.ndim)] + ["value"])
        writer.writerows([*n, f"{v:.12e}"] for n, v in
                         zip(offsets.tolist(), signed.ravel().tolist()))

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
type-I cosine transform on the nonnegative quadrant, and every table stores
only that quadrant; the rest follows by evenness.  Weights are even
(a_n = a_-n), have a positive center and nonpositive tails, sum to zero over
the full periodic table (the symbol vanishes at eta = 0), and decay like
|n|^(-d-alpha).

The trapezoidal table of size m is the aliased sum
``sum_k a_(n+km)``; the far weights follow ``-C_{d,alpha} |j|^(-d-alpha)``,
so its error decays only algebraically in m.  :func:`alias_corrected_block`
adds those aliases back in 2D (Navot 1961; Lyness 1976) and leaves about
1e-11 at m = 4N, N = 63.

:func:`operator_block` is the one place that picks the weights an operator
applies, and their default quadrature size: the closed form in 1D, the
alias-corrected table in 2D and the plain table in 3D.  The fast kernels,
the direct rows and ``varlap weights`` all read it.

Tables are built afresh on every call; a 2D N = 511 table (m = 2048) is
8.4 MB and takes about 35-40 ms.  The one cache is the order-free geometry of
the 2D alias sum, which :func:`clear_weight_cache` drops.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import InvalidDim, OrderOutOfRange, QuadratureTooCoarse
from .oracle import normalization_constant

__all__ = [
    "WeightTable",
    "DecayReport",
    "symbol",
    "weights_1d_closed_form",
    "weights_nd_fft",
    "alias_corrected_block",
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
    alpha = float(alpha)
    if not (0.0 < alpha <= 2.0) or not math.isfinite(alpha):
        raise OrderOutOfRange(f"order {alpha} outside (0, 2]")
    return alpha


@dataclass(frozen=True)
class WeightTable:
    """Stencil weights of one constant order, indexed periodically.

    ``values`` is the nonnegative quadrant of shape (m//2+1,)*dim: the entry
    at multi-index n is the weight at offset n.  The full period-m table
    follows by evenness, with offset -n equal to offset n and offsets
    aliased modulo m.
    """

    alpha: float
    dim: int
    m: int
    values: np.ndarray

    @property
    def max_offset(self) -> int:
        """Largest |n| per axis at which a stored value exists."""
        return self.m // 2

    def value(self, n) -> float:
        """Weight at signed multi-index ``n`` (periodic indexing)."""
        n = np.atleast_1d(np.asarray(n, dtype=int))
        if n.size != self.dim:
            raise InvalidDim(f"index has {n.size} components, table has {self.dim}")
        wrapped = (n + self.m // 2) % self.m - self.m // 2
        return float(self.values[tuple(np.abs(wrapped))])

    def block_nonneg(self, kmax: int) -> np.ndarray:
        """Weights at offsets 0..kmax per axis, shape (kmax+1,)*dim."""
        if kmax > self.max_offset:
            raise QuadratureTooCoarse(
                f"offset {kmax} exceeds table range {self.max_offset}"
            )
        sl = (slice(0, kmax + 1),) * self.dim
        return np.array(self.values[sl])

    def signed_block(self, kmax: int) -> np.ndarray:
        """Weights at offsets -kmax..kmax, shape (2*kmax+1,)*dim.

        Axis position i corresponds to offset i - kmax.
        """
        if kmax > self.max_offset:
            raise QuadratureTooCoarse(
                f"offset {kmax} exceeds table range {self.max_offset}"
            )
        idx = np.abs(np.arange(-kmax, kmax + 1))
        return self.values[np.ix_(*([idx] * self.dim))]

    def total_sum(self) -> float:
        """Sum of all m**dim periodic values."""
        # multiplicity 2 everywhere except the self-symmetric planes 0 and m/2
        w = np.full(self.m // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        out = self.values
        for _ in range(self.dim):
            out = np.tensordot(out, w, axes=([-1], [0]))
        return float(out)


def weights_1d_closed_form(alpha: float, n_max: int) -> WeightTable:
    """1D weights at offsets 0..n_max+1 from the closed form (period 2*n_max+2).

    The closed form is ``a_n = (-1)^n Gamma(alpha+1) /
    (Gamma(alpha/2+n+1) Gamma(alpha/2-n+1))``; direct Gamma evaluation hits
    poles and negative arguments for n >= 2, so successive values use

        a_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2,
        a_{n+1} = a_n * (n - alpha/2) / (n + 1 + alpha/2),

    which is pole-free and exact at alpha = 2 (stencil 2, -1, 0, ...).  The
    values are those of :func:`operator_block` in 1D.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidDim(f"n_max must be >= 1, got {n_max}")
    return WeightTable(alpha=_check_alpha(alpha), dim=1, m=2 * n_max + 2,
                       values=operator_block(alpha, 1, n_max + 1))


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def default_quadrature_size(dim: int, n_target: int) -> int:
    """Quadrature size of the 2D and 3D operator weights at N = ``n_target``.

    In 2D the operator adds the trapezoidal aliases back
    (:func:`alias_corrected_block`), which leaves an error of order
    m^(-4-alpha), about 1e-11 at N = 63 and m = next_pow2(4N).  The floor
    of 128 serves coarse grids: at N = 7 and m = 32 that error would be
    4e-8, more than the plain m = 512 table used to have.  The plain 3D
    table aliases with error O(m^(-3-alpha)) and keeps a lean multiple,
    floored at 64 and capped at 512.  The 1D weights are the closed form
    and need no quadrature.
    """
    n_target = int(n_target)
    if dim == 2:
        return max(_next_pow2(4 * n_target), 128)
    return max(min(max(_next_pow2(4 * n_target), 64), 512),
               _next_pow2(2 * n_target + 2))


def weights_nd_fft(alpha: float, dim: int, m: int,
                   target_n: int | None = None) -> WeightTable:
    """Weight table in ``dim`` dimensions by trapezoidal quadrature.

    Samples the symbol at the M^d points ``eta = m_vec * 2*pi/M``; one
    d-dimensional inverse DFT of the samples approximates the true Fourier
    coefficients with aliasing error O(M^(-d-alpha)).  Because the symbol is
    even in every component, that inverse DFT is a type-I DCT of the samples
    on the nonnegative quadrant, and only that quadrant is computed and
    stored.

    Args:
        alpha: order in (0, 2].
        dim: 1, 2 or 3.
        m: quadrature size per dimension, a power of two >= 4.
        target_n: interior node count the table must serve; enforces m >= 2*N.

    Raises:
        OrderOutOfRange: alpha outside (0, 2].
        QuadratureTooCoarse: m not a power of two >= 4, or m < 2*target_n.
    """
    alpha = _check_alpha(alpha)
    if dim not in (1, 2, 3):
        raise InvalidDim(f"dim must be 1, 2 or 3, got {dim}")
    m = int(m)
    if m < 4 or (m & (m - 1)) != 0:
        raise QuadratureTooCoarse(f"quadrature size must be a power of two >= 4, got {m}")
    if target_n is not None and m < 2 * int(target_n):
        raise QuadratureTooCoarse(
            f"quadrature size {m} < 2*N = {2 * int(target_n)}"
        )

    eta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
    s = 4.0 * np.sin(eta / 2.0) ** 2
    acc = s
    for _ in range(dim - 1):
        acc = acc[..., None] + s
    # in place throughout: at m = 4096 in 2D each copy is 34 MB
    acc **= alpha / 2.0
    vals = sfft.dctn(acc, type=1, overwrite_x=True)
    vals /= m**dim
    return WeightTable(alpha=alpha, dim=dim, m=m, values=vals)


#: Chebyshev nodes per axis at which the 2D alias sum is evaluated, the
#: lattice shells |k|_inf <= _ALIAS_SHELLS it sums term by term, and the
#: Gauss-Legendre rule of its far-field angle integrals
_ALIAS_NODES = 8
_ALIAS_SHELLS = 12
_EDGE_RULE = np.polynomial.legendre.leggauss(12)


def _chebyshev_interp(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p first-kind Chebyshev nodes of [0, n], and the matrix taking
    values at them to the interpolant's values at 0, 1, ..., n."""
    theta = np.pi * (np.arange(p) + 0.5) / p
    to_coef = (2.0 / p) * np.cos(np.outer(np.arange(p), theta))
    to_coef[0] /= 2.0
    t = np.arccos(np.clip(2.0 * np.arange(n + 1) / n - 1.0, -1.0, 1.0))
    interp = np.cos(np.outer(t, np.arange(p))) @ to_coef
    return 0.5 * n * (1.0 + np.cos(theta)), interp


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

    Returns the interpolation matrix, log |k + x|^2 over the near shells
    (k != 0) at each node pair, half the angle each of the four edges spans,
    and log(cos(phi)/d) at the Gauss points of each edge; all read-only.
    """
    nodes, interp = _chebyshev_interp(n_max, _ALIAS_NODES)
    x = nodes / m
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
        OrderOutOfRange: alpha outside (0, 2].
        QuadratureTooCoarse: m not a power of two >= 4, or m < 2*n_max.
    """
    table = weights_nd_fft(alpha, 2, m, target_n=n_max)
    block = table.block_nonneg(n_max)
    alpha = table.alpha
    if alpha == 2.0:
        return block
    interp, log_r2, half_angle, log_ratio = _alias_geometry(int(n_max), table.m)
    s = 2.0 + alpha
    near = np.exp(-0.5 * s * log_r2).sum(axis=-1)
    far = half_angle * ((np.exp(alpha * log_ratio) / alpha
                         - (s / 24.0) * np.exp(s * log_ratio)) @ _EDGE_RULE[1])
    scale = normalization_constant(2, alpha) * float(table.m) ** -s
    block += interp @ (scale * (near + far.sum(axis=0))) @ interp.T
    return block


def operator_block(alpha: float, dim: int, n_max: int,
                   m: int | None = None) -> np.ndarray:
    """The weights an operator of order ``alpha`` applies, offsets 0..n_max.

    Shape (n_max+1,)*dim.  1D weights are the closed form, exact and free of
    ``m``; 2D weights are the alias-corrected quadrature and 3D weights the
    plain one, of size ``m`` or :func:`default_quadrature_size`.

    Raises:
        InvalidDim: dim not 1, 2 or 3, or n_max < 1.
        OrderOutOfRange: alpha outside (0, 2].
        QuadratureTooCoarse: m not a power of two >= 4, or m < 2*n_max.
    """
    if dim not in (1, 2, 3):
        raise InvalidDim(f"dim must be 1, 2 or 3, got {dim}")
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidDim(f"n_max must be >= 1, got {n_max}")
    if dim == 1:
        # the recurrence of weights_1d_closed_form as one running product
        alpha = _check_alpha(alpha)
        n = np.arange(n_max, dtype=float)
        factors = np.empty(n_max + 1)
        factors[0] = math.gamma(alpha + 1.0) / math.gamma(alpha / 2.0 + 1.0) ** 2
        factors[1:] = (n - alpha / 2.0) / (n + 1.0 + alpha / 2.0)
        return np.cumprod(factors)
    m = default_quadrature_size(dim, n_max) if m is None else m
    if dim == 2:
        return alias_corrected_block(alpha, m, n_max)
    return weights_nd_fft(alpha, dim, m, target_n=n_max).block_nonneg(n_max)


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


def check_decay(table: WeightTable) -> DecayReport:
    """Measure the tail decay of a 1D table.

    Returns min and max of |a_n| n^(alpha+1) over 4 <= n <= n_max/2; for a
    well-behaved table both are finite, positive, and within a factor ~10 of
    each other.  At alpha = 2 the tail vanishes identically and the report is
    flagged degenerate instead.
    """
    if table.dim != 1:
        raise InvalidDim("decay check applies to 1D tables")
    n_hi = table.max_offset // 2
    if n_hi < 8:
        raise InvalidDim("table too short for a decay check (need n_max >= 16)")
    n = np.arange(4, n_hi + 1)
    tail = table.values[4: n_hi + 1]
    scaled = np.abs(tail) * n.astype(float) ** (table.alpha + 1.0)
    center = abs(table.value([0]))
    if scaled.max() < 1e-13 * max(center, 1.0):
        return DecayReport(table.alpha, 4, n_hi, 0.0, 0.0, degenerate=True)
    return DecayReport(table.alpha, 4, n_hi,
                       float(scaled.min()), float(scaled.max()),
                       degenerate=False)


def dump_csv(block: np.ndarray, path) -> None:
    """Write the weights of a nonnegative-offset block as CSV.

    ``block`` holds offsets 0..K per axis; the file lists every signed offset
    -K..K.  Columns are n_1..n_d and value; rows run lexicographically with
    the last index fastest.
    """
    kmax = block.shape[0] - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"n_{p + 1}" for p in range(block.ndim)] + ["value"])
        for idx in itertools.product(range(-kmax, kmax + 1), repeat=block.ndim):
            writer.writerow([*idx, f"{block[tuple(map(abs, idx))]:.12e}"])

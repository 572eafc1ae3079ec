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
"""

from __future__ import annotations

import csv
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import InvalidDim, OrderOutOfRange, QuadratureTooCoarse

__all__ = [
    "WeightTable",
    "DecayReport",
    "symbol",
    "weights_1d_closed_form",
    "weights_nd_fft",
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
    kind: str = "fft"           # "fft" | "closed-form"

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
    """1D weights from the closed form, evaluated by a stable recurrence.

    The closed form is ``a_n = (-1)^n Gamma(alpha+1) /
    (Gamma(alpha/2+n+1) Gamma(alpha/2-n+1))``; direct Gamma evaluation hits
    poles and negative arguments for n >= 2, so successive values use

        a_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2,
        a_{n+1} = a_n * (n - alpha/2) / (n + 1 + alpha/2),

    which is pole-free and exact at alpha = 2 (stencil 2, -1, 0, ...).
    """
    alpha = _check_alpha(alpha)
    n_max = int(n_max)
    if n_max < 1:
        raise InvalidDim(f"n_max must be >= 1, got {n_max}")
    half = np.zeros(n_max + 2)
    half[0] = math.gamma(alpha + 1.0) / math.gamma(alpha / 2.0 + 1.0) ** 2
    for n in range(n_max + 1):
        half[n + 1] = half[n] * (n - alpha / 2.0) / (n + 1.0 + alpha / 2.0)
    return WeightTable(alpha=alpha, dim=1, m=2 * n_max + 2, values=half,
                       kind="closed-form")


def closed_form_rows(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """Recurrence weights for many orders at once, shape (len(alphas), n_max+1).

    Row i holds a_0..a_n for order alphas[i]; used by the 1D direct apply.
    """
    al = np.asarray(alphas, dtype=float)
    if np.any(al <= 0.0) or np.any(al > 2.0):
        raise OrderOutOfRange("order outside (0, 2]")
    rows = np.zeros((al.size, n_max + 1))
    g = np.vectorize(math.gamma)
    rows[:, 0] = g(al + 1.0) / g(al / 2.0 + 1.0) ** 2
    for n in range(n_max):
        rows[:, n + 1] = rows[:, n] * (n - al / 2.0) / (n + 1.0 + al / 2.0)
    return rows


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def default_quadrature_size(dim: int, n_target: int) -> int:
    """Quadrature size policy: a power of two comfortably above 2*N.

    The aliasing error of the trapezoidal rule decays like M^(-dim-alpha), so
    a fixed multiple of the grid size keeps it well below the scheme error.
    In 2D the multiple is generous (small alpha decays slowest); in 3D the
    faster decay permits a lean table.  Sizes are capped so a table never
    outgrows desk-scale memory; the cap in 2D (2^14) is only reached on
    reference grids with N ~ 10^3.
    """
    n_target = int(n_target)
    floor = _next_pow2(2 * n_target + 2)
    if dim == 1:
        return max(2**14, floor)
    if dim == 2:
        return max(min(max(_next_pow2(16 * n_target), 512), 2**14), floor)
    return max(min(max(_next_pow2(4 * n_target), 64), 512), floor)


_cache_lock = threading.Lock()
_table_cache: dict[tuple, WeightTable] = {}
_cache_bytes = 0
_CACHE_BUDGET = 256 * 2**20
_CACHE_ENTRY_LIMIT = 48 * 2**20


def clear_weight_cache() -> None:
    global _cache_bytes
    with _cache_lock:
        _table_cache.clear()
        _cache_bytes = 0


def _cache_get(key):
    with _cache_lock:
        return _table_cache.get(key)


def _cache_put(key, table: WeightTable) -> None:
    global _cache_bytes
    nbytes = table.values.nbytes
    if nbytes > _CACHE_ENTRY_LIMIT:
        return
    with _cache_lock:
        if key in _table_cache:
            return
        while _cache_bytes + nbytes > _CACHE_BUDGET and _table_cache:
            _, old = _table_cache.popitem()
            _cache_bytes -= old.values.nbytes
        _table_cache[key] = table
        _cache_bytes += nbytes


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

    key = (np.float64(alpha).tobytes(), dim, m)
    hit = _cache_get(key)
    if hit is not None:
        return hit

    eta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
    s = 4.0 * np.sin(eta / 2.0) ** 2
    acc = s
    for _ in range(dim - 1):
        acc = acc[..., None] + s
    # in place throughout: at m = 8192 in 2D each copy is 134 MB
    acc **= alpha / 2.0
    vals = sfft.dctn(acc, type=1, overwrite_x=True)
    vals /= m**dim
    table = WeightTable(alpha=alpha, dim=dim, m=m, values=vals, kind="fft")
    _cache_put(key, table)
    return table


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


def dump_csv(table: WeightTable, path, n_max: int | None = None) -> None:
    """Write the signed-offset block of a table as CSV.

    Columns are n_1..n_d and value; rows run lexicographically over the signed
    offset range with the last index fastest.
    """
    kmax = table.max_offset - 1 if n_max is None else int(n_max)
    kmax = min(kmax, table.max_offset)
    block = table.signed_block(kmax)
    rng = range(-kmax, kmax + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"n_{p + 1}" for p in range(table.dim)] + ["value"])
        for idx in itertools.product(rng, repeat=table.dim):
            pos = tuple(i + kmax for i in idx)
            writer.writerow([*idx, f"{block[pos]:.12e}"])

"""The discrete variable-order fractional Laplacian: direct and fast applies.

At node x_j the operator is ``v_j = h^{-alpha_j} sum_k a^{(alpha_j)}_{k-j} u_k``
with the sum over interior nodes (the extended Dirichlet condition zeroes
everything else).  Two evaluation paths are provided:

* direct: per-node weight rows, O(N^{2d}) work.  The reference path and the
  oracle for the fast one; ``dense_matrix`` stacks the same rows.  Nothing is
  cached between direct applies: each one rebuilds the weight block of
  every distinct order it meets (a 2D N = 511 block takes about 40 ms, a 1D
  one a few microseconds).
* fast: the rank-r Chebyshev decomposition replaces the non-convolution
  kernel by r constant-order Toeplitz applies, each performed as a circular
  convolution on an L^d embedding (L >= 2N, even, FFT-friendly) via FFT,
  then weighted by the per-node Lagrange coefficients.  O(r N^d log N) per
  apply.

The embedded kernel carries offsets -(N-1)..N-1 only, so it is even and its
spectrum is real: the DCT-I of its nonnegative-offset block, zero-padded to
L/2 + 1 entries per axis (symmetric convolution).  No embedding is built and
no complex transform runs to get it.  The apply's transforms are pruned:
the forward one pads each axis just before transforming it, and the inverse
one cuts each axis back to N entries right after transforming it, so no
transform runs on a line that is all zeros or that the interior block never
reads.  Kernel spectra and the h^(-alpha_q)-scaled Lagrange coefficients
are built once per operator, so each repeated apply (every Krylov iteration)
costs one forward and r inverse transforms.  The padded spectrum and its
product with one kernel spectrum live in two buffers the operator keeps, so
an apply allocates no full-size padded array.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import GridMismatch, InvalidRange, PlanMissing, SizeMismatch
from .grid import DomainMask, GridFunction, OrderField, UniformGrid, sample_order
from .lowrank import (
    DEFAULT_RANK,
    ChebyshevPlan,
    build_plan,
    estimate_rank,
    rank_coefficients,
)
from .weights import operator_block
# bound here only for perfbench/tracing.py: Tracer.install reads
# varlap.operator.weights_nd_fft and raises AttributeError without it
from .weights import weights_nd_fft  # noqa: F401

__all__ = [
    "ConstantOrderKernel",
    "VariableOrderOperator",
    "operator_timing",
]


def _fast_axis_len(n: int) -> int:
    """Even circulant length >= 2N with small prime factors.

    Only offsets |m| <= N-1 reach the interior block, so the embedding may
    be padded beyond 2N with zeros; FFT-friendly lengths avoid the slow
    large-prime transforms that plain 2N often is.  The length is even
    because the kernel spectrum is a DCT-I of half of it plus one entry.
    """
    return 2 * sfft.next_fast_len(n, real=True)


def _forward(u_nd: np.ndarray, pad_shape: tuple[int, ...],
             spec: np.ndarray) -> np.ndarray:
    """Spectrum of ``u_nd`` zero-padded to ``pad_shape``, written into ``spec``.

    ``spec`` has the rfftn shape of ``pad_shape``.  Each axis is zero-padded
    just before it is transformed, in place.
    """
    lead = tuple(slice(0, n) for n in u_nd.shape[:-1])
    spec[lead] = sfft.rfft(u_nd, n=pad_shape[-1], axis=-1)
    for ax in range(u_nd.ndim - 2, -1, -1):
        part = spec[lead[:ax]]
        part[(slice(None),) * ax + (slice(u_nd.shape[ax], None),)] = 0.0
        done = sfft.fft(part, axis=ax, overwrite_x=True)
        if done is not part:
            part[...] = done
    return spec


def _inverse(spec: np.ndarray, grid_shape: tuple[int, ...],
             pad_shape: tuple[int, ...]) -> np.ndarray:
    """Leading ``grid_shape`` block of the inverse of an rfftn-layout spectrum.

    Overwrites ``spec``.
    """
    for ax, n in enumerate(grid_shape[:-1]):
        spec = sfft.ifft(spec, axis=ax, overwrite_x=True)
        spec = spec[(slice(None),) * ax + (slice(0, n),)]
    return sfft.irfft(spec, n=pad_shape[-1], axis=-1)[..., :grid_shape[-1]]


@dataclass(frozen=True)
class ConstantOrderKernel:
    """One constant-order stencil on a grid, ready for FFT circular applies."""

    alpha: float
    grid_shape: tuple[int, ...]
    h: float
    spectrum: np.ndarray          # real rfftn layout; a mirrored DCT-I
    pad_shape: tuple[int, ...]

    @classmethod
    def from_block(cls, block: np.ndarray, grid_shape: tuple[int, ...],
                   h: float, alpha: float) -> "ConstantOrderKernel":
        """Build from the nonnegative-offset block a_0..a_N per axis.

        Only offsets |k| <= N-1 reach the interior block; the embedding
        leaves offsets N..L/2 at zero, which keeps the kernel even, so its
        spectrum is the DCT-I of those offsets (symmetric convolution).
        """
        dim = len(grid_shape)
        if block.ndim != dim or any(block.shape[p] < grid_shape[p] + 1
                                    for p in range(dim)):
            raise SizeMismatch(
                f"weight block {block.shape} too small for grid {grid_shape}"
            )
        pad_shape = tuple(_fast_axis_len(n) for n in grid_shape)
        half = np.zeros(tuple(length // 2 + 1 for length in pad_shape))
        inner = tuple(slice(0, n) for n in grid_shape)
        half[inner] = block[inner]
        half = sfft.dctn(half, type=1, overwrite_x=True)
        mirror = [(0, length // 2 - 1) for length in pad_shape[:-1]] + [(0, 0)]
        spectrum = np.pad(half, mirror, mode="reflect")
        return cls(alpha=float(alpha), grid_shape=tuple(grid_shape), h=float(h),
                   spectrum=spectrum, pad_shape=pad_shape)

    def apply_nd(self, u_nd: np.ndarray) -> np.ndarray:
        """Toeplitz matvec: pad, convolve circularly, truncate, scale."""
        if u_nd.shape != self.grid_shape:
            raise SizeMismatch(f"input {u_nd.shape} != grid {self.grid_shape}")
        spec = _forward(u_nd, self.pad_shape,
                        np.empty(self.spectrum.shape, dtype=complex))
        spec *= self.spectrum
        out = _inverse(spec, self.grid_shape, self.pad_shape)
        return out * self.h ** (-self.alpha)


class VariableOrderOperator:
    """Discrete variable-order fractional Laplacian on a grid.

    Args:
        grid: interior-node grid.
        field: order field; sampled on ``grid`` (resampled if not).
        mode: "fast" (rank decomposition, default) or "direct".
        rank: number of Chebyshev nodes for the fast path (default 7).
        epsilon: if given and ``rank`` is None, pick the smallest rank whose
            measured interpolation error is below epsilon.
        plan: an explicit ChebyshevPlan overriding rank/epsilon.
        quadrature_m: weight quadrature size in 2D and 3D (default: that of
            :func:`~varlap.weights.operator_block`); 1D weights are exact.
        mask: optional embedding mask; masked-out nodes contribute zero and
            receive zero in every apply.

    Both modes apply the same weights, :func:`~varlap.weights.operator_block`
    of each order.
    """

    def __init__(self, grid: UniformGrid, field: OrderField,
                 mode: str = "fast", rank: int | None = None,
                 epsilon: float | None = None,
                 plan: ChebyshevPlan | None = None,
                 quadrature_m: int | None = None,
                 mask: DomainMask | None = None):
        if mode not in ("fast", "direct"):
            raise InvalidRange(f"mode must be fast or direct, got {mode!r}")
        if field.sampled is None or field.grid is not grid:
            field = sample_order(field, grid)
        if mask is not None and mask.grid.shape != grid.shape:
            raise GridMismatch("mask grid does not match operator grid")
        self.grid = grid
        self.field = field
        self.mode = mode
        self.mask = mask
        self.n_max = max(grid.n_per_dim)
        self.quadrature_m = quadrature_m
        self.interpolation_error: float | None = None

        self.plan: ChebyshevPlan | None = None
        self.kernels: list[ConstantOrderKernel] = []
        if mode == "fast":
            if plan is None:
                if rank is None and epsilon is not None:
                    rank, err = estimate_rank(field.alpha_min, field.alpha_max,
                                              grid.h, epsilon, grid.dim)
                    self.interpolation_error = err
                plan = build_plan(field.alpha_min, field.alpha_max,
                                  rank if rank is not None else DEFAULT_RANK)
            self.plan = plan
            coeffs = rank_coefficients(plan, field)
            self.kernels = [self.constant_order_kernel(a) for a in plan.nodes]
            # Lagrange coefficient maps with h^(-alpha_q) folded in, (r, *shape)
            maps = np.array(coeffs.T, order="C")
            maps *= np.array([k.h ** (-k.alpha) for k in self.kernels])[:, None]
            self._rank_maps = maps.reshape((plan.rank,) + grid.shape)
            # the padded spectrum and one rank term's product, reused by
            # every apply: allocated per apply, these multi-MB arrays are
            # page-faulted in afresh whenever the C allocator has trimmed
            # its heap (up to 4e5 faults per 3D N = 31 solve)
            self._work = np.empty((2,) + self.kernels[0].spectrum.shape,
                                  dtype=complex)

    # -- kernel and weight-row construction -------------------------------

    def constant_order_kernel(self, alpha: float) -> ConstantOrderKernel:
        """The constant-order kernel of order ``alpha`` on this grid."""
        block = operator_block(alpha, self.grid.dim, self.n_max,
                               self.quadrature_m)
        return ConstantOrderKernel.from_block(block, self.grid.shape,
                                              self.grid.h, alpha)

    # -- applies -----------------------------------------------------------

    def apply(self, u: GridFunction) -> GridFunction:
        """Apply along the configured mode."""
        if u.grid.shape != self.grid.shape:
            raise GridMismatch(
                f"input grid {u.grid.shape} != operator grid {self.grid.shape}"
            )
        return GridFunction(self.grid, self._apply_flat(u.values))

    def _apply_flat(self, values: np.ndarray) -> np.ndarray:
        if self.mode == "fast":
            return self._apply_fast_flat(values)
        return self._apply_direct_flat(values)

    def _masked_input(self, values: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return values
        out = values.copy()
        out[~self.mask.inside] = 0.0
        return out

    def _apply_fast_flat(self, values: np.ndarray) -> np.ndarray:
        vals = self._masked_input(np.asarray(values, dtype=float))
        shape, pad_shape = self.grid.shape, self.kernels[0].pad_shape
        spec, prod = self._work
        _forward(vals.reshape(shape), pad_shape, spec)
        out = np.zeros(shape)
        # fixed ascending-q summation keeps results bitwise reproducible
        for coef, kern in zip(self._rank_maps, self.kernels):
            np.multiply(spec, kern.spectrum, out=prod)
            term = _inverse(prod, shape, pad_shape)
            term *= coef
            out += term
        out = out.ravel()
        if self.mask is not None:
            out[~self.mask.inside] = 0.0
        return out

    def _rows(self):
        """Yield ``(j, scale, row)`` for every node j inside the mask.

        ``v_j = scale * (row @ u)`` for flat u: the row holds the weights at
        offsets k - j over all interior nodes k, and scale is h^(-alpha_j).
        Rows are windows of the weight block of the node's order, which is
        built once per distinct order and dropped once its nodes are done.
        """
        alphas, h = self.field.sampled, self.grid.h
        nodes = (np.arange(self.grid.size) if self.mask is None
                 else np.flatnonzero(self.mask.inside))
        shape = self.grid.shape
        axis_range = [np.arange(n) for n in shape]
        order_groups: dict[bytes, list[int]] = {}
        for j in nodes:
            order_groups.setdefault(np.float64(alphas[j]).tobytes(), []).append(j)
        for key, nodes_j in order_groups.items():
            alpha = float(np.frombuffer(key, dtype=np.float64)[0])
            block = operator_block(alpha, self.grid.dim, self.n_max,
                                   self.quadrature_m)
            scale = h ** (-alpha)
            for j in nodes_j:
                jnd = np.unravel_index(j, shape)
                idx = [np.abs(r - jp) for r, jp in zip(axis_range, jnd)]
                yield j, scale, block[np.ix_(*idx)].ravel()

    def _apply_direct_flat(self, values: np.ndarray) -> np.ndarray:
        vals = self._masked_input(np.asarray(values, dtype=float))
        out = np.zeros(self.grid.size)
        for j, scale, row in self._rows():
            out[j] = scale * (row @ vals)
        return out

    # -- diagnostics --------------------------------------------------------

    def dense_matrix(self, max_size: int = 4096) -> np.ndarray:
        """The dense operator matrix, row by row (small grids).

        Masked-out rows and columns are zero, as in every apply.
        """
        n = self.grid.size
        if n > max_size:
            raise SizeMismatch(f"dense assembly capped at {max_size} unknowns")
        mat = np.zeros((n, n))
        for j, scale, row in self._rows():
            mat[j] = scale * row
        if self.mask is not None:
            mat[:, ~self.mask.inside] = 0.0
        return mat


def operator_timing(op: VariableOrderOperator, n_reps: int = 5) -> dict:
    """Wall-clock seconds per fast apply (best of ``n_reps``)."""
    if op.mode != "fast":
        raise PlanMissing("timing is defined for the fast path")
    u = np.random.default_rng(0).standard_normal(op.grid.size)
    op._apply_fast_flat(u)  # warm caches
    best = math.inf
    for _ in range(n_reps):
        t0 = time.perf_counter()
        op._apply_fast_flat(u)
        best = min(best, time.perf_counter() - t0)
    return {
        "n": op.n_max,
        "dim": op.grid.dim,
        "rank": op.plan.rank,
        "seconds_per_apply": best,
    }


def fit_loglog_slope(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    return float(np.polyfit(x, y, 1)[0])

"""The discrete variable-order fractional Laplacian: direct and fast applies.

At node x_j the operator is ``v_j = h^{-alpha_j} sum_k a^{(alpha_j)}_{k-j} u_k``
with the sum over interior nodes (the extended Dirichlet condition zeroes
everything else).  Two evaluation paths are provided:

* direct: per-node weight rows, O(N^{2d}) work.  The reference path and the
  oracle for the fast one.
* fast: the rank-r Chebyshev decomposition replaces the non-convolution
  kernel by r constant-order Toeplitz applies, each performed as a circular
  convolution on an L^d embedding (L >= 2N, FFT-friendly) via FFT, then
  weighted by the per-node Lagrange coefficients.  O(r N^d log N) per apply.

The embedded kernel carries offsets -(N-1)..N-1 only, so it is even and its
spectrum is real.  The transforms are pruned: the forward one pads each axis
just before transforming it, and the inverse one cuts each axis back to N
entries right after transforming it, so no transform runs on a line that is
all zeros or that the interior block never reads.  Kernel spectra and the
h^(-alpha_q)-scaled Lagrange coefficients are built once per operator, so
each repeated apply (every Krylov iteration) costs one forward and r inverse
transforms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import (
    GridMismatch,
    InvalidDim,
    MissingWeights,
    PlanMissing,
    SizeMismatch,
)
from .grid import DomainMask, GridFunction, OrderField, UniformGrid, sample_order
from .lowrank import (
    DEFAULT_RANK,
    ChebyshevPlan,
    build_plan,
    estimate_rank,
    rank_coefficients,
)
from .weights import (
    WeightTable,
    closed_form_rows,
    default_quadrature_size,
    weights_1d_closed_form,
    weights_nd_fft,
)

__all__ = [
    "ConstantOrderKernel",
    "VariableOrderOperator",
    "apply_constant_order",
    "operator_timing",
]


def _fast_axis_len(n: int) -> int:
    """Circulant length >= 2N with small prime factors.

    Only offsets |m| <= N-1 reach the interior block, so the embedding may
    be padded beyond 2N with zeros; FFT-friendly lengths avoid the slow
    large-prime transforms that plain 2N often is.
    """
    return sfft.next_fast_len(2 * n, real=True)


def _forward(u_nd: np.ndarray, pad_shape: tuple[int, ...]) -> np.ndarray:
    """Spectrum of ``u_nd`` zero-padded to ``pad_shape`` (rfftn layout)."""
    spec = sfft.rfft(u_nd, n=pad_shape[-1], axis=-1)
    for ax in range(u_nd.ndim - 2, -1, -1):
        spec = sfft.fft(spec, n=pad_shape[ax], axis=ax, overwrite_x=True)
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
    spectrum: np.ndarray          # real rfftn of the even embedded kernel
    pad_shape: tuple[int, ...]

    @classmethod
    def from_block(cls, block: np.ndarray, grid_shape: tuple[int, ...],
                   h: float, alpha: float) -> "ConstantOrderKernel":
        """Build from the nonnegative-offset block a_0..a_N per axis.

        Only offsets |k| <= N-1 reach the interior block; the embedding
        leaves offset -N at zero, which keeps the kernel even.
        """
        dim = len(grid_shape)
        if block.ndim != dim or any(block.shape[p] < grid_shape[p] + 1
                                    for p in range(dim)):
            raise SizeMismatch(
                f"weight block {block.shape} too small for grid {grid_shape}"
            )
        pad_shape = tuple(_fast_axis_len(n) for n in grid_shape)
        src = [np.r_[np.arange(n), np.arange(n - 1, 0, -1)] for n in grid_shape]
        dst = [np.r_[np.arange(n), np.arange(length - n + 1, length)]
               for n, length in zip(grid_shape, pad_shape)]
        kernel = np.zeros(pad_shape)
        kernel[np.ix_(*dst)] = block[np.ix_(*src)]
        spectrum = np.ascontiguousarray(sfft.rfftn(kernel).real)
        return cls(alpha=float(alpha), grid_shape=tuple(grid_shape), h=float(h),
                   spectrum=spectrum, pad_shape=pad_shape)

    def apply_nd(self, u_nd: np.ndarray) -> np.ndarray:
        """Toeplitz matvec: pad, convolve circularly, truncate, scale."""
        if u_nd.shape != self.grid_shape:
            raise SizeMismatch(f"input {u_nd.shape} != grid {self.grid_shape}")
        spec = _forward(u_nd, self.pad_shape) * self.spectrum
        out = _inverse(spec, self.grid_shape, self.pad_shape)
        return out * self.h ** (-self.alpha)


def apply_constant_order(kernel: ConstantOrderKernel, u: GridFunction) -> GridFunction:
    """Constant-order apply; identical to the dense Toeplitz matvec."""
    if u.grid.shape != kernel.grid_shape:
        raise SizeMismatch(
            f"grid {u.grid.shape} does not match kernel {kernel.grid_shape}"
        )
    return GridFunction(u.grid, kernel.apply_nd(u.values_nd).ravel())


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
        quadrature_m: weight quadrature size (default by grid size policy).
        mask: optional embedding mask; masked-out nodes contribute zero and
            receive zero in every apply.
        weight_source: "auto" (closed form in 1D, FFT otherwise),
            "closed-form", or "fft".
    """

    def __init__(self, grid: UniformGrid, field: OrderField,
                 mode: str = "fast", rank: int | None = None,
                 epsilon: float | None = None,
                 plan: ChebyshevPlan | None = None,
                 quadrature_m: int | None = None,
                 mask: DomainMask | None = None,
                 weight_source: str = "auto"):
        if mode not in ("fast", "direct"):
            raise ValueError(f"mode must be 'fast' or 'direct', got {mode!r}")
        if weight_source not in ("auto", "closed-form", "fft"):
            raise ValueError(f"unknown weight source {weight_source!r}")
        if weight_source == "closed-form" and grid.dim != 1:
            raise InvalidDim("closed-form weights exist only in 1D")
        if field.sampled is None or field.grid is not grid:
            field = sample_order(field, grid)
        if mask is not None and mask.grid.shape != grid.shape:
            raise GridMismatch("mask grid does not match operator grid")
        self.grid = grid
        self.field = field
        self.mode = mode
        self.mask = mask
        self.n_max = max(grid.n_per_dim)
        self.quadrature_m = (int(quadrature_m) if quadrature_m is not None
                             else default_quadrature_size(grid.dim, self.n_max))
        self._closed_form = (grid.dim == 1 and weight_source in ("auto", "closed-form"))
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
            coeffs = rank_coefficients(plan, field, grid).coeffs
            self.kernels = [self._kernel(a) for a in plan.nodes]
            # Lagrange coefficient maps with h^(-alpha_q) folded in, (r, *shape)
            maps = np.array(coeffs.T, order="C")
            maps *= np.array([k.h ** (-k.alpha) for k in self.kernels])[:, None]
            self._rank_maps = maps.reshape((plan.rank,) + grid.shape)
        self._direct_tables: dict[bytes, WeightTable] = {}

    # -- kernel and weight-row construction -------------------------------

    def _weight_block(self, alpha: float) -> np.ndarray:
        """Nonnegative-offset weight block covering offsets 0..N per axis."""
        if self._closed_form:
            return weights_1d_closed_form(alpha, self.n_max).block_nonneg(self.n_max)
        table = weights_nd_fft(alpha, self.grid.dim, self.quadrature_m,
                               target_n=self.n_max)
        return table.block_nonneg(self.n_max)

    def _kernel(self, alpha: float) -> ConstantOrderKernel:
        return ConstantOrderKernel.from_block(self._weight_block(alpha),
                                              self.grid.shape, self.grid.h,
                                              alpha)

    def constant_order_kernel(self, alpha: float) -> ConstantOrderKernel:
        """Public access to a single constant-order kernel on this grid."""
        return self._kernel(alpha)

    # -- applies -----------------------------------------------------------

    def apply(self, u: GridFunction) -> GridFunction:
        """Apply along the configured mode."""
        if u.grid.shape != self.grid.shape:
            raise GridMismatch(
                f"input grid {u.grid.shape} != operator grid {self.grid.shape}"
            )
        return GridFunction(self.grid, self._apply_flat(u.values))

    def apply_fast(self, u: GridFunction) -> GridFunction:
        if u.grid.shape != self.grid.shape:
            raise GridMismatch("input grid does not match operator grid")
        return GridFunction(self.grid, self._apply_fast_flat(u.values))

    def apply_direct(self, u: GridFunction) -> GridFunction:
        if u.grid.shape != self.grid.shape:
            raise GridMismatch("input grid does not match operator grid")
        return GridFunction(self.grid, self._apply_direct_flat(u.values))

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
        if self.plan is None:
            raise PlanMissing("fast apply requested but no rank plan configured")
        vals = self._masked_input(np.asarray(values, dtype=float))
        shape, pad_shape = self.grid.shape, self.kernels[0].pad_shape
        spec = _forward(vals.reshape(shape), pad_shape)
        out = np.zeros(shape)
        # fixed ascending-q summation keeps results bitwise reproducible
        for coef, kern in zip(self._rank_maps, self.kernels):
            out += coef * _inverse(spec * kern.spectrum, shape, pad_shape)
        out = out.ravel()
        if self.mask is not None:
            out[~self.mask.inside] = 0.0
        return out

    def _apply_direct_flat(self, values: np.ndarray) -> np.ndarray:
        vals = self._masked_input(np.asarray(values, dtype=float))
        alphas = self.field.sampled
        h = self.grid.h
        if self._closed_form:
            out = self._direct_1d_closed_form(vals, alphas, h)
        else:
            out = self._direct_nd_fft(vals, alphas, h)
        if self.mask is not None:
            out[~self.mask.inside] = 0.0
        return out

    def _direct_1d_closed_form(self, vals, alphas, h) -> np.ndarray:
        n = self.grid.size
        rows = closed_form_rows(alphas, n - 1)
        if n <= 2048:
            j = np.arange(n)
            gather = rows[j[:, None], np.abs(j[None, :] - j[:, None])]
            out = gather @ vals
        else:
            out = np.empty(n)
            idx = np.arange(n)
            for j in range(n):
                out[j] = rows[j, np.abs(idx - j)] @ vals
        return out * h ** (-alphas)

    def _direct_nd_fft(self, vals, alphas, h) -> np.ndarray:
        u_nd = vals.reshape(self.grid.shape)
        out = np.empty(self.grid.size)
        shape = self.grid.shape
        axis_range = [np.arange(n) for n in shape]
        order_groups: dict[bytes, list[int]] = {}
        for j, a in enumerate(alphas):
            order_groups.setdefault(np.float64(a).tobytes(), []).append(j)
        # keep instance-level tables only for few-valued fields (piecewise
        # orders); an all-distinct field would pin one table per node
        keep = len(order_groups) <= 64
        for key, nodes_j in order_groups.items():
            alpha = float(np.frombuffer(key, dtype=np.float64)[0])
            table = self._direct_tables.get(key)
            if table is None:
                table = weights_nd_fft(alpha, self.grid.dim, self.quadrature_m,
                                       target_n=self.n_max)
                if keep:
                    self._direct_tables[key] = table
            if table.max_offset < self.n_max:
                raise MissingWeights(
                    f"table covers offsets to {table.max_offset}, need {self.n_max}"
                )
            scale = h ** (-alpha)
            for j in nodes_j:
                jnd = np.unravel_index(j, shape)
                idx = [np.abs(axis_range[p] - jnd[p]) for p in range(self.grid.dim)]
                win = table.values[np.ix_(*idx)]
                out[j] = scale * float(np.tensordot(win, u_nd, axes=self.grid.dim))
        return out

    # -- diagnostics --------------------------------------------------------

    def dense_matrix(self, max_size: int = 4096) -> np.ndarray:
        """Assemble the dense operator matrix column by column (small grids)."""
        n = self.grid.size
        if n > max_size:
            raise SizeMismatch(f"dense assembly capped at {max_size} unknowns")
        cols = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            cols[:, j] = self._apply_direct_flat(e)
            e[j] = 0.0
        return cols


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
        "rank": op.plan.rank if op.plan else 0,
        "seconds_per_apply": best,
    }


def fit_loglog_slope(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    return float(np.polyfit(x, y, 1)[0])

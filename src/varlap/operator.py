"""The discrete variable-order fractional Laplacian: direct and fast applies.

At node x_j the operator is ``v_j = h^{-alpha_j} sum_k a^{(alpha_j)}_{k-j} u_k``
with the sum over interior nodes (the extended Dirichlet condition zeroes
everything else).  In both modes the operator groups its nodes by order
once (``lowrank.distinct_values``), keeping the sorted distinct orders and
each node's index into them; the direct rows, the fast coefficient table and
the solver's tau model all read that grouping.  Two evaluation paths:

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
no complex transform runs to get it.  Only that octant is stored, as the
DCT-I returns it: an apply reads rows L/2+1..L-1 of every leading axis as a
reversed view of rows L/2-1..1, and the last axis is the rfft half.
The apply's transforms are pruned: the forward one pads each axis just
before transforming it, and the inverse one cuts each axis back to N entries
right after transforming it, so no transform runs on a line that is all
zeros or that the interior block never reads.  Kernel spectra and the
h^(-alpha_q)-scaled Lagrange coefficients are built once per operator, so
each repeated apply (every Krylov iteration) costs one forward and r inverse
transforms.  The coefficients are kept once per distinct order, in an (r,
distinct) table whose rows each rank term gathers through the index.  So an
operator keeps the r octant spectra, the table, the orders and the index:
at rank 7, 4.7 MiB at 2D N = 255 and 2.2 MiB at 3D N = 31.  The
padded spectrum, its product with one kernel spectrum (both of full rfftn
shape) and, in 3D, the kernel spectrum unfolded on its middle axis live in
a workspace that the caller of an apply may pass and reuse: the solver
allocates one per solve, so no full-size padded array is allocated per
Krylov iteration, and one operator may be applied from several threads at
once, each with its own workspace.

Beside the workspace an apply allocates its output, a coefficient buffer
of one row block and one row block of transform output at a time (and, on
a masked operator, a masked copy of its input).  The last-axis transforms
run per block of axis-0 rows whose half-spectrum takes about
``_BLOCK_BYTES``: the forward one zero-pads each block in the spectrum's
own memory, and the inverse one yields each block to be scaled and added
into the output while it is in cache.  The leading-axis transforms run in
place.  So at 2D N = 511 an apply allocates its 2 MiB output and about
1.2 MiB more; 2D N = 127 and 3D N = 31 are one block, and 1D is one block
of one row.
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
    check_rank,
    distinct_values,
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

#: Bytes of half-spectrum per block of axis-0 rows that an apply's last-axis
#: transforms run on (0.5 MiB): a 2D N = 127 or 3D N = 31 grid is one block
_BLOCK_BYTES = 2**19


def _fast_axis_len(n: int) -> int:
    """Even circulant length >= 2N with small prime factors.

    Only offsets |m| <= N-1 reach the interior block, so the embedding may
    be padded beyond 2N with zeros; FFT-friendly lengths avoid the slow
    large-prime transforms that plain 2N often is.  The length is even
    because the kernel spectrum is a DCT-I of half of it plus one entry.
    """
    return 2 * sfft.next_fast_len(n, real=True)


def _rfft_shape(pad_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of the rfftn of an array of shape ``pad_shape``."""
    return pad_shape[:-1] + (pad_shape[-1] // 2 + 1,)


def _times_kernel(spec: np.ndarray, kernel: np.ndarray, out: np.ndarray,
                  unfolded: np.ndarray | None = None) -> None:
    """``spec`` times the full kernel spectrum, written into ``out``.

    ``kernel`` holds rows 0..L/2 of every leading axis; rows L/2+1..L-1 of
    the full spectrum are rows L/2-1..1 read backwards.  In 1D axis 0 is the
    rfft axis, which ``kernel`` holds whole.  In 3D the middle axis is first
    mirrored out into ``unfolded``, of shape (L0/2+1, L1, L2/2+1): the copy
    and two multiplies take less time than four multiplies over the octant's
    mirrored views (0.28 against 0.39 ms per term at 3D N = 31, 2.2 against
    2.5 ms at N = 63, one core).
    """
    if kernel.ndim == 3:
        rows = kernel.shape[1]
        unfolded[:, :rows] = kernel
        unfolded[:, rows:] = kernel[:, rows - 2:0:-1]
        kernel = unfolded
    rows = kernel.shape[0]
    np.multiply(spec[:rows], kernel, out=out[:rows])
    if spec.shape[0] > rows:
        np.multiply(spec[rows:], kernel[rows - 2:0:-1], out=out[rows:])


def _block_rows(grid_shape: tuple[int, ...], pad_len: int) -> int:
    """Axis-0 rows per block that the last-axis transforms run on.

    A block's half-spectrum takes about ``_BLOCK_BYTES``: one row is
    ``prod(grid_shape[1:-1])`` lines of ``pad_len // 2 + 1`` complex values.
    In 1D axis 0 is the transformed axis, so the one block is the whole row.
    """
    if len(grid_shape) == 1:
        return grid_shape[0]
    row_bytes = math.prod(grid_shape[1:-1]) * (pad_len // 2 + 1) * 16
    return min(grid_shape[0], max(1, _BLOCK_BYTES // row_bytes))


def _row_blocks(grid_shape: tuple[int, ...],
                pad_len: int) -> list[tuple[slice, ...]]:
    """Index tuples of the blocks of :func:`_block_rows` axis-0 rows; in 1D
    the empty index, the whole row."""
    if len(grid_shape) == 1:
        return [()]
    n0, step = grid_shape[0], _block_rows(grid_shape, pad_len)
    return [(slice(i, min(i + step, n0)),) for i in range(0, n0, step)]


def _forward(u_nd: np.ndarray, pad_shape: tuple[int, ...],
             spec: np.ndarray) -> np.ndarray:
    """Spectrum of ``u_nd`` zero-padded to ``pad_shape``, written into ``spec``.

    ``spec`` has the rfftn shape of ``pad_shape``.  The last axis is
    transformed one block of axis-0 rows at a time: each block is
    zero-padded in the part of ``spec`` that its half-spectrum then
    overwrites.  Each leading axis is zero-padded just before it is
    transformed, in place.
    """
    lead = tuple(slice(0, n) for n in u_nd.shape[:-1])
    n, length = u_nd.shape[-1], pad_shape[-1]
    for block in _row_blocks(u_nd.shape, length):
        target = spec[block + lead[1:]]
        # the block zero-padded in the target's own memory, read as doubles
        padded = target.view(np.float64)[..., :length]
        padded[..., :n] = u_nd[block]
        padded[..., n:] = 0.0
        target[...] = sfft.rfft(padded, axis=-1)
    for ax in range(u_nd.ndim - 2, -1, -1):
        part = spec[lead[:ax]]
        part[(slice(None),) * ax + (slice(u_nd.shape[ax], None),)] = 0.0
        done = sfft.fft(part, axis=ax, overwrite_x=True)
        # an in-place transform returns a new array over part's memory;
        # copying it onto itself would go through a full temporary
        if not np.shares_memory(done, part):
            part[...] = done
    return spec


def _inverse(spec: np.ndarray, grid_shape: tuple[int, ...],
             pad_shape: tuple[int, ...]):
    """Leading ``grid_shape`` block of the inverse of an rfftn-layout spectrum,
    yielded as ``(block, values)`` per block of axis-0 rows (:func:`_row_blocks`).

    Overwrites ``spec``.  Each block's values are a fresh array of the
    block's shape, ready to be scaled in place.
    """
    for ax, n in enumerate(grid_shape[:-1]):
        spec = sfft.ifft(spec, axis=ax, overwrite_x=True)
        spec = spec[(slice(None),) * ax + (slice(0, n),)]
    for block in _row_blocks(grid_shape, pad_shape[-1]):
        yield block, sfft.irfft(spec[block], n=pad_shape[-1],
                                axis=-1)[..., :grid_shape[-1]]


@dataclass(frozen=True)
class ConstantOrderKernel:
    """One constant-order stencil on a grid, ready for FFT circular applies."""

    alpha: float
    h: float
    spectrum: np.ndarray          # real DCT-I, rows 0..L/2 of every axis
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
        # the leading axes stay at half length (_times_kernel mirrors them)
        # and the last is the rfft axis
        spectrum = sfft.dctn(half, type=1, overwrite_x=True)
        return cls(alpha=float(alpha), h=float(h), spectrum=spectrum,
                   pad_shape=pad_shape)


class VariableOrderOperator:
    """Discrete variable-order fractional Laplacian on a grid.

    Args:
        grid: interior-node grid.
        field: order field; sampled on ``grid`` (resampled if not).
        mode: "fast" (rank decomposition, default) or "direct".
        rank: number of Chebyshev nodes for the fast path (default 7);
            :func:`~varlap.lowrank.estimate_rank` gives the smallest rank
            that meets an error target.
        plan: an explicit ChebyshevPlan overriding rank.
        mask: optional embedding mask; masked-out nodes contribute zero and
            receive zero in every apply.

    Both modes apply the same weights, :func:`~varlap.weights.operator_block`
    of each order, which depend only on the order, the dimension and the
    grid size.
    """

    def __init__(self, grid: UniformGrid, field: OrderField,
                 mode: str = "fast", rank: int | None = None,
                 plan: ChebyshevPlan | None = None,
                 mask: DomainMask | None = None):
        if mode not in ("fast", "direct"):
            raise InvalidRange(f"mode must be fast or direct, got {mode!r}")
        if field.sampled is None or field.grid is not grid:
            field = sample_order(field, grid)
        if mask is not None and mask.grid.shape != grid.shape:
            raise GridMismatch("mask grid does not match operator grid")
        check_rank(rank)     # direct mode ignores it, but checks it
        self.grid = grid
        self.field = field
        self.mode = mode
        self.mask = mask
        self.n_max = max(grid.n_per_dim)

        self.plan: ChebyshevPlan | None = None
        self.kernels: list[ConstantOrderKernel] = []
        if mode == "fast":
            if plan is None:
                plan = build_plan(field.alpha_min, field.alpha_max,
                                  rank if rank is not None else DEFAULT_RANK)
            self.plan = plan
            # kernels first: their transients are freed before the grouping
            self.kernels = [self.constant_order_kernel(a) for a in plan.nodes]
        # the one grouping of the orders that every consumer reads
        (self._orders,), index = distinct_values(field.sampled)
        self._order_index = index.reshape(grid.shape)
        if mode == "fast":
            self._rank_table = rank_coefficients(plan, self._orders, grid.h)

    # -- kernel and weight-row construction -------------------------------

    def constant_order_kernel(self, alpha: float) -> ConstantOrderKernel:
        """The constant-order kernel of order ``alpha`` on this grid."""
        block = operator_block(alpha, self.grid.dim, self.n_max)
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

    def _workspace(self) -> tuple | None:
        """A fresh workspace for fast applies, None for a direct operator.

        It holds the padded spectrum and one rank term's product, both of
        rfftn shape and complex, and in 3D one kernel spectrum unfolded on
        its middle axis (None in 1D and 2D).
        """
        if self.mode != "fast":
            return None
        shape = _rfft_shape(self.kernels[0].pad_shape)
        spec, prod = np.empty((2,) + shape, dtype=complex)
        unfolded = None
        if self.grid.dim == 3:
            unfolded = np.empty(self.kernels[0].spectrum.shape[:1] + shape[1:])
        return spec, prod, unfolded

    def _apply_flat(self, values: np.ndarray,
                    work: tuple | None = None) -> np.ndarray:
        """The apply to a flat array, the one funnel every apply goes through.

        ``work`` is a workspace from :meth:`_workspace`, owned by the caller,
        who may reuse it for any number of applies from one thread at a
        time; the apply allocates its own if given none.  A direct apply
        ignores it.
        """
        if self.mode == "fast":
            return self._apply_fast_flat(values, work)
        return self._apply_direct_flat(values)

    def _masked_input(self, values: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return values
        out = values.copy()
        out[~self.mask.inside] = 0.0
        return out

    def _apply_fast_flat(self, values: np.ndarray,
                         work: tuple | None = None) -> np.ndarray:
        vals = self._masked_input(np.asarray(values, dtype=float))
        shape, pad_shape = self.grid.shape, self.kernels[0].pad_shape
        spec, prod, unfolded = self._workspace() if work is None else work
        _forward(vals.reshape(shape), pad_shape, spec)
        out = np.zeros(shape)
        coef = np.empty((_block_rows(shape, pad_shape[-1]),) + shape[1:])
        # fixed ascending-q summation keeps results bitwise reproducible
        for row, kern in zip(self._rank_table, self.kernels):
            _times_kernel(spec, kern.spectrum, prod, unfolded)
            for block, term in _inverse(prod, shape, pad_shape):
                c = coef[:term.shape[0]]
                # "clip" writes straight into c; "raise" buffers its output
                np.take(row, self._order_index[block], out=c, mode="clip")
                term *= c
                out[block] += term
        out = out.ravel()
        if self.mask is not None:
            out[~self.mask.inside] = 0.0
        return out

    def _rows(self):
        """Yield ``(j, scale, row)`` for every node j inside the mask.

        ``v_j = scale * (row @ u)`` for flat u: the row holds the weights at
        offsets k - j over all interior nodes k, and scale is h^(-alpha_j).
        Rows are windows of the weight block of the node's order.  The nodes
        are walked sorted by the operator's grouping, ``_order_index`` into
        ``_orders``, so each block is built once per distinct order.
        """
        h, shape = self.grid.h, self.grid.shape
        index = self._order_index.ravel()
        nodes = (np.arange(self.grid.size) if self.mask is None
                 else np.flatnonzero(self.mask.inside))
        nodes = nodes[np.argsort(index[nodes], kind="stable")]
        axis_range = [np.arange(n) for n in shape]
        current = -1
        for j in nodes:
            if index[j] != current:
                current = index[j]
                alpha = float(self._orders[current])
                block = operator_block(alpha, self.grid.dim, self.n_max)
                scale = h ** (-alpha)
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
    """Wall-clock seconds per fast apply (best of ``n_reps``).

    Raises:
        PlanMissing: ``op`` is not a fast operator.
        InvalidRange: ``n_reps`` < 1.
    """
    if op.mode != "fast":
        raise PlanMissing("timing is defined for the fast path")
    if n_reps < 1:
        raise InvalidRange(f"reps must be >= 1, got {n_reps}")
    u = np.random.default_rng(0).standard_normal(op.grid.size)
    # one workspace for every apply, as a solve holds one
    work = op._workspace()
    op._apply_flat(u, work)
    best = math.inf
    for _ in range(n_reps):
        t0 = time.perf_counter()
        op._apply_flat(u, work)
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

"""Uniform tensor grids, sampled order fields, grid functions, and domain masks.

All unknowns live on the interior nodes of a box: with N interior nodes per
dimension the step is h = (upper - lower) / (N + 1) and the node coordinates
are x_j = lower + j*h for j = 1..N.  Boundary nodes are excluded, matching the
extended homogeneous Dirichlet condition (u identically zero outside the box).

Values are stored flat in lexicographic order with the last dimension varying
fastest (C order), a convention shared by the weight tables and FFT layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import EmptyDomain, InvalidBox, InvalidDim, OrderOutOfRange

__all__ = [
    "UniformGrid",
    "OrderField",
    "GridFunction",
    "DomainMask",
    "build_grid",
    "sample_order",
    "make_mask",
]

#: evaluators and predicates receive points of shape (npoints, dim)
PointFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UniformGrid:
    """Tensor-product grid of interior nodes on a box.

    Attributes:
        dim: spatial dimension, 1, 2 or 3.
        lower, upper: per-dimension box bounds.
        n_per_dim: per-dimension interior node count.
        h: common step (upper - lower) / (N + 1); equal in every dimension.
    """

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_per_dim: tuple[int, ...]
    h: float

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_per_dim

    @property
    def size(self) -> int:
        return int(np.prod(self.n_per_dim))

    def axis_nodes(self, p: int) -> np.ndarray:
        """Interior node coordinates along dimension p."""
        n = self.n_per_dim[p]
        return self.lower[p] + self.h * np.arange(1, n + 1)

    def points(self) -> np.ndarray:
        """All interior nodes, shape (size, dim), lexicographic order."""
        axes = [self.axis_nodes(p) for p in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class OrderField:
    """The variable order alpha(x): its rule, bounds, and optional samples.

    Downstream modules consume only ``sampled``; the evaluator is kept so the
    same field can be re-sampled on finer grids (nonsmooth piecewise orders
    need no special casing).
    """

    evaluator: PointFunc
    alpha_min: float
    alpha_max: float
    sampled: np.ndarray | None = None
    grid: UniformGrid | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha_min <= self.alpha_max <= 2.0):
            raise OrderOutOfRange(
                f"order bounds [{self.alpha_min}, {self.alpha_max}] outside (0, 2]"
            )

    @property
    def is_constant(self) -> bool:
        return self.alpha_min == self.alpha_max

    @classmethod
    def constant(cls, alpha: float) -> "OrderField":
        a = float(alpha)
        return cls(evaluator=lambda pts: np.full(pts.shape[0], a),
                   alpha_min=a, alpha_max=a)

    @classmethod
    def from_callable(cls, func: PointFunc, alpha_min: float,
                      alpha_max: float) -> "OrderField":
        return cls(evaluator=func, alpha_min=float(alpha_min),
                   alpha_max=float(alpha_max))


@dataclass(frozen=True)
class GridFunction:
    """Real values on the interior nodes of a grid, zero outside the domain."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != self.grid.size:
            raise InvalidDim(
                f"value count {vals.size} != grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidBox("grid function contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def values_nd(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    @classmethod
    def from_callable(cls, grid: UniformGrid, func: PointFunc) -> "GridFunction":
        return cls(grid, np.asarray(func(grid.points()), dtype=float))

    @classmethod
    def zeros(cls, grid: UniformGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.size))

    def norm_inf(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


@dataclass(frozen=True)
class DomainMask:
    """Marks which nodes of the embedding box are unknowns.

    ``inside`` is True at unknowns and False at nodes pinned to the Dirichlet
    zero value; irregular domains are embedded this way into rectangles.
    """

    grid: UniformGrid
    inside: np.ndarray

    def __post_init__(self):
        ins = np.asarray(self.inside, dtype=bool).ravel()
        if ins.size != self.grid.size:
            raise InvalidDim("mask size does not match grid")
        if not ins.any():
            raise EmptyDomain("mask selects no node")
        object.__setattr__(self, "inside", ins)


def build_grid(dim: int,
               lower: float | tuple[float, ...],
               upper: float | tuple[float, ...],
               n_per_dim: int | tuple[int, ...]) -> UniformGrid:
    """Build the interior-node grid of a box.

    Scalars for ``lower``/``upper``/``n_per_dim`` are broadcast to every
    dimension.  The step must come out equal in all dimensions (the weight
    quadrature assumes an isotropic step).

    Raises:
        InvalidDim: dim not in {1, 2, 3} or a node count not an integer >= 1.
        InvalidBox: lower >= upper, non-finite bounds, or unequal steps.
    """
    if dim not in (1, 2, 3):
        raise InvalidDim(f"dim must be 1, 2 or 3, got {dim}")
    lo = tuple(float(v) for v in np.broadcast_to(lower, (dim,)))
    hi = tuple(float(v) for v in np.broadcast_to(upper, (dim,)))
    ns = tuple(np.broadcast_to(n_per_dim, (dim,)).tolist())
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in ns):
        raise InvalidDim(f"node counts must be integers >= 1, got {ns}")
    if not all(np.isfinite(lo)) or not all(np.isfinite(hi)):
        raise InvalidBox("box bounds must be finite")
    if any(a >= b for a, b in zip(lo, hi)):
        raise InvalidBox(f"need lower < upper per dimension, got {lo}, {hi}")
    steps = [(b - a) / (n + 1) for a, b, n in zip(lo, hi, ns)]
    h = steps[0]
    if any(abs(s - h) > 1e-12 * abs(h) for s in steps):
        raise InvalidBox(f"unequal steps {steps}; the step must be isotropic")
    return UniformGrid(dim=dim, lower=lo, upper=hi, n_per_dim=ns, h=h)


def sample_order(field: OrderField, grid: UniformGrid) -> OrderField:
    """Sample alpha(x) at every node and tighten the declared bounds.

    Idempotent: resampling an already-sampled field on the same grid returns
    identical values.

    Raises:
        OrderOutOfRange: some sampled value is outside (0, 2], outside the
            declared bounds (up to rounding, 1e-12), or non-finite.
    """
    vals = np.asarray(field.evaluator(grid.points()), dtype=float).ravel()
    if vals.size != grid.size:
        raise InvalidDim("evaluator returned wrong number of values")
    if not np.all(np.isfinite(vals)):
        raise OrderOutOfRange("sampled order contains non-finite values")
    lo, hi = float(vals.min()), float(vals.max())
    if lo <= 0.0 or hi > 2.0:
        raise OrderOutOfRange(f"sampled order range [{lo}, {hi}] outside (0, 2]")
    if lo < field.alpha_min - 1e-12 or hi > field.alpha_max + 1e-12:
        raise OrderOutOfRange(
            f"sampled order range [{lo}, {hi}] leaves the declared bounds "
            f"[{field.alpha_min}, {field.alpha_max}]"
        )
    return replace(field,
                   alpha_min=max(field.alpha_min, lo),
                   alpha_max=min(field.alpha_max, hi),
                   sampled=vals, grid=grid)


def make_mask(grid: UniformGrid, predicate: PointFunc) -> DomainMask:
    """Mask the nodes where ``predicate`` holds; the rest are Dirichlet zeros.

    Raises:
        EmptyDomain: predicate is false at every node.
    """
    inside = np.asarray(predicate(grid.points()), dtype=bool).ravel()
    return DomainMask(grid, inside)

"""Reference values: exact fractional Laplacian of the Gaussian and a
singular-integral quadrature oracle.

Two independent routes to the same quantity cross-validate each other and the
discrete operator.  The closed route evaluates

    (-Lap)^{alpha/2} exp(-|x|^2)
        = 2^alpha * Gamma((d+alpha)/2) / Gamma(d/2)
          * 1F1((d+alpha)/2; d/2; -|x|^2)

through scipy's confluent hypergeometric ufunc; the brute-force route
adaptively integrates the symmetrized hypersingular integral

    (c_{d,alpha}/2) * int [2u(x) - u(x+y) - u(x-y)] / |y|^{d+alpha} dy,

whose integrand is O(|y|^{2-d-alpha}) near the origin and therefore needs no
principal-value machinery.  The quadrature oracle imports ``scipy.integrate``
on first use, so importing the package does not load it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, hyp1f1

from .errors import (
    InvalidDim,
    InvalidRange,
    OrderOutOfRange,
    QuadratureNonConvergent,
    TailTooLarge,
)
from .grid import GridFunction
from .lowrank import distinct_values

__all__ = [
    "gaussian_frac_lap",
    "normalization_constant",
    "integral_frac_lap",
    "manufactured_rhs_case1",
]


def gaussian_frac_lap(x, alpha, d: int):
    """Exact ``(-Lap)^{alpha/2} exp(-|x|^2)`` at point(s) x in dimension d.

    ``x`` is a point of shape (d,) (scalar in 1D) or a batch (n, d); ``alpha``
    may be a scalar or per-point array.  Valid for alpha in (0, 2]; alpha = 2
    reproduces the classical negative Laplacian of the Gaussian.

    The value depends on the point only through (|x|^2, alpha), so each
    distinct pair is evaluated once and scattered back: a symmetric grid
    with a radial, piecewise or constant order repeats each pair about ten
    times.  |x|^2 is summed one axis at a time, so no squared copy of the
    (n, d) points is made; the distinct pairs and each point's position
    among them come from ``lowrank.distinct_values``, the grouping the
    operator uses for its orders.  So for n points the call holds at most a
    few length-n vectors.  ``scipy.special.hyp1f1`` works elementwise, so
    the result is bitwise that of evaluating every point.

    Raises:
        InvalidDim: d not in 1..3, or points with other than d components.
        InvalidRange: a non-finite point, or one whose |x|^2 overflows.
        OrderOutOfRange: an order outside (0, 2], or non-finite.
    """
    d = int(d)
    if d not in (1, 2, 3):
        raise InvalidDim(f"dimension must be 1, 2 or 3, got {d}")
    pts = np.asarray(x, dtype=float)
    if pts.ndim <= 1 and d == 1:
        pts = pts[..., None]
    elif pts.ndim <= 1 and pts.size != d:
        raise InvalidDim(f"point has {pts.size} components, expected {d}")
    elif pts.shape[-1] != d:
        raise InvalidDim(f"points have {pts.shape[-1]} components, expected {d}")
    with np.errstate(over="ignore"):
        r2 = pts[..., 0] ** 2
        for p in range(1, d):
            r2 += pts[..., p] ** 2
    if not np.isfinite(r2).all():                  # NaN and inf points too
        raise InvalidRange("points must be finite, with a finite |x|^2")
    shape, r2 = np.shape(r2), np.ravel(r2)
    al = np.broadcast_to(np.asarray(alpha, dtype=float), shape).ravel()
    if not np.all((al > 0.0) & (al <= 2.0)):       # NaN included
        raise OrderOutOfRange("order outside (0, 2]")
    (r2u, alu), inverse = distinct_values(r2, al)
    # alpha = 2 takes the classical (2d - 4|x|^2) e^(-|x|^2): there a - b = 1,
    # and scipy sums about |x|^2 series terms (seconds at |x|^2 = 1e12)
    vals = (2.0 * d - 4.0 * r2u) * np.exp(-r2u)
    frac = alu < 2.0
    a = (d + alu[frac]) / 2.0
    vals[frac] = (2.0 ** alu[frac] * np.exp(gammaln(a) - gammaln(d / 2.0))
                  * hyp1f1(a, d / 2.0, -r2u[frac]))
    out = np.reshape(vals[inverse], shape)
    return float(out) if out.ndim == 0 else out


def normalization_constant(d: int, alpha: float) -> float:
    """Constant ``c_{d,alpha} = 2^(alpha-1) alpha Gamma((alpha+d)/2) /
    (pi^(d/2) Gamma(1-alpha/2))``, positive on alpha in (0, 2).

    Evaluated through log-Gamma so the alpha -> 2 pole surfaces as an explicit
    error rather than overflow.

    Raises:
        OrderOutOfRange: alpha outside the open interval (0, 2).
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise OrderOutOfRange(
            f"normalization constant defined on (0, 2); got alpha = {alpha}"
        )
    logc = ((alpha - 1.0) * math.log(2.0)
            + math.lgamma((alpha + d) / 2.0)
            - (d / 2.0) * math.log(math.pi)
            - math.lgamma(1.0 - alpha / 2.0))
    return alpha * math.exp(logc)


def _sphere_directions(d: int, n_theta: int, n_polar: int):
    """Quadrature directions and weights on the unit sphere (full measure)."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        th = 2.0 * np.pi * np.arange(n_theta) / n_theta
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        w = np.full(n_theta, 2.0 * np.pi / n_theta)
        return dirs, w
    # d == 3: trapezoid in azimuth x Gauss-Legendre in cos(polar)
    nodes, glw = np.polynomial.legendre.leggauss(n_polar)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    ct, cc = np.meshgrid(th, nodes, indexing="ij")
    st = np.sqrt(1.0 - cc**2)
    dirs = np.stack([st * np.cos(ct), st * np.sin(ct), cc], axis=-1).reshape(-1, 3)
    w = (np.full(n_theta, 2.0 * np.pi / n_theta)[:, None] * glw[None, :]).ravel()
    return dirs, w


_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def integral_frac_lap(u, x, alpha: float, d: int,
                      cutoff_r: float | None = None, tol: float = 1e-8,
                      u_inf: float | None = None,
                      n_angle: int = 96) -> float:
    """Fractional Laplacian of a smooth function by direct quadrature.

    ``u`` maps points of shape (n, d) to values (n,).  The symmetrized
    integrand is integrated adaptively over |y| <= R in polar/spherical
    coordinates (a power substitution regularizes the residual |y|^(1-alpha)
    endpoint behavior); beyond R the function is replaced by its far-field
    constant ``u_inf`` (estimated from probe spheres when not given), turning
    the tail into the analytic term ``c * (u(x)-u_inf) * S_d * R^-alpha / alpha``.

    Raises:
        TailTooLarge: far-field deviation from u_inf too big for ``tol``.
        QuadratureNonConvergent: adaptive quadrature error above ``tol``.
        OrderOutOfRange: alpha outside (0, 2) (the constant is singular at 2).
    """
    from scipy.integrate import quad

    d = int(d)
    if d not in (1, 2, 3):
        raise InvalidDim(f"dimension must be 1, 2 or 3, got {d}")
    alpha = float(alpha)
    c = normalization_constant(d, alpha)
    x0 = np.atleast_1d(np.asarray(x, dtype=float)).reshape(d)
    ux = float(np.asarray(u(x0[None, :])).ravel()[0])
    radius = float(cutoff_r) if cutoff_r is not None else float(np.linalg.norm(x0)) + 8.0

    dirs, wts = _sphere_directions(d, n_angle, max(8, n_angle // 4))

    def angular(rho: float) -> float:
        plus = np.asarray(u(x0[None, :] + rho * dirs)).ravel()
        minus = np.asarray(u(x0[None, :] - rho * dirs)).ravel()
        return float(np.dot(wts, 2.0 * ux - plus - minus))

    # far-field constant and deviation from it on probe spheres
    probe = []
    for fac in (1.0, 1.5, 2.0, 4.0):
        probe.append(np.asarray(u(x0[None, :] + fac * radius * dirs)).ravel())
        probe.append(np.asarray(u(x0[None, :] - fac * radius * dirs)).ravel())
    probe = np.concatenate(probe)
    if u_inf is None:
        u_inf = float(np.median(probe))
    far_dev = float(np.abs(probe - u_inf).max())
    area = _SPHERE_AREA[d]
    tail_bound = c * area * far_dev * radius ** (-alpha) / alpha
    if tail_bound > max(tol, 1e-15):
        raise TailTooLarge(
            f"far-field residual {tail_bound:.2e} exceeds tol {tol:.2e};"
            " increase cutoff_r"
        )

    rho0 = min(1.0, radius / 2.0)
    p = 2.0 - alpha

    # A(rho) = O(rho^2) near zero, but evaluating it there in floats is pure
    # cancellation noise amplified by rho^-2; below rho_c the quadratic
    # profile is frozen from its value at rho_c.
    rho_c = 3e-4
    s_floor = angular(rho_c) / rho_c**2

    # rho = s^(1/p) turns the rho^(1-alpha) endpoint behavior of the
    # symmetrized integrand into a bounded one: A(rho) rho^(-1-alpha) drho
    # = [A(rho) rho^(-2)] / p ds.
    def inner(s: float) -> float:
        rho = s ** (1.0 / p)
        if rho < rho_c:
            return s_floor / p
        return angular(rho) * rho**-2.0 / p

    val1, err1 = quad(inner, 0.0, rho0**p, epsabs=tol / 4.0, epsrel=1e-11,
                      limit=200)
    val2, err2 = quad(lambda rho: angular(rho) * rho ** (-1.0 - alpha),
                      rho0, radius, epsabs=tol / 4.0, epsrel=1e-11, limit=200)
    if err1 + err2 > max(tol, 1e-13 * (abs(val1) + abs(val2))):
        raise QuadratureNonConvergent(
            f"quadrature error estimate {err1 + err2:.2e} above tol {tol:.2e}"
        )
    tail = c * (ux - u_inf) * area * radius ** (-alpha) / alpha
    return c / 2.0 * (val1 + val2) + tail


def manufactured_rhs_case1(op, beta: float,
                           reaction: float = 1.0) -> GridFunction:
    """Right-hand side for the known-solution elliptic benchmark.

    The target solution is ``u = prod_p (1 - x_p^2)^beta`` on the box; the
    data is ``op``, a :class:`~varlap.operator.VariableOrderOperator` on the
    fine reference grid, applied to it, plus the reaction term.  A coarse
    grid nested in the reference grid takes its data by exact sampling
    (``experiments.restrict_nested``).

    Raises:
        InvalidRange: beta < 2.
    """
    if beta < 2.0:
        raise InvalidRange(f"beta must be >= 2, got {beta}")
    pts = op.grid.points()
    u_ref = np.prod(1.0 - pts**2, axis=-1) ** float(beta)
    return GridFunction(op.grid, op._apply_flat(u_ref) + reaction * u_ref)

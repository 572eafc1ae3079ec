import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1

import varlap as vl
from varlap.errors import InvalidRange, NotNested, OrderOutOfRange, TailTooLarge
from varlap.experiments import restrict_nested
from varlap.presets import order_field


def mp_hyp1f1_direct(a, b, z, dps=60):
    """Brute-force alternating Kummer series in extended precision.

    Inputs are widened before the loop: the cancellation amplifies any
    float-level rounding of the per-term factors.
    """
    with mpmath.workdps(dps):
        a, b, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        k = 0
        while True:
            term = term * (a + k) / ((b + k) * (k + 1)) * z
            total += term
            k += 1
            if abs(term) < mpmath.mpf(10) ** (-dps) and k > abs(z):
                return float(total)


def gaussian(pts):
    pts = np.atleast_2d(pts)
    return np.exp(-np.sum(pts**2, axis=-1))


def exact_at(x, alpha, d, f11):
    """The oracle's closed form at point x, with 1F1 evaluated by ``f11``."""
    r2 = float(np.sum(np.asarray(x, dtype=float) ** 2))
    a, b = (d + alpha) / 2.0, d / 2.0
    with mpmath.workdps(30):
        front = mpmath.mpf(2) ** alpha * mpmath.gamma(a) / mpmath.gamma(b)
        return float(front * f11(a, b, -r2))


def point(r2, d):
    """A point of dimension d at squared distance about r2 off the axes."""
    return np.full(d, math.sqrt(r2 / d))


def test_hyp1f1_against_extended_precision():
    # (d, alpha, |x|^2): 1F1((d+alpha)/2; d/2; -|x|^2) across the dimensions
    cases = [(2, 1.5, 4.0), (1, 0.1, 12.5), (3, 1.9, 30.0), (1, 1.4, 7.0),
             (2, 1.8, 0.3)]
    for d, alpha, r2 in cases:
        x = point(r2, d)
        ref = exact_at(x, alpha, d, mp_hyp1f1_direct)
        assert vl.gaussian_frac_lap(x, alpha, d) == pytest.approx(ref, rel=1e-11)


def test_hyp1f1_kummer_route_consistency():
    # the oracle must agree with the extended-precision direct alternating
    # series over the negative-argument range
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.choice([1, 2, 3]))
        alpha = rng.uniform(0.05, 2.0)
        x = point(rng.uniform(1e-3, 50.0), d)
        ref = exact_at(x, alpha, d, mp_hyp1f1_direct)
        val = vl.gaussian_frac_lap(x, alpha, d)
        assert val == pytest.approx(ref, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_frac_lap_wide_range(d):
    # |x|^2 up to 1e4; the reference is mpmath's 1F1, since the direct
    # alternating series cancels catastrophically at such arguments
    rng = np.random.default_rng(11 + d)
    r2s = np.concatenate([[200.5, 1e3, 1e4], 10.0 ** rng.uniform(-2, 4, 30)])
    alphas = np.concatenate([[0.05, 1.0, 2.0], rng.uniform(0.05, 2.0, 30)])
    for r2, alpha in zip(r2s, alphas):
        x = point(r2, d)
        ref = exact_at(x, alpha, d, mpmath.hyp1f1)
        assert vl.gaussian_frac_lap(x, alpha, d) == pytest.approx(
            ref, rel=1e-12, abs=1e-300)


def test_gaussian_frac_lap_at_origin():
    # value = 2^alpha Gamma((d+alpha)/2)/Gamma(d/2)
    assert vl.gaussian_frac_lap(0.0, 2.0, 1) == pytest.approx(2.0, rel=1e-12)
    val = vl.gaussian_frac_lap(np.zeros(2), 1.0, 2)
    assert val == pytest.approx(2.0 * math.gamma(1.5), rel=1e-12)


def test_gaussian_frac_lap_classical_limit_point():
    # alpha = 2 is the negative Laplacian: (2 - 4x^2) e^{-x^2} in 1D
    assert vl.gaussian_frac_lap(1.0, 2.0, 1) == pytest.approx(-2.0 / math.e, rel=1e-12)
    # and stays cheap far out, where a 1F1 series with a - b = 1 is not
    assert vl.gaussian_frac_lap([1e6, 0.0], 2.0, 2) == 0.0


def test_gaussian_frac_lap_alpha_to_two_continuity():
    x = np.array([0.7, -0.3])
    classical = vl.gaussian_frac_lap(x, 2.0, 2)
    diffs = [abs(vl.gaussian_frac_lap(x, 2.0 - 10.0**-k, 2) - classical)
             for k in range(2, 7)]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-4


def _gaussian_frac_lap_every_point(pts, alpha, d):
    """The closed form evaluated at every point, without deduplication."""
    r2 = np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)
    al = np.broadcast_to(np.asarray(alpha, dtype=float), r2.shape)
    front = 2.0**al * np.exp(gammaln((d + al) / 2.0) - gammaln(d / 2.0))
    return front * hyp1f1((d + al) / 2.0, d / 2.0, -r2)


@pytest.mark.parametrize("order", ["radial", "constant", "random", "scattered"])
def test_gaussian_frac_lap_bitwise_on_symmetric_grid(order):
    grid = vl.build_grid(2, -4.0, 4.0, 63)
    pts = grid.points()
    if order == "radial":
        alpha = vl.sample_order(order_field("alpha2"), grid).sampled
    elif order == "constant":
        alpha = 1.3
    elif order == "random":
        # orders independent of |x| on repeated radii: a key on |x|^2 alone
        # would hand one radius's value to another order
        alpha = np.random.default_rng(3).choice([0.4, 1.1, 1.9], grid.size)
    else:
        # shuffled off-grid points whose sign flips and swapped coordinates
        # repeat |x|^2 bitwise; the swapped copies draw their own order, so
        # some pairs repeat and some radii carry two orders
        rng = np.random.default_rng(7)
        base = rng.uniform(-3.0, 3.0, (500, 2))
        base_alpha = rng.choice([0.4, 1.1, 1.9], 500)
        pts = np.concatenate([base, -base, base[:, ::-1], base * [1.0, -1.0]])
        alpha = np.concatenate([base_alpha, base_alpha,
                                rng.choice([0.4, 1.1], 500), base_alpha])
        perm = rng.permutation(pts.shape[0])
        pts, alpha = pts[perm], alpha[perm]
        pairs = set(zip(np.sum(pts**2, axis=-1), alpha))
        assert 500 <= len(pairs) < 1000
    got = vl.gaussian_frac_lap(pts, alpha, 2)
    assert got.shape == (pts.shape[0],)
    assert np.array_equal(got, _gaussian_frac_lap_every_point(pts, alpha, 2))


def test_gaussian_frac_lap_refuses_non_finite_input():
    for alpha in (np.nan, np.inf, [1.2, np.nan]):
        with pytest.raises(OrderOutOfRange):
            vl.gaussian_frac_lap([[0.3, 0.2], [0.1, 0.4]], alpha, 2)
    for x in ([np.nan, 0.2], [np.inf, 0.2], [[0.1, 0.2], [0.3, -np.inf]]):
        with pytest.raises(InvalidRange):
            vl.gaussian_frac_lap(x, 1.2, 2)
    with pytest.raises(InvalidRange):
        vl.gaussian_frac_lap(np.nan, 1.2, 1)
    # finite, but |x|^2 overflows: refused before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (2.0, 1.0):
            with pytest.raises(InvalidRange):
                vl.gaussian_frac_lap([1e200, 0.0], alpha, 2)


def test_gaussian_frac_lap_scalar_paths_return_float():
    one_d = vl.gaussian_frac_lap(0.6, 1.4, 1)
    point = vl.gaussian_frac_lap([0.6, -0.2], np.float64(1.4), 2)
    assert type(one_d) is float and type(point) is float
    assert one_d == _gaussian_frac_lap_every_point([[0.6]], 1.4, 1)[0]
    assert point == _gaussian_frac_lap_every_point([[0.6, -0.2]], 1.4, 2)[0]


def test_normalization_constant():
    # d=1, alpha=1: c = 1/pi (Cauchy kernel)
    assert vl.normalization_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    for d in (1, 2, 3):
        for alpha in (0.2, 1.0, 1.8):
            assert vl.normalization_constant(d, alpha) > 0.0
    with pytest.raises(OrderOutOfRange):
        vl.normalization_constant(2, 2.0)


def test_integral_constant_function_is_zero():
    val = vl.integral_frac_lap(lambda p: np.full(np.atleast_2d(p).shape[0], 0.7),
                               x=0.3, alpha=0.8, d=1, cutoff_r=6.0)
    assert abs(val) <= 1e-12


def test_integral_matches_closed_form_1d_origin():
    # both routes independently: c = 2 Gamma(1)/Gamma(1/2) = 2/sqrt(pi)
    val = vl.integral_frac_lap(gaussian, x=0.0, alpha=1.0, d=1)
    assert val == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)
    assert val == pytest.approx(vl.gaussian_frac_lap(0.0, 1.0, 1), abs=1e-6)


def test_integral_matches_closed_form_1d_offcenter():
    val = vl.integral_frac_lap(gaussian, x=1.5, alpha=0.5, d=1)
    assert val == pytest.approx(vl.gaussian_frac_lap(1.5, 0.5, 1), abs=1e-6)


def test_integral_matches_closed_form_2d():
    x = np.array([0.5, -0.25])
    val = vl.integral_frac_lap(gaussian, x=x, alpha=1.3, d=2)
    assert val == pytest.approx(vl.gaussian_frac_lap(x, 1.3, 2), abs=1e-6)


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_integral_matches_closed_form_3d(alpha):
    # the spherical directions of d = 3: gaps 9.2e-14 at alpha = 0.8 and
    # 1.6e-9 at alpha = 1.5
    x = np.array([0.3, -0.2, 0.1])
    val = vl.integral_frac_lap(gaussian, x=x, alpha=alpha, d=3)
    assert val == pytest.approx(vl.gaussian_frac_lap(x, alpha, 3), abs=1e-6)


def test_integral_tail_guard():
    with pytest.raises(TailTooLarge):
        vl.integral_frac_lap(gaussian, x=0.0, alpha=0.5, d=1, cutoff_r=1.5,
                             tol=1e-8)


def case1_rhs_on(coarse, field, beta=4.0):
    """Case-1 data on [-1, 1]^2 from the h_ref = 2^-7 reference grid."""
    fine = vl.build_grid(2, -1, 1, 255)
    op = vl.VariableOrderOperator(fine, field, mode="fast")
    f_ref = vl.manufactured_rhs_case1(op, beta=beta)
    return vl.GridFunction(coarse, restrict_nested(f_ref, coarse))


def test_manufactured_rhs_center_value():
    # alpha = 2 and beta = 4: data is -Lap u + u; at the center -Lap u = 16
    # and the discrete operator adds O(h_ref^2) ~ 24 h_ref^2
    g = vl.build_grid(2, -1, 1, 15)
    f = case1_rhs_on(g, vl.OrderField.constant(2.0))
    center = np.argmin(np.sum(g.points()**2, axis=-1))
    assert f.values[center] == pytest.approx(17.0, abs=5e-3)


def test_manufactured_rhs_bounded_near_boundary():
    g = vl.build_grid(2, -1, 1, 15)
    field = vl.OrderField.from_callable(
        lambda p: 1.0 + 0.25 * np.sqrt(np.sum(p**2, axis=-1)), 1.0, 1.5)
    f = case1_rhs_on(g, field)
    inner_max = np.abs(f.values).max()
    edge = np.abs(f.values_nd[0, :]).max()
    assert np.isfinite(f.values).all()
    assert edge <= 10.0 * inner_max


def test_manufactured_rhs_not_nested():
    g = vl.build_grid(2, -1, 1, 14)   # h = 2/15, not a multiple of 2^-7
    with pytest.raises(NotNested):
        case1_rhs_on(g, vl.OrderField.constant(1.5))


def test_manufactured_rhs_rejects_small_beta():
    g = vl.build_grid(1, -1, 1, 7)
    with pytest.raises(InvalidRange):
        vl.manufactured_rhs_case1(
            vl.VariableOrderOperator(g, vl.OrderField.constant(1.5)), beta=1.0)


def test_definition_equivalence_sample():
    # spot equivalence of the quadrature and transform routes
    rng = np.random.default_rng(3)
    for d in (1, 2):
        for _ in range(3):
            alpha = rng.uniform(0.3, 1.8)
            x = rng.uniform(-1.5, 1.5, size=d)
            a = vl.integral_frac_lap(gaussian, x=x, alpha=alpha, d=d)
            b = vl.gaussian_frac_lap(x if d > 1 else float(x[0]), alpha, d)
            assert a == pytest.approx(b, abs=1e-5)


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature oracle needs scipy.integrate; it imports it on use
    path = [str(Path(vl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, varlap, varlap.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

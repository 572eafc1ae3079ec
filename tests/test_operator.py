import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

import varlap as vl
from varlap.errors import GridMismatch, InvalidRange, PlanMissing
from varlap.operator import (ConstantOrderKernel, _fast_axis_len, _forward,
                             _inverse, _rfft_shape, fit_loglog_slope)
from varlap.presets import order_field

from conftest import gaussian_on, tanh_dec_field, tanh_inc_field


def constant_apply(grid, alpha, u):
    """The fast apply of the rank-1 operator of constant order ``alpha``."""
    op = vl.VariableOrderOperator(grid, vl.OrderField.constant(alpha), rank=1)
    return op._apply_fast_flat(u.ravel()).reshape(grid.shape)


def test_alpha2_reduces_to_second_difference():
    # u = x(1-x) has constant second derivative; the alpha = 2 stencil is
    # exact on it, including next to the boundary (u vanishes there)
    g = vl.build_grid(1, 0.0, 1.0, 7)
    x = g.axis_nodes(0)
    u = vl.GridFunction(g, x * (1.0 - x))
    op = vl.VariableOrderOperator(g, vl.OrderField.constant(2.0), mode="direct")
    v = op.apply(u)
    assert np.allclose(v.values[1:-1], 2.0, atol=1e-12)
    assert np.allclose(v.values, 2.0, atol=1e-12)


def test_constant_order_matches_dense_toeplitz():
    g = vl.build_grid(1, 0.0, 1.0, 4)
    w = vl.operator_block(1.5, 1, g.size)
    dense = np.array([[w[abs(k - j)] for k in range(4)]
                      for j in range(4)]) * g.h ** -1.5
    rng = np.random.default_rng(0)
    u = rng.standard_normal(4)
    out = constant_apply(g, 1.5, u)
    assert np.allclose(out, dense @ u, atol=1e-13)


def test_constant_order_delta_gives_matrix_column():
    g = vl.build_grid(1, 0.0, 1.0, 8)
    w = vl.operator_block(0.7, 1, g.size)
    j = 3
    e = np.zeros(8)
    e[j] = 1.0
    out = constant_apply(g, 0.7, e)
    col = np.array([w[abs(i - j)] for i in range(8)]) * g.h ** -0.7
    assert np.allclose(out, col, atol=1e-12)


def test_constant_order_2d_alpha2_is_five_point():
    g = vl.build_grid(2, 0.0, 1.0, 15)
    x = g.axis_nodes(0)
    u2 = np.sin(np.pi * x)[:, None] * np.sin(np.pi * x)[None, :]
    out = constant_apply(g, 2.0, u2)
    pad = np.zeros((17, 17))
    pad[1:-1, 1:-1] = u2
    lap5 = (4.0 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
            - pad[1:-1, :-2] - pad[1:-1, 2:]) / g.h**2
    assert np.allclose(out, lap5, atol=1e-12)


def test_zero_input_zero_output(grid_2d):
    field = vl.sample_order(tanh_dec_field(), grid_2d)
    op = vl.VariableOrderOperator(grid_2d, field, mode="fast")
    out = op.apply(vl.GridFunction.zeros(grid_2d))
    assert np.all(out.values == 0.0)


def test_fast_collapses_at_chebyshev_node(grid_1d):
    base = vl.OrderField.from_callable(lambda p: np.full(p.shape[0], 0.0),
                                       0.1, 1.9)
    plan = vl.build_plan(0.1, 1.9, 7)
    node = plan.nodes[2]
    field = vl.sample_order(
        vl.OrderField.from_callable(lambda p: np.full(p.shape[0], node),
                                    0.1, 1.9), grid_1d)
    op = vl.VariableOrderOperator(grid_1d, field, mode="fast", plan=plan)
    const = vl.VariableOrderOperator(
        grid_1d, vl.sample_order(vl.OrderField.constant(node), grid_1d),
        mode="fast", rank=1)
    u = gaussian_on(grid_1d)
    assert np.allclose(op.apply(u).values, const.apply(u).values, atol=1e-12)
    del base


def test_fast_matches_direct_2d():
    g = vl.build_grid(2, -4.0, 4.0, 31)
    field = vl.sample_order(tanh_inc_field(), g)
    u = gaussian_on(g)
    direct = vl.VariableOrderOperator(g, field, mode="direct")
    fast = vl.VariableOrderOperator(g, field, mode="fast", rank=7)
    vd = direct.apply(u).values
    vf = fast.apply(u).values
    assert np.abs(vf - vd).max() <= 1e-6 * np.abs(vd).max()


def test_linearity(grid_1d):
    field = vl.sample_order(tanh_dec_field(), grid_1d)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid_1d.size)
    w = rng.standard_normal(grid_1d.size)
    for mode in ("direct", "fast"):
        op = vl.VariableOrderOperator(grid_1d, field, mode=mode)
        lhs = op._apply_flat(2.5 * u - 1.25 * w)
        rhs = 2.5 * op._apply_flat(u) - 1.25 * op._apply_flat(w)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_symmetry_transport_1d():
    # even order field + even input on a symmetric grid -> even output
    g = vl.build_grid(1, -2.0, 2.0, 31)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.5 * np.tanh(np.abs(p[:, 0])), 1.0, 1.5), g)
    x = g.axis_nodes(0)
    u = vl.GridFunction(g, np.cos(x) * np.exp(-x**2))
    op = vl.VariableOrderOperator(g, field, mode="direct")
    v = op.apply(u).values
    assert np.allclose(v, v[::-1], atol=1e-13)


def test_masked_apply_equals_zeroed_unmasked():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.2 + 0.3 * p[:, 0], 0.8, 1.6), g)
    mask = vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.64)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.size)
    masked_op = vl.VariableOrderOperator(g, field, mode="fast", mask=mask)
    plain_op = vl.VariableOrderOperator(g, field, mode="fast")
    u_zeroed = u.copy()
    u_zeroed[~mask.inside] = 0.0
    expect = plain_op._apply_flat(u_zeroed)
    expect[~mask.inside] = 0.0
    assert np.allclose(masked_op._apply_flat(u), expect, atol=0.0)


def test_gaussian_benchmark_value_1d():
    # frozen reference: decreasing tanh profile at h = 1/16 on [-4, 4]
    g = vl.build_grid(1, -4.0, 4.0, 127)
    field = vl.sample_order(tanh_dec_field(), g)
    op = vl.VariableOrderOperator(g, field, mode="direct")
    u = gaussian_on(g)
    exact = vl.gaussian_frac_lap(g.points()[:, 0], field.sampled, 1)
    err = np.abs(op.apply(u).values - exact).max()
    assert err == pytest.approx(7.35e-4, rel=0.10)


def test_direct_1d_apply_builds_no_square_table():
    # one weight block per distinct order, n + 1 doubles each: an n x n
    # table of rows would take 128 MiB here
    n = 4096
    g = vl.build_grid(1, -1.0, 1.0, n)
    field = vl.sample_order(order_field("case1_tanh"), g)
    op = vl.VariableOrderOperator(g, field, mode="direct")
    u = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        op._apply_flat(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_dense_sign_structure_1d():
    g = vl.build_grid(1, -1.0, 1.0, 24)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.4 * np.tanh(p[:, 0]), 0.5, 1.5), g)
    op = vl.VariableOrderOperator(g, field, mode="direct")
    mat = op.dense_matrix()
    diag = np.diag(mat)
    off = mat - np.diag(diag)
    assert np.all(diag > 0.0)
    assert np.all(off <= 1e-14)
    assert np.all(mat.sum(axis=1) >= -1e-10 * diag)


@pytest.mark.parametrize("dim,n,order", [
    (1, 40, "expr:1 + 0.5*tanh(3*x1)"),
    (2, 15, "alpha3"),
    (3, 5, "expr:1 + 0.4*tanh(x1 + x2 - x3)"),
])
def test_masked_dense_matrix_matches_direct_apply(dim, n, order):
    g = vl.build_grid(dim, -1.0, 1.0, n)
    mask = vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.64)
    op = vl.VariableOrderOperator(g, order_field(order), mode="direct",
                                  mask=mask)
    mat = op.dense_matrix()
    outside = ~mask.inside
    assert outside.any() and mask.inside.any()
    assert not mat[outside].any() and not mat[:, outside].any()
    for seed in range(3):
        u = np.random.default_rng(seed).standard_normal(g.size)
        ref = op._apply_flat(u)
        assert np.abs(mat @ u - ref).max() <= 1e-13 * np.abs(ref).max()


def test_grid_mismatch_errors(grid_1d):
    field = vl.sample_order(vl.OrderField.constant(1.0), grid_1d)
    op = vl.VariableOrderOperator(grid_1d, field, mode="fast")
    other = vl.build_grid(1, -4.0, 4.0, 31)
    with pytest.raises(GridMismatch):
        op.apply(vl.GridFunction.zeros(other))


def test_unknown_mode_rejected(grid_1d):
    with pytest.raises(InvalidRange):
        vl.VariableOrderOperator(grid_1d, vl.OrderField.constant(1.0),
                                 mode="fastest")


@pytest.mark.parametrize("options", [
    {"rank": 0}, {"rank": 33}, {"rank": 2.5}, {"rank": True},
    {"epsilon": 0.0}, {"epsilon": float("nan")},
], ids=["rank_0", "rank_33", "rank_fraction", "rank_bool", "epsilon_0",
        "epsilon_nan"])
def test_rank_options_rejected(grid_1d, options):
    # a rank of 2.5 would build a rank-2 plan, and a NaN epsilon would sweep
    # every rank up to the cap before failing
    with pytest.raises(InvalidRange, match=next(iter(options))):
        vl.VariableOrderOperator(grid_1d, vl.OrderField.constant(1.0),
                                 mode="direct", **options)


def test_plan_missing():
    g = vl.build_grid(1, 0.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, vl.OrderField.constant(1.0), mode="direct")
    with pytest.raises(PlanMissing):
        vl.operator_timing(op)


def test_operator_timing_report(grid_1d):
    field = vl.sample_order(tanh_dec_field(), grid_1d)
    op = vl.VariableOrderOperator(grid_1d, field, mode="fast", rank=3)
    rep = vl.operator_timing(op, n_reps=2)
    assert rep["seconds_per_apply"] > 0.0
    assert rep["rank"] == 3


def test_fit_loglog_slope():
    n = np.array([64, 128, 256, 512])
    assert fit_loglog_slope(n, 1e-6 * n**1.2) == pytest.approx(1.2, abs=1e-12)


def test_apply_convergence_order_2(grid_1d):
    # halving h doubles the accuracy order-2 style on the Gaussian
    errs = []
    for n in (63, 127):
        g = vl.build_grid(1, -4.0, 4.0, n)
        field = vl.sample_order(tanh_dec_field(), g)
        op = vl.VariableOrderOperator(g, field, mode="direct")
        u = gaussian_on(g)
        exact = vl.gaussian_frac_lap(g.points()[:, 0], field.sampled, 1)
        errs.append(np.abs(op.apply(u).values - exact).max())
    order = np.log2(errs[0] / errs[1])
    assert order == pytest.approx(2.0, abs=0.1)


def test_rank_loop_cost_ratio():
    # one forward plus r inverse transforms per apply: the rank-7 path stays
    # within a single order of magnitude of the rank-1 path
    g = vl.build_grid(1, -4.0, 4.0, 4095)
    field = vl.sample_order(tanh_dec_field(), g)
    t1 = vl.operator_timing(
        vl.VariableOrderOperator(g, field, mode="fast", rank=1), n_reps=7)
    t7 = vl.operator_timing(
        vl.VariableOrderOperator(g, field, mode="fast", rank=7), n_reps=7)
    assert t7["seconds_per_apply"] / t1["seconds_per_apply"] <= 9.0


def test_rank_certificate_bounds_fast_direct_gap():
    # the measured interpolation error certifies the fast/direct gap up to a
    # modest safety factor and the h^(-alpha_max) scale
    g = vl.build_grid(2, -4.0, 4.0, 31)
    field = vl.sample_order(tanh_inc_field(), g)
    u = gaussian_on(g)
    direct = vl.VariableOrderOperator(g, field, mode="direct")
    ref = direct.apply(u).values
    for eps in (1e-4, 1e-7):
        r, measured = vl.estimate_rank(field.alpha_min, field.alpha_max, g.h,
                                       eps, dim=2)
        fast = vl.VariableOrderOperator(g, field, mode="fast", rank=r)
        gap = np.abs(fast.apply(u).values - ref).max()
        bound = 10.0 * eps * np.abs(u.values).max() * g.h ** -field.alpha_max
        assert gap <= bound


def test_fast_matches_direct_3d():
    g = vl.build_grid(3, -1.0, 1.0, 7)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.5 * np.tanh(np.sum(p, axis=-1)), 0.4, 1.6), g)
    rng = np.random.default_rng(9)
    u = vl.GridFunction(g, rng.standard_normal(g.size))
    direct = vl.VariableOrderOperator(g, field, mode="direct")
    fast = vl.VariableOrderOperator(g, field, mode="fast", rank=9)
    vd = direct.apply(u).values
    vf = fast.apply(u).values
    assert np.abs(vf - vd).max() <= 1e-5 * np.abs(vd).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 17])
def test_pruned_fast_apply_matches_dense(dim, n):
    # N = 17 pads each axis to next_fast_len(34) = 36 > 2N, so the zeroed
    # offset -N sits at position L - N = 19, away from the middle; N = 16
    # pads to exactly 2N
    g = vl.build_grid(dim, -1.0, 1.0, n)
    plan = vl.build_plan(0.4, 1.6, 5)
    # every node takes a Chebyshev node as its order, so the Lagrange
    # coefficients are one-hot and the rank sum is exact: fast equals direct
    # up to rounding
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: plan.nodes[np.arange(p.shape[0]) % plan.rank], 0.4, 1.6), g)
    mask = vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.64)
    direct = vl.VariableOrderOperator(g, field, mode="direct")
    u = np.random.default_rng(n).standard_normal(g.size)
    inside = mask.inside.astype(float)
    # the dense matrix stacks the direct apply's rows; in 3D one direct
    # apply stands in for it (at N = 17 the 4913 unknowns exceed the
    # 4096-unknown cap of dense_matrix)
    if dim < 3:
        dense = direct.dense_matrix()
        refs = [dense @ u, inside * (dense @ (inside * u))]
    else:
        refs = [direct._apply_flat(u), inside * direct._apply_flat(inside * u)]
    for ref, dmask in zip(refs, (None, mask)):
        fast = vl.VariableOrderOperator(g, field, mode="fast", plan=plan,
                                        mask=dmask)
        got = fast._apply_flat(u)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # constant-order apply against the Toeplitz matvec, one row at a time
    alpha = 1.3
    nonneg = vl.operator_block(alpha, dim, n)
    offsets = np.abs(np.arange(1 - n, n))
    block = nonneg[np.ix_(*[offsets] * dim)]
    u_nd = u.reshape(g.shape)
    toeplitz = np.empty(g.shape)
    for j in np.ndindex(*g.shape):
        win = block[tuple(slice(n - 1 - jp, 2 * n - 1 - jp) for jp in j)]
        toeplitz[j] = np.sum(win * u_nd) * g.h ** -alpha
    out = constant_apply(g, alpha, u_nd)
    assert np.abs(out - toeplitz).max() <= 1e-12 * np.abs(toeplitz).max()


def _embedded_spectrum(block, grid_shape, pad_shape):
    """Kernel spectrum the long way: the even L^d embedding of offsets
    -(N-1)..N-1 and the real part of its complex rfftn."""
    src = [np.r_[np.arange(n), np.arange(n - 1, 0, -1)] for n in grid_shape]
    dst = [np.r_[np.arange(n), np.arange(length - n + 1, length)]
           for n, length in zip(grid_shape, pad_shape)]
    kernel = np.zeros(pad_shape)
    kernel[np.ix_(*dst)] = block[np.ix_(*src)]
    return sfft.rfftn(kernel).real


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 13, 16, 17])
def test_kernel_spectrum_matches_embedded_rfftn(dim, n):
    # N = 7 and 13 used to get odd pads (15 and 27); a random block also
    # fills offset N, which the spectrum must ignore
    shape = (n,) * dim
    block = np.random.default_rng(n + dim).standard_normal((n + 1,) * dim)
    kern = ConstantOrderKernel.from_block(block, shape, 0.1, 1.3)
    ref = _embedded_spectrum(block, shape, kern.pad_shape)
    rows = kern.pad_shape[0] // 2 + 1
    tol = 1e-14 * np.abs(ref).max()
    # stored: rows 0..L0/2 of axis 0, every other axis at its rfftn length
    assert kern.spectrum.shape == ref[:rows].shape
    assert kern.spectrum.flags.c_contiguous and kern.spectrum.dtype == float
    assert np.abs(kern.spectrum - ref[:rows]).max() <= tol
    # mirroring rows L0/2-1..1 rebuilds the rest of the full spectrum
    assert np.abs(_full_spectrum(kern) - ref).max() <= tol


def _full_spectrum(kern):
    """The kernel's rfftn-layout spectrum, its axis 0 mirrored out."""
    if len(kern.pad_shape) == 1:
        return kern.spectrum
    return np.concatenate([kern.spectrum, kern.spectrum[-2:0:-1]])


def _full_spectrum_apply(op, u):
    """``op``'s fast apply, multiplying by each full mirrored spectrum."""
    u = u.copy()
    if op.mask is not None:
        u[~op.mask.inside] = 0.0
    shape, pad_shape = op.grid.shape, op.kernels[0].pad_shape
    spec = _forward(u.reshape(shape), pad_shape,
                    np.empty(_rfft_shape(pad_shape), dtype=complex))
    out = np.zeros(shape)
    for coef, kern in zip(op._rank_maps, op.kernels):
        term = _inverse(spec * _full_spectrum(kern), shape, pad_shape)
        term *= coef
        out += term
    out = out.ravel()
    if op.mask is not None:
        out[~op.mask.inside] = 0.0
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 17])
def test_fast_apply_bitwise_with_half_spectra(dim, n):
    g = vl.build_grid(dim, -1.0, 1.0, n)
    mask = vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.64)
    u = np.random.default_rng(n + dim).standard_normal(g.size)
    for dmask in (None, mask):
        op = vl.VariableOrderOperator(g, tanh_inc_field(), rank=5, mask=dmask)
        assert np.array_equal(op._apply_fast_flat(u), _full_spectrum_apply(op, u))
    kern = op.kernels[0]
    ref = _inverse(_forward(u.reshape(g.shape), kern.pad_shape,
                            np.empty(_rfft_shape(kern.pad_shape), dtype=complex))
                   * _full_spectrum(kern), g.shape, kern.pad_shape)
    ref = ref * kern.h ** (-kern.alpha)
    assert np.array_equal(constant_apply(g, kern.alpha, u), ref)


def test_half_spectra_bytes_3d():
    # 3D N = 31 pads to 64 per axis: axis 0 keeps 33 rows, the middle axis
    # is mirrored to 64 and the rfft axis holds 33
    g = vl.build_grid(3, -1.0, 1.0, 31)
    op = vl.VariableOrderOperator(g, tanh_inc_field(), rank=7)
    assert sum(k.spectrum.nbytes for k in op.kernels) == 7 * 33 * 64 * 33 * 8


def test_fast_axis_len_even_and_covers_2n():
    lengths = {n: _fast_axis_len(n) for n in range(1, 601)}
    assert all(length % 2 == 0 and length >= 2 * n
               for n, length in lengths.items())
    # the benchmark grids keep the pads of next_fast_len(2N)
    for n in (31, 127, 255, 511):
        assert lengths[n] == sfft.next_fast_len(2 * n, real=True)

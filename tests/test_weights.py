import itertools
import math

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad

import varlap as vl
from varlap.errors import InvalidDim, OrderOutOfRange, QuadratureTooCoarse, SizeMismatch
from varlap.weights import (
    _alias_geometry,
    alias_corrected_block,
    check_decay,
    clear_weight_cache,
    dump_csv,
)


def quad_oracle_1d(alpha: float, n: int) -> float:
    """Fourier coefficient of (4 sin^2(eta/2))^(alpha/2) by direct quadrature.

    Independent of the recurrence and of any FFT: oscillatory quadrature of
    (2^alpha/pi) * int_0^pi sin(eta/2)^alpha cos(n eta) d eta.
    """
    f = lambda eta: 2.0**alpha / math.pi * math.sin(eta / 2.0) ** alpha
    val, _ = quad(f, 0.0, math.pi, weight="cos", wvar=float(n),
                  epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def test_symbol_values():
    assert vl.symbol(0.0, 0.5) == 0.0
    h = 0.25
    assert vl.symbol(np.pi / h, h) == pytest.approx(4.0 / h**2, rel=1e-14)
    assert vl.symbol(np.array([np.pi, np.pi]), 1.0) == pytest.approx(8.0, rel=1e-14)


def test_closed_form_alpha2_is_second_difference():
    t = vl.signed_block(vl.operator_block(2.0, 1, 8))      # offsets -8..8
    assert t[8] == pytest.approx(2.0, abs=1e-14)
    assert t[9] == pytest.approx(-1.0, abs=1e-14)
    assert t[7] == pytest.approx(-1.0, abs=1e-14)
    for n in range(2, 9):
        assert abs(t[8 + n]) <= 1e-14


def test_closed_form_alpha1_values():
    t = vl.operator_block(1.0, 1, 4)
    assert t[0] == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert t[1] == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-14)


def test_closed_form_matches_quadrature_oracle():
    t = vl.operator_block(0.7, 1, 8)
    assert t[5] == pytest.approx(quad_oracle_1d(0.7, 5), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.99, 2.0])
def test_closed_form_matches_scalar_recurrence(alpha):
    n_max = 2048
    a = [math.gamma(alpha + 1.0) / math.gamma(alpha / 2.0 + 1.0) ** 2]
    for n in range(n_max):
        a.append(a[n] * (n - alpha / 2.0) / (n + 1.0 + alpha / 2.0))
    tol = 1e-15 * a[0]
    assert np.abs(vl.operator_block(alpha, 1, n_max) - a).max() <= tol


def test_operator_block_rejects_bad_sizes():
    # a fractional n_max is refused, not truncated to an 8 x 8 block, and a
    # bool is refused, not read as N = 1
    for dim in (1, 2, 3):
        for n_max in (0, -5, 7.9, True):
            with pytest.raises(InvalidDim):
                vl.operator_block(1.5, dim, n_max)
    with pytest.raises(InvalidDim):
        vl.operator_block(1.5, 4, 8)
    with pytest.raises(QuadratureTooCoarse):
        vl.weights_nd_fft(1.5, 2, 0)


def test_closed_form_rejects_bad_alpha():
    with pytest.raises(OrderOutOfRange):
        vl.operator_block(0.0, 1, 4)
    with pytest.raises(OrderOutOfRange):
        vl.operator_block(2.2, 1, 4)


# the trapezoid rule aliases the |n|^(-1-alpha) tail, so the attainable
# agreement at fixed M is Theta(M^(-1-alpha)); slow-decay orders are capped
# by that, not by rounding
@pytest.mark.parametrize("alpha,tol", [(0.3, 1e-5), (1.0, 1e-8), (1.7, 1e-8)])
def test_fft_matches_closed_form_1d(alpha, tol):
    cf = vl.operator_block(alpha, 1, 64)
    ft = vl.weights_nd_fft(alpha, 1, 2**14)
    diff = np.abs(ft.values[:65] - cf).max()
    assert diff <= tol
    assert diff <= 20.0 * float(2**14) ** (-1.0 - alpha)


def test_fft_alpha1_known_values():
    t = vl.weights_nd_fft(1.0, 1, 2**14).values
    assert t[0] == pytest.approx(4.0 / math.pi, abs=1e-8)
    assert t[1] == pytest.approx(-4.0 / (3.0 * math.pi), abs=1e-8)


def test_fft_2d_alpha2_is_five_point():
    t = vl.signed_block(vl.weights_nd_fft(2.0, 2, 64).values, 2)
    assert t[2, 2] == pytest.approx(4.0, abs=1e-12)     # offset (0, 0)
    for n in ((3, 2), (1, 2), (2, 3), (2, 1)):
        assert t[n] == pytest.approx(-1.0, abs=1e-12)
    assert abs(t[3, 3]) <= 1e-12
    assert abs(t[4, 2]) <= 1e-12


def test_fft_2d_zero_sum():
    t = vl.weights_nd_fft(1.5, 2, 256)
    assert abs(t.total_sum()) <= 1e-12


def test_fft_rejects_bad_sizes():
    with pytest.raises(QuadratureTooCoarse):
        vl.weights_nd_fft(1.0, 1, 100)        # not a power of two
    with pytest.raises(QuadratureTooCoarse):
        vl.weights_nd_fft(1.0, 1, 64, target_n=40)
    with pytest.raises(OrderOutOfRange):
        vl.weights_nd_fft(2.5, 1, 64)


@pytest.mark.parametrize("target_n", [-5, -1, 2.7, 8.0, "8", True])
def test_fft_rejects_bad_target_n(target_n):
    with pytest.raises(InvalidDim):
        vl.weights_nd_fft(1.5, 2, 64, target_n=target_n)


# 2D m = 2048 and 3D m = 256 are built in 34 and 129 slabs of the last axis
@pytest.mark.parametrize("dim,m", [(1, 64), (2, 64), (3, 32), (2, 2048), (3, 256)])
@pytest.mark.parametrize("alpha", [0.3, 1.37, 2.0])
def test_cut_table_is_leading_block_of_whole(dim, m, alpha):
    # reference: one d-dimensional DCT-I of the whole quadrant of samples
    s = 4.0 * np.sin(np.pi * np.arange(m // 2 + 1) / m) ** 2
    samples = sum(np.expand_dims(s, tuple(q for q in range(dim) if q != p))
                  for p in range(dim))
    whole = sfft.dctn(samples ** (alpha / 2.0), type=1) / m**dim
    assert np.array_equal(vl.weights_nd_fft(alpha, dim, m).values, whole)
    for n in (1, m // 4, m // 2):
        cut = vl.weights_nd_fft(alpha, dim, m, target_n=n).values
        assert cut.shape == (n + 1,) * dim
        assert np.array_equal(cut, whole[(slice(0, n + 1),) * dim])


def test_total_sum_refuses_cut_table():
    assert abs(vl.weights_nd_fft(1.5, 2, 64, target_n=32).total_sum()) <= 1e-12
    with pytest.raises(SizeMismatch):
        vl.weights_nd_fft(1.5, 2, 64, target_n=16).total_sum()


def test_dct_path_matches_ifft_path():
    # independent reference: plain complex inverse DFT of the symbol sampled
    # on the full m^d periodic grid
    for dim, m in ((1, 512), (2, 128), (3, 32)):
        eta = 2.0 * np.pi * np.arange(m) / m
        grids = np.meshgrid(*([eta] * dim), indexing="ij")
        phi = sum(4.0 * np.sin(e / 2.0) ** 2 for e in grids) ** (1.3 / 2.0)
        ref = np.fft.ifftn(phi)
        assert np.abs(ref.imag).max() <= 1e-13
        table = vl.weights_nd_fft(1.3, dim, m)
        k = m // 4
        idx = np.arange(-k, k + 1) % m
        ref_block = ref.real[np.ix_(*([idx] * dim))]
        assert np.allclose(vl.signed_block(table.values, k), ref_block,
                           atol=1e-13)
        assert table.total_sum() == pytest.approx(ref.real.sum(), abs=1e-12)


@pytest.mark.parametrize("alpha,dim", [
    (0.3, 1), (0.7, 1), (1.0, 1), (1.5, 1), (1.9, 1), (2.0, 1),
    (0.3, 2), (0.7, 2), (1.0, 2), (1.5, 2), (1.9, 2), (2.0, 2),
])
def test_sign_symmetry_zero_sum(alpha, dim):
    m = 512 if dim == 1 else 128
    t = vl.weights_nd_fft(alpha, dim, m)
    block = vl.signed_block(t.values, m // 4)
    k = m // 4
    center = (k,) * dim
    assert block[center] > 0.0
    off = block.copy()
    off[center] = 0.0
    assert np.all(off <= 1e-12)
    flipped = block[(slice(None, None, -1),) * dim]
    assert np.allclose(block, flipped, atol=1e-12)
    assert abs(t.total_sum()) <= 1e-12


CORRECTED_ALPHAS = (0.3, 0.5, 1.0, 1.5, 1.9)


def test_default_2d_quadrature_is_4n():
    assert vl.default_quadrature_size(2, 7) == 128
    assert vl.default_quadrature_size(2, 63) == 256
    assert vl.default_quadrature_size(2, 511) == 2048
    assert vl.default_quadrature_size(2, 1023) == 4096


def test_default_3d_quadrature_sizes():
    # the one 3D size rule: 4N as a power of two, floored at 64 and capped
    # at 512, but never below 2N + 2; perfbench's cn3d reference was made
    # at N = 31, m = 128
    for n, m in ((7, 64), (15, 64), (31, 128), (63, 256), (127, 512),
                 (255, 512), (256, 1024)):
        assert vl.default_quadrature_size(3, n) == m


@pytest.mark.parametrize("alpha", CORRECTED_ALPHAS)
def test_alias_corrected_block_converged_at_4n(alpha):
    # the corrected block at m = 4N against the same at 8m: the aliases it
    # adds back leave O(m^(-4-alpha)); the plain table at 16N, the size the
    # 2D operator used before the correction, is much further off
    n = 63
    m = vl.default_quadrature_size(2, n)
    ref = alias_corrected_block(alpha, 8 * m, n)
    err = np.abs(alias_corrected_block(alpha, m, n) - ref).max()
    plain_16n = vl.weights_nd_fft(alpha, 2, 1024).values[:n + 1, :n + 1]
    assert err <= 1e-11
    assert err < np.abs(plain_16n - ref).max()


def test_alias_corrected_block_matches_fine_plain_table():
    # independent of the correction's own formula: at alpha = 1.5 the plain
    # table at m = 4096 aliases by about 1e-13
    n, alpha = 63, 1.5
    fine = vl.weights_nd_fft(alpha, 2, 4096).values[:n + 1, :n + 1]
    coarse = vl.weights_nd_fft(alpha, 2, 256).values[:n + 1, :n + 1]
    assert np.abs(alias_corrected_block(alpha, 256, n) - fine).max() <= 1e-12
    assert np.abs(coarse - fine).max() > 1e-9


@pytest.mark.parametrize("alpha", CORRECTED_ALPHAS)
def test_alias_corrected_block_sign_symmetry(alpha):
    block = alias_corrected_block(alpha, 64, 15)
    assert block[0, 0] > 0.0
    off = block.copy()
    off[0, 0] = 0.0
    assert np.all(off <= 0.0)
    assert np.abs(block - block.T).max() <= 1e-15 * block[0, 0]


def test_alias_corrected_block_alpha2_is_plain():
    block = alias_corrected_block(2.0, 64, 15)
    plain = vl.weights_nd_fft(2.0, 2, 64).values[:16, :16]
    assert block.tobytes() == plain.tobytes()
    assert block[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_clear_weight_cache_empties_alias_geometry():
    alias_corrected_block(1.3, 64, 15)
    assert _alias_geometry.cache_info().currsize > 0
    clear_weight_cache()
    assert _alias_geometry.cache_info().currsize == 0


def test_decay_alpha1_brackets_known_constant():
    # a_n = -(4/pi)/(4n^2 - 1) at alpha = 1, so |a_n| n^2 decreases to 1/pi
    t = vl.operator_block(1.0, 1, 512)
    rep = check_decay(1.0, 512)
    assert not rep.degenerate
    assert 1.0 / math.pi <= rep.ratio_min <= 1.01 / math.pi
    assert rep.ratio_max <= 1.1 / math.pi
    tail = [abs(t[n]) * n**2 for n in range(64, 257)]
    assert max(abs(v - 1.0 / math.pi) for v in tail) < 0.01
    exact = [4.0 / math.pi / (4.0 * n**2 - 1.0) for n in (3, 10, 40)]
    for n, e in zip((3, 10, 40), exact):
        assert abs(t[n]) == pytest.approx(e, rel=1e-12)


def test_decay_refuses_short_weights():
    check_decay(0.5, 16)
    with pytest.raises(InvalidDim):
        check_decay(0.5, 15)


def test_signed_block_expands_nonneg_offsets():
    block = np.arange(9.0).reshape(3, 3)            # offsets 0..2 per axis
    full = vl.signed_block(block)
    assert full.shape == (5, 5)
    assert full[0, 3] == block[2, 1]                # offset (-2, 1)
    assert np.array_equal(full, full[::-1, ::-1])
    assert np.array_equal(vl.signed_block(block, 1), full[1:4, 1:4])
    with pytest.raises(QuadratureTooCoarse):
        vl.signed_block(block, 3)
    assert vl.signed_block(block, np.int64(0)).shape == (1, 1)


@pytest.mark.parametrize("kmax", [-1, 2.7, 1.0, True, False])
def test_signed_block_refuses_bad_kmax(kmax):
    with pytest.raises(InvalidDim):
        vl.signed_block(np.arange(9.0).reshape(3, 3), kmax)


def test_decay_alpha2_degenerate():
    rep = check_decay(2.0, 64)
    assert rep.degenerate


def test_decay_alpha_half_bounded_spread():
    rep = check_decay(0.5, 256)
    assert rep.ratio_min > 0.0
    assert rep.spread <= 10.0


def test_closed_form_partial_sums_positive_decreasing():
    alpha = 0.8
    sums = []
    for n_max in (16, 32, 64, 128):
        sums.append(vl.signed_block(vl.operator_block(alpha, 1, n_max)).sum())
    assert all(s > 0 for s in sums)
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_dump_csv(tmp_path):
    t = vl.weights_nd_fft(1.5, 2, 64)
    path = tmp_path / "w.csv"
    dump_csv(t.values[:3, :3], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_1,n_2,value"
    assert len(lines) == 1 + 5 * 5
    first = lines[1].split(",")
    assert first[:2] == ["-2", "-2"]
    assert float(first[2]) == pytest.approx(t.values[2, 2], rel=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dump_csv_matches_row_loop(tmp_path, dim):
    # reference: one row per signed offset, last index fastest, each value
    # read from the block at the offset's absolute values
    block = vl.operator_block(1.3, dim, 3)
    path = tmp_path / "w.csv"
    dump_csv(block, path)
    expected = ",".join([f"n_{p + 1}" for p in range(dim)] + ["value"]) + "\r\n"
    for idx in itertools.product(range(-3, 4), repeat=dim):
        value = block[tuple(abs(i) for i in idx)]
        expected += ",".join([*map(str, idx), f"{value:.12e}"]) + "\r\n"
    assert path.read_bytes() == expected.encode()

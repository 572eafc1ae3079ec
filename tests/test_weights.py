import math

import numpy as np
import pytest
from scipy.integrate import quad

import varlap as vl
from varlap.errors import OrderOutOfRange, QuadratureTooCoarse
from varlap.weights import check_decay, dump_csv


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
    t = vl.weights_1d_closed_form(2.0, 8)
    assert t.value([0]) == pytest.approx(2.0, abs=1e-14)
    assert t.value([1]) == pytest.approx(-1.0, abs=1e-14)
    assert t.value([-1]) == pytest.approx(-1.0, abs=1e-14)
    for n in range(2, 9):
        assert abs(t.value([n])) <= 1e-14


def test_closed_form_alpha1_values():
    t = vl.weights_1d_closed_form(1.0, 4)
    assert t.value([0]) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert t.value([1]) == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-14)


def test_closed_form_matches_quadrature_oracle():
    t = vl.weights_1d_closed_form(0.7, 8)
    assert t.value([5]) == pytest.approx(quad_oracle_1d(0.7, 5), abs=1e-10)


def test_closed_form_rejects_bad_alpha():
    with pytest.raises(OrderOutOfRange):
        vl.weights_1d_closed_form(0.0, 4)
    with pytest.raises(OrderOutOfRange):
        vl.weights_1d_closed_form(2.2, 4)


# the trapezoid rule aliases the |n|^(-1-alpha) tail, so the attainable
# agreement at fixed M is Theta(M^(-1-alpha)); slow-decay orders are capped
# by that, not by rounding
@pytest.mark.parametrize("alpha,tol", [(0.3, 1e-5), (1.0, 1e-8), (1.7, 1e-8)])
def test_fft_matches_closed_form_1d(alpha, tol):
    cf = vl.weights_1d_closed_form(alpha, 64)
    ft = vl.weights_nd_fft(alpha, 1, 2**14)
    diff = max(abs(ft.value([n]) - cf.value([n])) for n in range(65))
    assert diff <= tol
    assert diff <= 20.0 * float(2**14) ** (-1.0 - alpha)


def test_fft_alpha1_known_values():
    t = vl.weights_nd_fft(1.0, 1, 2**14)
    assert t.value([0]) == pytest.approx(4.0 / math.pi, abs=1e-8)
    assert t.value([1]) == pytest.approx(-4.0 / (3.0 * math.pi), abs=1e-8)


def test_fft_2d_alpha2_is_five_point():
    t = vl.weights_nd_fft(2.0, 2, 64)
    assert t.value([0, 0]) == pytest.approx(4.0, abs=1e-12)
    for n in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        assert t.value(n) == pytest.approx(-1.0, abs=1e-12)
    assert abs(t.value([1, 1])) <= 1e-12
    assert abs(t.value([2, 0])) <= 1e-12


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
        assert np.allclose(table.signed_block(k), ref_block, atol=1e-13)
        assert table.total_sum() == pytest.approx(ref.real.sum(), abs=1e-12)


@pytest.mark.parametrize("alpha,dim", [
    (0.3, 1), (0.7, 1), (1.0, 1), (1.5, 1), (1.9, 1), (2.0, 1),
    (0.3, 2), (0.7, 2), (1.0, 2), (1.5, 2), (1.9, 2), (2.0, 2),
])
def test_sign_symmetry_zero_sum(alpha, dim):
    m = 512 if dim == 1 else 128
    t = vl.weights_nd_fft(alpha, dim, m)
    block = t.signed_block(m // 4)
    k = m // 4
    center = (k,) * dim
    assert block[center] > 0.0
    off = block.copy()
    off[center] = 0.0
    assert np.all(off <= 1e-12)
    flipped = block[(slice(None, None, -1),) * dim]
    assert np.allclose(block, flipped, atol=1e-12)
    assert abs(t.total_sum()) <= 1e-12


def test_decay_alpha1_brackets_known_constant():
    # a_n = -(4/pi)/(4n^2 - 1) at alpha = 1, so |a_n| n^2 decreases to 1/pi
    t = vl.weights_1d_closed_form(1.0, 512)
    rep = check_decay(t)
    assert not rep.degenerate
    assert 1.0 / math.pi <= rep.ratio_min <= 1.01 / math.pi
    assert rep.ratio_max <= 1.1 / math.pi
    tail = [abs(t.value([n])) * n**2 for n in range(64, 257)]
    assert max(abs(v - 1.0 / math.pi) for v in tail) < 0.01
    exact = [4.0 / math.pi / (4.0 * n**2 - 1.0) for n in (3, 10, 40)]
    for n, e in zip((3, 10, 40), exact):
        assert abs(t.value([n])) == pytest.approx(e, rel=1e-12)


def test_decay_alpha2_degenerate():
    rep = check_decay(vl.weights_1d_closed_form(2.0, 64))
    assert rep.degenerate


def test_decay_alpha_half_bounded_spread():
    rep = check_decay(vl.weights_1d_closed_form(0.5, 256))
    assert rep.ratio_min > 0.0
    assert rep.spread <= 10.0


def test_closed_form_partial_sums_positive_decreasing():
    alpha = 0.8
    sums = []
    for n_max in (16, 32, 64, 128):
        t = vl.weights_1d_closed_form(alpha, n_max)
        sums.append(sum(t.value([n]) for n in range(-n_max, n_max + 1)))
    assert all(s > 0 for s in sums)
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_dump_csv(tmp_path):
    t = vl.weights_nd_fft(1.5, 2, 64)
    path = tmp_path / "w.csv"
    dump_csv(t, path, n_max=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_1,n_2,value"
    assert len(lines) == 1 + 5 * 5
    first = lines[1].split(",")
    assert first[:2] == ["-2", "-2"]
    assert float(first[2]) == pytest.approx(t.value([-2, -2]), rel=1e-10)

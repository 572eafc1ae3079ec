import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varlap as vl
from varlap.errors import EmptyDomain, InvalidBox, InvalidDim, OrderOutOfRange


def test_build_grid_1d_nodes():
    g = vl.build_grid(1, -1.0, 1.0, 3)
    assert g.h == 0.5
    assert np.allclose(g.axis_nodes(0), [-0.5, 0.0, 0.5])


def test_build_grid_2d_counts():
    g = vl.build_grid(2, -1.0, 1.0, 31)
    assert g.h == pytest.approx(1.0 / 16.0)
    assert g.size == 961


def test_build_grid_degenerate_inputs():
    with pytest.raises(InvalidDim):
        vl.build_grid(1, 0.0, 1.0, 0)
    # non-integer counts are refused, not truncated (7.9 would build 7 nodes)
    for n in (7.9, (7, 7.5), True):
        with pytest.raises(InvalidDim):
            vl.build_grid(2 if isinstance(n, tuple) else 1, 0.0, 1.0, n)
    with pytest.raises(InvalidDim):
        vl.build_grid(4, 0.0, 1.0, 4)
    with pytest.raises(InvalidBox):
        vl.build_grid(1, 1.0, 0.0, 4)
    with pytest.raises(InvalidBox):
        vl.build_grid(2, (0.0, 0.0), (1.0, 2.0), 7)  # unequal steps


@given(n=st.integers(min_value=1, max_value=400),
       lo=st.floats(min_value=-50, max_value=49, allow_nan=False),
       width=st.floats(min_value=1e-3, max_value=100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_node_spacing_tight(n, lo, width):
    g = vl.build_grid(1, lo, lo + width, n)
    nodes = g.axis_nodes(0)
    if n > 1:
        gaps = np.diff(nodes)
        # rounding scale is set by the box coordinates, not the node value
        ulp = np.spacing(max(abs(lo), abs(lo + width)) + g.h)
        assert np.all(np.abs(gaps - g.h) <= 4 * ulp)


def test_sample_order_constant():
    g = vl.build_grid(1, -1, 1, 9)
    f = vl.sample_order(vl.OrderField.constant(1.5), g)
    assert np.all(f.sampled == 1.5)
    assert (f.alpha_min, f.alpha_max) == (1.5, 1.5)


def test_sample_order_tanh_profile():
    g = vl.build_grid(1, -4, 4, 31)
    base = vl.OrderField.from_callable(
        lambda p: 1.0 - 0.9 * np.tanh(np.abs(p[:, 0])), 0.05, 1.0)
    f = vl.sample_order(base, g)
    assert np.all((f.sampled > 0.1) & (f.sampled <= 1.0))
    mid = np.argmin(np.abs(g.axis_nodes(0)))
    assert f.sampled[mid] == pytest.approx(1.0)


def test_sample_order_idempotent():
    g = vl.build_grid(2, -1, 1, 7)
    base = vl.OrderField.from_callable(
        lambda p: 1.0 + 0.5 * np.tanh(np.sum(p, axis=-1)), 0.4, 1.6)
    f1 = vl.sample_order(base, g)
    f2 = vl.sample_order(f1, g)
    assert np.array_equal(f1.sampled, f2.sampled)


def test_sample_order_rejects_bad_range():
    g = vl.build_grid(1, -1, 1, 5)
    with pytest.raises(OrderOutOfRange):
        vl.OrderField.constant(-0.5)
    base = vl.OrderField.from_callable(lambda p: np.full(p.shape[0], 2.5), 0.1, 2.0)
    with pytest.raises(OrderOutOfRange):
        vl.sample_order(base, g)


def test_sample_order_rejects_samples_outside_declared_bounds():
    g = vl.build_grid(1, -4, 4, 15)
    base = vl.OrderField.from_callable(lambda p: 1.0 + np.abs(p[:, 0]) / 4.0,
                                       1.0, 1.5)
    with pytest.raises(OrderOutOfRange) as info:
        vl.sample_order(base, g)
    msg = str(info.value)
    assert "[1.0, 1.5]" in msg and "[1.0, 1.875]" in msg
    inside = vl.sample_order(base, vl.build_grid(1, -2, 2, 15))
    assert (inside.alpha_min, inside.alpha_max) == (1.0, 1.4375)


def test_make_mask_all_true():
    g = vl.build_grid(1, 0, 1, 6)
    m = vl.make_mask(g, lambda p: np.ones(p.shape[0], dtype=bool))
    assert m.inside.all()


def test_make_mask_disk_count_matches_enumeration():
    g = vl.build_grid(2, -1, 1, 31)
    m = vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.25)
    count = 0
    for x in g.axis_nodes(0):
        for y in g.axis_nodes(1):
            if x * x + y * y < 0.25:
                count += 1
    assert int(m.inside.sum()) == count


def test_make_mask_empty():
    g = vl.build_grid(1, 0, 1, 6)
    with pytest.raises(EmptyDomain):
        vl.make_mask(g, lambda p: np.zeros(p.shape[0], dtype=bool))


def test_grid_function_validation():
    g = vl.build_grid(1, 0, 1, 4)
    with pytest.raises(InvalidDim):
        vl.GridFunction(g, np.zeros(5))
    with pytest.raises(InvalidBox):
        vl.GridFunction(g, np.array([1.0, np.nan, 0.0, 0.0]))

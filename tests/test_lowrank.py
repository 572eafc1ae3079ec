import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varlap as vl
from varlap.errors import InvalidRange, OutOfRange
from varlap.lowrank import interpolation_error
from varlap.presets import order_field


def test_degenerate_interval_single_node():
    plan = vl.build_plan(1.5, 1.5, 5)
    assert plan.rank == 1
    assert plan.nodes[0] == 1.5
    assert vl.eval_lagrange(plan, 1.5) == pytest.approx([1.0])


def test_nodes_symmetric_and_interior():
    plan = vl.build_plan(0.1, 1.9, 7)
    assert plan.rank == 7
    assert np.all(np.diff(plan.nodes) > 0)
    assert plan.nodes[0] > 0.1 and plan.nodes[-1] < 1.9
    assert np.allclose(plan.nodes + plan.nodes[::-1], 2.0, atol=1e-12)


def test_lagrange_cardinality():
    plan = vl.build_plan(0.5, 1.5, 3)
    for q, node in enumerate(plan.nodes):
        vals = vl.eval_lagrange(plan, node)
        expect = np.zeros(3)
        expect[q] = 1.0
        assert np.allclose(vals, expect, atol=1e-12)


@given(t=st.floats(min_value=0.2, max_value=1.8))
@settings(max_examples=80, deadline=None)
def test_partition_of_unity(t):
    plan = vl.build_plan(0.2, 1.8, 9)
    vals = vl.eval_lagrange(plan, t)
    assert abs(vals.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("rank", [2, 3, 7, 12])
def test_eval_lagrange_matches_product_form(rank):
    # the barycentric batch against prod_{k != q} (t - t_k) / (t_q - t_k), on
    # a 2D batch that includes every node exactly
    plan = vl.build_plan(0.3, 1.9, rank)
    line = np.concatenate([np.linspace(0.3, 1.9, 37), plan.nodes])
    t = np.stack([line, line[::-1]])
    ref = np.ones(t.shape + (rank,))
    for q, node in enumerate(plan.nodes):
        for k, other in enumerate(plan.nodes):
            if k != q:
                ref[..., q] *= (t - other) / (node - other)
    got = vl.eval_lagrange(plan, t)
    assert got.shape == t.shape + (rank,)
    assert np.abs(got - ref).max() <= 1e-12


def test_eval_out_of_range():
    plan = vl.build_plan(0.5, 1.5, 4)
    for t in (1.7, [1.2, np.nan]):      # NaN fails both range comparisons
        with pytest.raises(OutOfRange):
            vl.eval_lagrange(plan, t)


def test_invalid_intervals():
    with pytest.raises(InvalidRange):
        vl.build_plan(1.5, 0.5, 3)
    with pytest.raises(InvalidRange):
        vl.build_plan(0.0, 1.0, 3)
    with pytest.raises(InvalidRange):
        vl.build_plan(0.5, 1.5, 0)


def test_midpoint_sweep_error_r7():
    # rank-7 interpolant of the symbol power at the interval midpoint,
    # swept over a dense range of symbol values
    plan = vl.build_plan(0.1, 1.9, 7)
    h = 1.0 / 16.0
    a = 4.0 / h**2 * np.sin(np.linspace(1e-4, np.pi / 2.0, 1000)) ** 2
    t = 1.0
    exact = a ** (t / 2.0)
    basis = a[None, :] ** (plan.nodes[:, None] / 2.0)
    approx = vl.eval_lagrange(plan, t) @ basis
    scale = (4.0 / h**2) ** (plan.alpha_max / 2.0)
    assert np.abs(exact - approx).max() <= 1e-4 * scale


def test_interpolation_error_decreases_with_rank():
    errs = [interpolation_error(vl.build_plan(0.1, 1.9, r), h=1.0 / 16.0, dim=1)
            for r in (2, 4, 8, 16)]
    assert all(a > b * 0.9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] * 1e-4


def test_estimate_rank_narrow_interval():
    r, err = vl.estimate_rank(1.4, 1.6, h=1.0 / 16.0, epsilon=1e-1)
    assert r <= 3
    assert err <= 1e-1


def test_estimate_rank_wide_tight():
    r, err = vl.estimate_rank(0.1, 1.9, h=1.0 / 64.0, epsilon=1e-12)
    assert r <= 32
    assert err <= 1e-12


def test_estimate_rank_degenerate():
    assert vl.estimate_rank(1.3, 1.3, h=0.1, epsilon=1e-30) == (1, 0.0)


def test_rank_coefficients_rows_sum_to_one():
    g = vl.build_grid(1, -4, 4, 31)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.5 * np.tanh(p[:, 0]), 0.4, 1.6), g)
    plan = vl.build_plan(field.alpha_min, field.alpha_max, 6)
    index, values = vl.rank_coefficients(plan, field)
    assert index.shape == (g.size,) and values.shape[1] == 6
    assert np.allclose(values[index].sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("order,lo,hi", [
    ("case2_square", 1.6, 2.0), ("alpha2", 0.5, 2.0), ("bench_tanh", 0.5, 2.0),
    ("const:1.4", 1.0, 2.0)])
def test_rank_coefficients_per_distinct_order_bitwise(order, lo, hi):
    # values at the distinct orders, read through the index, are bitwise
    # the per-node values; a constant order evaluates at one point (numpy
    # sums a lone column of 8 or more rows pairwise), and the 16129 nodes
    # span several of the index's chunks
    g = vl.build_grid(2, -1.0, 1.0, 127)
    field = vl.sample_order(order_field(order), g)
    plan = vl.build_plan(lo, hi, 12)
    index, values = vl.rank_coefficients(plan, field)
    distinct = np.unique(field.sampled)
    assert values.shape == (distinct.size, 12)
    assert values.T.flags.c_contiguous
    assert np.array_equal(distinct[index], field.sampled)
    assert np.array_equal(values[index], vl.eval_lagrange(plan, field.sampled))

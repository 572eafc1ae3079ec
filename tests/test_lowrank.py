import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varlap as vl
from varlap.errors import InvalidRange, OutOfRange
from varlap.lowrank import _CHUNK, distinct_values, interpolation_error
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
    # each order's Lagrange values, the table's columns with h^(-alpha_q)
    # taken out, sum to one
    g = vl.build_grid(1, -4, 4, 31)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.5 * np.tanh(p[:, 0]), 0.4, 1.6), g)
    plan = vl.build_plan(field.alpha_min, field.alpha_max, 6)
    (orders,), index = distinct_values(field.sampled)
    table = vl.rank_coefficients(plan, orders, g.h)
    assert index.shape == (g.size,) and table.shape == (6, orders.size)
    scale = np.array([g.h ** (-a) for a in plan.nodes])
    assert np.allclose((table / scale[:, None]).sum(axis=0), 1.0, atol=1e-10)


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
    (orders,), index = distinct_values(field.sampled)
    table = vl.rank_coefficients(plan, orders, g.h)
    assert table.shape == (12, np.unique(field.sampled).size)
    assert table.flags.c_contiguous
    per_node = vl.eval_lagrange(plan, field.sampled).T.copy()
    per_node *= np.array([g.h ** (-a) for a in plan.nodes])[:, None]
    assert np.array_equal(table[:, index], per_node)


def _tied_runs(rng, lengths):
    """Shuffled entries in runs of equal values, one run per length; with
    lengths near _CHUNK, the sorted runs straddle chunk boundaries."""
    values = rng.permutation(len(lengths)).astype(float) / 7.0
    return rng.permutation(np.repeat(values, lengths))


@pytest.mark.parametrize("keys", [
    [np.array([1.25])],
    [np.full(3 * _CHUNK + 5, 0.7)],
    [_tied_runs(np.random.default_rng(0),
                [_CHUNK + 1, _CHUNK, 1, _CHUNK - 1, 3 * _CHUNK, 2, 700, 5000])],
    [np.random.default_rng(1).integers(0, 50, 2 * _CHUNK + 3) / 3.0],
], ids=["single", "all_equal", "runs", "random"])
def test_distinct_values_matches_np_unique_one_key(keys):
    (distinct,), index = distinct_values(*keys)
    ref, inverse = np.unique(keys[0], return_inverse=True)
    assert np.array_equal(distinct, ref)
    assert np.array_equal(index, inverse.ravel())


@pytest.mark.parametrize("keys", [
    [np.array([2.0]), np.array([0.5])],
    [np.full(3 * _CHUNK + 5, 0.7), np.full(3 * _CHUNK + 5, 1.9)],
    # the first key ties over runs that cross chunk boundaries while the
    # second splits them, and the reverse
    [np.repeat([1.0, 2.0, 3.0], [_CHUNK + 1, 2 * _CHUNK, 7]),
     np.resize([0.5, 0.25, 0.5, 1.5], 3 * _CHUNK + 8)],
    [_tied_runs(np.random.default_rng(2), [_CHUNK, 1, _CHUNK + 2, 900]),
     np.full(2 * _CHUNK + 903, 1.0)],
    list(np.random.default_rng(3).integers(0, 9, (2, 2 * _CHUNK + 1)) / 4.0),
], ids=["single", "all_equal", "split_ties", "second_constant", "random"])
def test_distinct_values_matches_np_unique_two_keys(keys):
    distinct, index = distinct_values(*keys)
    ref, inverse = np.unique(np.stack(keys, 1), axis=0, return_inverse=True)
    assert len(distinct) == 2
    assert np.array_equal(np.stack(distinct, 1), ref)
    assert np.array_equal(index, inverse.ravel())
    for key, values in zip(keys, distinct):
        assert np.array_equal(values[index], key)

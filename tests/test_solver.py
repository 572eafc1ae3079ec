import numpy as np
import pytest

import varlap as vl
from varlap.errors import InvalidRange
from varlap.presets import order_field
from varlap.solver import (
    _pinned_map,
    positive_component_count,
    write_observer_csv,
    write_residual_csv,
)

from conftest import gaussian_on


def sampled_const(grid, alpha):
    return vl.sample_order(vl.OrderField.constant(alpha), grid)


def test_bicgstab_identity():
    b = np.array([1.0, -2.0, 3.5])
    res = vl.bicgstab(lambda u: u, b)
    assert res.status == "converged"
    assert res.iterations <= 2
    assert np.allclose(res.x, b, atol=1e-14)


def test_bicgstab_dense_spd_matches_direct_solve():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    res = vl.bicgstab(lambda u: a @ u, b)
    assert res.status == "converged"
    assert np.abs(res.x - np.linalg.solve(a, b)).max() <= 1e-10


def test_bicgstab_zero_rhs():
    res = vl.bicgstab(lambda u: u, np.zeros(4))
    assert res.status == "converged"
    assert res.iterations == 0


def test_bicgstab_best_iterate_monotone_record():
    g = vl.build_grid(1, -1.0, 1.0, 255)
    field = sampled_const(g, 1.6)
    op = vl.VariableOrderOperator(g, field, mode="fast", rank=1)
    res = vl.bicgstab(op._apply_flat, np.ones(g.size))
    assert res.status == "converged"
    best_so_far = np.minimum.accumulate(res.residuals)
    assert best_so_far[-1] <= 1e-13


def test_bicgstab_counts_restarts_on_plateau():
    # tol below reach: the residual floors, and each stagnation window spent
    # without progress triggers one restart from the best iterate
    g = vl.build_grid(1, -1.0, 1.0, 63)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.5), mode="fast", rank=1)
    for max_restarts in (0, 3):
        cfg = vl.KrylovConfig(tol=1e-300, stagnation_window=2,
                              max_restarts=max_restarts)
        res = vl.bicgstab(op._apply_flat, np.ones(g.size), cfg)
        assert res.status == "stagnated"
        assert res.restarts == max_restarts


def _elliptic_case(kind):
    """(operator, f, b) for the preconditioned-vs-plain comparisons."""
    rng = np.random.default_rng(7)
    if kind == "1d_direct":
        g = vl.build_grid(1, -1.0, 1.0, 48)
        field = order_field("case1_linear")
        mode, mask = "direct", None
    elif kind == "non_cubic":
        g = vl.build_grid(2, (0.0, 0.0), (1.0, 2.0), (15, 31))
        field = order_field("case2_tanh")
        mode, mask = "fast", None
    else:
        dim, n = (3, 15) if kind == "3d" else (2, 31)
        g = vl.build_grid(dim, -1.0, 1.0, n)
        field = order_field("case2_linear")
        mode = "fast"
        mask = (vl.make_mask(g, lambda p: np.sum(p**2, axis=-1) < 0.7)
                if kind == "2d_mask" else None)
    op = vl.VariableOrderOperator(g, vl.sample_order(field, g), mode=mode,
                                  mask=mask)
    f = rng.uniform(0.5, 1.5, g.size)
    if mask is not None:
        f[~mask.inside] = 0.0
    b = rng.uniform(0.0, 1.0, g.size) if kind in ("1d_direct", "2d_fast") else None
    return op, f, b


@pytest.mark.parametrize("kind", ["1d_direct", "2d_fast", "2d_mask", "3d",
                                  "non_cubic"])
def test_preconditioned_solve_matches_plain_bicgstab(kind):
    op, f, b = _elliptic_case(kind)
    prob = vl.EllipticProblem(
        operator=op, f=vl.GridFunction(op.grid, f),
        b=None if b is None else vl.GridFunction(op.grid, b))
    out = vl.solve_elliptic(prob)
    plain = vl.bicgstab(_pinned_map(op, b), f)
    assert plain.status == "converged"
    gap = np.abs(out.u.values - plain.x).max() / np.abs(plain.x).max()
    assert gap <= 1e-10, gap
    assert out.krylov.iterations < plain.iterations
    if op.mask is not None:
        assert np.all(out.u.values[~op.mask.inside] == 0.0)


def test_preconditioner_cuts_case2_linear_iterations():
    g = vl.build_grid(2, -1.0, 1.0, 63)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("case2_linear"), g), mode="fast")
    f = np.ones(g.size)
    out = vl.solve_elliptic(vl.EllipticProblem(operator=op,
                                               f=vl.GridFunction(g, f)))
    plain = vl.bicgstab(_pinned_map(op, None), f)
    assert out.krylov.status == "converged" and out.krylov.restarts == 0
    assert 5 * out.krylov.iterations <= plain.iterations, (
        out.krylov.iterations, plain.iterations)


def test_preconditioned_solve_rejects_initial_guess():
    g = vl.build_grid(1, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.5), mode="fast", rank=1)
    prob = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, np.ones(g.size)))
    with pytest.raises(InvalidRange):
        vl.solve_elliptic(prob, vl.KrylovConfig(x0=np.ones(g.size)))


def test_cn_step_runs_plain_bicgstab():
    # the shifted Crank-Nicolson system gets no preconditioner: the step is
    # bit for bit one plain BiCGSTAB solve on the pinned map
    g = vl.build_grid(3, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("bench_tanh"), g), mode="fast")
    u0 = vl.GridFunction(g, np.cos(np.pi * g.points()[:, 0] / 2.0))
    stepper = vl.TimeStepper(dt=1.0 / 16.0, t_final=1.0 / 16.0)
    u1, res = vl.step_crank_nicolson(u0, stepper, op)
    half = stepper.dt / 2.0
    rhs = _pinned_map(op, None, scale_a=-half, shift=1.0)(u0.values)
    plain = vl.bicgstab(_pinned_map(op, None, scale_a=half, shift=1.0), rhs,
                        stepper.krylov)
    assert res.iterations == plain.iterations
    assert np.array_equal(u1.values, plain.x)


def test_elliptic_zero_data_zero_solution():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.3), mode="fast")
    prob = vl.EllipticProblem(operator=op, f=vl.GridFunction.zeros(g),
                              b=vl.GridFunction(g, np.ones(g.size)))
    out = vl.solve_elliptic(prob)
    assert np.abs(out.u.values).max() == 0.0


def test_elliptic_positivity_for_nonnegative_data():
    rng = np.random.default_rng(11)
    for dim, n in ((1, 127), (2, 31)):
        g = vl.build_grid(dim, -1.0, 1.0, n)
        field = vl.sample_order(vl.OrderField.from_callable(
            lambda p: 1.0 + 0.5 * np.tanh(np.sum(p, axis=-1)), 0.4, 1.6), g)
        op = vl.VariableOrderOperator(g, field, mode="fast")
        f = rng.uniform(0.0, 1.0, g.size)
        b = rng.uniform(0.0, 0.5, g.size)
        prob = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, f),
                                  b=vl.GridFunction(g, b))
        out = vl.solve_elliptic(prob)
        assert out.u.values.min() >= -10.0 * 1e-14 * np.abs(f).max()


def test_elliptic_dense_cross_check_1d():
    g = vl.build_grid(1, -1.0, 1.0, 48)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.0 + 0.25 * np.abs(p[:, 0]), 1.0, 1.3), g)
    op = vl.VariableOrderOperator(g, field, mode="direct")
    b = np.full(g.size, 0.7)
    f = np.cos(np.pi * g.axis_nodes(0))
    prob = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, f),
                              b=vl.GridFunction(g, b))
    out = vl.solve_elliptic(prob)
    dense = op.dense_matrix() + np.diag(b)
    u_dense = np.linalg.solve(dense, f)
    assert np.abs(out.u.values - u_dense).max() <= 1e-8


def test_elliptic_stability_constant_stable_under_refinement():
    consts = []
    for n in (15, 31, 63):
        g = vl.build_grid(2, -1.0, 1.0, n)
        field = vl.sample_order(vl.OrderField.from_callable(
            lambda p: 1.0 + 0.25 * np.sqrt(np.sum(p**2, axis=-1)), 1.0, 1.5), g)
        op = vl.VariableOrderOperator(g, field, mode="fast")
        prob = vl.EllipticProblem(operator=op,
                                  f=vl.GridFunction(g, np.ones(g.size)))
        out = vl.solve_elliptic(prob)
        consts.append(out.u.norm_inf())
    mid = consts[1]
    assert all(abs(c - mid) <= 0.2 * mid for c in consts)


def test_elliptic_masked_nodes_stay_zero():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    mask = vl.make_mask(g, lambda p: np.max(np.abs(p), axis=-1) < 0.7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.4), mode="fast",
                                  mask=mask)
    prob = vl.EllipticProblem(operator=op,
                              f=vl.GridFunction(g, np.ones(g.size)))
    out = vl.solve_elliptic(prob)
    assert np.all(out.u.values[~mask.inside] == 0.0)
    assert out.u.values[mask.inside].max() > 0.0


def test_cn_identity_without_operator():
    g = vl.build_grid(1, 0.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.0), mode="fast", rank=1)
    stepper = vl.TimeStepper(dt=0.1, t_final=0.1, diffusion=0.0)
    u0 = vl.GridFunction(g, np.sin(np.pi * g.axis_nodes(0)))
    u1, res = vl.step_crank_nicolson(u0, stepper, op)
    assert np.allclose(u1.values, u0.values, atol=1e-13)


def test_cn_fixed_point_is_steady_elliptic_solution():
    g = vl.build_grid(1, -1.0, 1.0, 31)
    field = sampled_const(g, 1.5)
    op = vl.VariableOrderOperator(g, field, mode="fast", rank=1)
    f = np.exp(-g.axis_nodes(0) ** 2)
    steady = vl.solve_elliptic(
        vl.EllipticProblem(operator=op, f=vl.GridFunction(g, f))).u
    stepper = vl.TimeStepper(dt=0.05, t_final=0.05,
                             source=lambda pts, t: np.exp(-pts[:, 0] ** 2))
    u1, _ = vl.step_crank_nicolson(steady, stepper, op)
    assert np.abs(u1.values - steady.values).max() <= 1e-9


def test_cn_l2_decay_without_source():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.2 + 0.5 * np.tanh(p[:, 0]), 0.6, 1.8), g)
    op = vl.VariableOrderOperator(g, field, mode="fast")
    stepper = vl.TimeStepper(dt=0.02, t_final=0.2)
    rec = vl.evolve(stepper, op, gaussian_on(g))
    l2 = rec.column("l2")
    assert all(b <= a + 1e-12 for a, b in zip(l2, l2[1:]))


def test_three_level_pure_phase_is_fixed_point():
    # physical phase +1 everywhere with the operator switched off: the
    # double-well term vanishes and the outer levels are exchanged untouched
    g = vl.build_grid(2, 0.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.8), mode="fast", rank=1)
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=1e-2,
                             kappa=0.05, diffusion=0.0)
    w = vl.GridFunction(g, np.full(g.size, 2.0))   # shifted phase of u = +1
    w_next, _ = vl.step_allen_cahn_three_level(w, w, stepper, op)
    assert np.allclose(w_next.values, w.values, atol=1e-12)


def test_three_level_zero_state_stays_zero():
    g = vl.build_grid(2, 0.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.8), mode="fast", rank=1)
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=1e-2,
                             kappa=0.05)
    w = vl.GridFunction.zeros(g)
    w_next, _ = vl.step_allen_cahn_three_level(w, w, stepper, op)
    assert np.abs(w_next.values).max() <= 1e-14


def test_evolve_zero_initial_data_zero_observers():
    g = vl.build_grid(1, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.2), mode="fast", rank=1)
    stepper = vl.TimeStepper(dt=0.05, t_final=0.25)
    rec = vl.evolve(stepper, op, vl.GridFunction.zeros(g))
    assert all(r.max_norm == 0.0 for r in rec.rows)
    assert all(r.components == 0 for r in rec.rows)


def test_evolve_masked_diffusion_max_norm_non_increasing():
    # irregular-domain embedding with uniform initial state and no source
    g = vl.build_grid(2, -1.0, 1.0, 31)
    mask = vl.make_mask(
        g, lambda p: (np.sum(p**2, axis=-1) < 0.8)
        & ~((np.abs(p[:, 0]) < 0.15) & (p[:, 1] > 0.2)))
    field = vl.sample_order(vl.OrderField.from_callable(
        lambda p: 1.5 + 0.25 * np.sqrt(np.sum(p**2, axis=-1)), 1.5, 2.0), g)
    op = vl.VariableOrderOperator(g, field, mode="fast", mask=mask)
    stepper = vl.TimeStepper(dt=2e-3, t_final=2e-2, diffusion=0.2)
    ones = np.zeros(g.size)
    ones[mask.inside] = 1.0
    rec = vl.evolve(stepper, op, vl.GridFunction(g, ones))
    mx = rec.column("max_norm")
    assert all(b <= a + 1e-10 for a, b in zip(mx, mx[1:]))


def test_component_count():
    g = vl.build_grid(2, 0.0, 1.0, 15)
    vals = np.zeros(g.shape)
    vals[2:4, 2:4] = 1.0
    vals[10:12, 10:12] = 1.0
    assert positive_component_count(vl.GridFunction(g, vals.ravel())) == 2


def test_run_record_csvs(tmp_path):
    res = vl.bicgstab(lambda u: 2.0 * u, np.ones(3))
    write_residual_csv(res, tmp_path / "resid.csv")
    lines = (tmp_path / "resid.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,relative_residual"
    g = vl.build_grid(1, 0.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.0), mode="fast", rank=1)
    rec = vl.evolve(vl.TimeStepper(dt=0.1, t_final=0.2), op,
                    vl.GridFunction.zeros(g))
    write_observer_csv(rec, tmp_path / "obs.csv")
    head = (tmp_path / "obs.csv").read_text().splitlines()[0]
    assert head == "step,t,max_norm,l2,mass,components,iterations,seconds"

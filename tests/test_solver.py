from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft

import varlap as vl
from varlap.presets import initial_condition, order_field
from varlap.solver import (
    TAU_ORDER_NODES,
    _masked_rhs,
    _pinned_map,
    _step_allen_cahn_bootstrap,
    _tau_inverse,
    positive_component_count,
    write_observer_csv,
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


def test_bicgstab_right_preconditioner_dense_nonsymmetric():
    # a nonsymmetric system with a diagonal spread over three decades: the
    # Jacobi inverse as M^-1 reaches the dense solution in fewer half-steps
    rng = np.random.default_rng(11)
    n = 40
    d = np.logspace(0.0, 3.0, n)
    a = np.diag(d) + 0.3 * np.sqrt(np.outer(d, d)) * rng.uniform(-1, 1, (n, n)) / n
    b = rng.standard_normal(n)
    cfg = vl.KrylovConfig(tol=1e-13)
    plain = vl.bicgstab(lambda u: a @ u, b, cfg)
    pre = vl.bicgstab(lambda u: a @ u, b, replace(cfg, preconditioner=lambda v: v / d))
    exact = np.linalg.solve(a, b)
    assert pre.status == "converged"
    assert np.abs(pre.x - exact).max() / np.abs(exact).max() <= 1e-10
    assert pre.iterations < plain.iterations, (pre.iterations, plain.iterations)


@pytest.mark.parametrize("precondition, max_iter, status", [
    (False, 100, "max_iter"), (True, 100, "max_iter"), (True, 5000, "stagnated"),
], ids=["plain_max_iter", "diagonal_max_iter", "diagonal_stagnated"])
def test_bicgstab_reports_true_residual_unless_converged(precondition,
                                                         max_iter, status):
    # tol below reach: the recursive residual falls to 1e-30 and below while
    # the true one floors near 1e-13.  An exit other than converged reports
    # the true residual of the returned best iterate, plain and with a right
    # preconditioner (a diagonal scaling, which plateaus like the plain
    # solve; the tau inverse converges to an exact zero residual)
    g = vl.build_grid(1, -1.0, 1.0, 63)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.5), mode="fast", rank=1)
    b = np.ones(g.size)
    w = 1.0 + 0.5 * np.cos(np.pi * g.points()[:, 0])
    cfg = vl.KrylovConfig(tol=1e-300, max_iter=max_iter,
                          preconditioner=(lambda v: w * v) if precondition else None)
    res = vl.bicgstab(op._apply_flat, b, cfg)
    assert res.status == status
    true = np.linalg.norm(b - op._apply_flat(res.x)) / np.linalg.norm(b)
    assert abs(res.relres - true) <= 0.01 * true, (res.relres, true)
    assert min(res.residuals) < 1e-3 * true


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
        # corner08 spans orders 0.8-2.0; case2_square jumps between two orders
        field = order_field(kind if kind in ("corner08", "case2_square")
                            else "case2_linear")
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
                                  "non_cubic", "corner08", "case2_square"])
def test_preconditioned_solve_matches_plain_bicgstab(kind):
    op, f, b = _elliptic_case(kind)
    prob = vl.EllipticProblem(
        operator=op, f=vl.GridFunction(op.grid, f),
        b=None if b is None else vl.GridFunction(op.grid, b))
    out = vl.solve_elliptic(prob)
    plain = vl.bicgstab(_pinned_map(op, 1.0, 0.0 if b is None else b), f)
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
    plain = vl.bicgstab(_pinned_map(op, 1.0), f)
    assert out.krylov.status == "converged"
    assert 5 * out.krylov.iterations <= plain.iterations, (
        out.krylov.iterations, plain.iterations)


@pytest.mark.parametrize("kind, cap", [("case2_linear", 14), ("corner08", 18)])
def test_order_interpolated_tau_half_steps(kind, cap):
    # interpolating the frozen-order inverse over the order range absorbs
    # the spread a single mean order leaves (19 and 27 half-steps with it)
    g = vl.build_grid(2, -1.0, 1.0, 63)
    op = vl.VariableOrderOperator(g, vl.sample_order(order_field(kind), g),
                                  mode="fast")
    out = vl.solve_elliptic(vl.EllipticProblem(
        operator=op, f=vl.GridFunction(g, np.ones(g.size))))
    assert out.krylov.status == "converged"
    assert out.krylov.iterations <= cap, out.krylov.iterations


def test_initial_guess_residuals_relative_to_rhs():
    # x0 is a correction start: the first recorded residual is that of x0
    # itself, relative to ||f||, and the solve still reaches tol on ||f||
    op, f, b = _elliptic_case("2d_fast")
    g = op.grid
    x0 = np.random.default_rng(17).standard_normal(g.size)
    prob = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, f),
                              b=vl.GridFunction(g, b))
    cfg = vl.KrylovConfig(tol=1e-10, x0=x0)
    res = vl.solve_elliptic(prob, cfg).krylov
    start = np.linalg.norm(f - _pinned_map(op, 1.0, b)(x0)) / np.linalg.norm(f)
    assert res.residuals[0] == pytest.approx(start, rel=1e-12)
    assert res.status == "converged" and res.relres <= cfg.tol
    true = np.linalg.norm(f - _pinned_map(op, 1.0, b)(res.x)) / np.linalg.norm(f)
    assert true <= 10 * cfg.tol, true


def _allen_cahn_systems(op, w_prev, w_cur, stepper):
    """(step result, pinned map, rhs) of the bootstrap and three-level steps."""
    dt, mu = stepper.dt, stepper.dt / stepper.kappa**2
    phys = w_cur - 1.0
    q = phys**2
    boot = (_step_allen_cahn_bootstrap(vl.GridFunction(op.grid, w_cur), stepper, op),
            _pinned_map(op, dt / 2.0, 1.0),
            w_cur - dt / 2.0 * op._apply_flat(w_cur) - mu * (phys**3 - phys))
    three = (vl.step_allen_cahn_three_level(vl.GridFunction(op.grid, w_prev),
                                            vl.GridFunction(op.grid, w_cur),
                                            stepper, op),
             _pinned_map(op, dt, 1.0 + mu * q),
             w_prev - dt * op._apply_flat(w_prev) - mu * q * w_prev
             + 2.0 * mu * (q + phys))
    return [(res, lhs, _masked_rhs(rhs, op.mask)) for res, lhs, rhs in (boot, three)]


@pytest.mark.parametrize("kind", ["1d_direct", "2d_fast", "2d_mask", "non_cubic"])
def test_allen_cahn_steps_match_plain_bicgstab(kind):
    # both phase-field steps are right preconditioned by the shifted tau
    # model; each must land on the plain BiCGSTAB solution of its system
    op, _, _ = _elliptic_case(kind)
    rng = np.random.default_rng(3)
    w_prev, w_cur = rng.uniform(0.0, 2.0, (2, op.grid.size))
    if op.mask is not None:
        w_prev[~op.mask.inside] = 0.0
        w_cur[~op.mask.inside] = 0.0
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=1e-3,
                             kappa=0.05)
    for (w_next, res), lhs, rhs in _allen_cahn_systems(op, w_prev, w_cur, stepper):
        plain = vl.bicgstab(lhs, rhs)
        assert plain.status == "converged" and res.status == "converged"
        gap = np.abs(w_next.values - plain.x).max() / np.abs(plain.x).max()
        assert gap <= 1e-10, gap
        if op.mask is not None:
            assert np.all(w_next.values[~op.mask.inside] == 0.0)


def test_preconditioner_cuts_three_level_iterations():
    # the phase-field acceptance set-up at half the resolution: kappa scaled
    # with h (kappa/h = 1.28) and dt = kappa^2
    g = vl.build_grid(2, 0.0, 1.0, 63)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("phase_middle"), g), mode="fast")
    w = initial_condition("bubbles", kappa=0.02)(g.points()) + 1.0
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=4e-4, t_final=4e-4,
                             kappa=0.02)
    (_, res), lhs, rhs = _allen_cahn_systems(op, w, w, stepper)[1]
    plain = vl.bicgstab(lhs, rhs)
    assert res.status == "converged" and plain.status == "converged"
    assert 2 * res.iterations <= plain.iterations, (res.iterations,
                                                    plain.iterations)


def _sine_symbol(shape):
    """``sum_p 4 sin^2(theta_p / 2)`` at the DST-I angles of ``shape``."""
    thetas = np.meshgrid(*[np.pi * np.arange(1, n + 1) / (n + 1) for n in shape],
                         indexing="ij")
    return sum(4.0 * np.sin(t / 2.0) ** 2 for t in thetas)


def _dst(x, shape):
    return sfft.dstn(x.reshape(shape), type=1, norm="ortho").ravel()


@pytest.mark.parametrize("dim, n", [(1, 31), (2, 15), (3, 7)])
def test_tau_inverse_exact_on_constant_order_and_shift(dim, n):
    # one order and one shift: the map is the exact inverse of the tau
    # model S (shift + scale h^-alpha Lam^(alpha/2)) S
    g = vl.build_grid(dim, -1.0, 1.0, n)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.3), mode="fast")
    alpha, scale, shift = 1.3, 0.05, 0.7
    eig = shift + scale * g.h ** -alpha * _sine_symbol(g.shape) ** (alpha / 2.0)
    v = np.random.default_rng(dim).standard_normal(g.size)
    model_v = _dst(eig * _dst(v, g.shape).reshape(g.shape), g.shape)
    for sigma in (shift, np.full(g.size, shift)):
        out = _tau_inverse(op, scale=scale, shift=sigma)(model_v)
        assert np.abs(out - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("kind", ["case2_linear", "corner08"])
def test_unshifted_tau_inverse_is_order_interpolated_formula(kind):
    # with no shift the map is the order-interpolated inverse
    # S sum_p Lam^(-alpha_p/2) S (L_p(alpha_j) h^alpha_j v_j / scale)
    g = vl.build_grid(2, -1.0, 1.0, 31)
    op = vl.VariableOrderOperator(g, vl.sample_order(order_field(kind), g),
                                  mode="fast")
    alphas, scale = op.field.sampled, 0.5
    plan = vl.build_plan(alphas.min(), alphas.max(), TAU_ORDER_NODES)
    weights = vl.eval_lagrange(plan, alphas).T * g.h ** alphas
    lam = _sine_symbol(g.shape)
    v = np.random.default_rng(2).standard_normal(g.size)
    ref = _dst(sum(lam ** (-a / 2.0) / scale * _dst(c * v, g.shape).reshape(g.shape)
                   for a, c in zip(plan.nodes, weights)), g.shape)
    out = _tau_inverse(op, scale=scale, shift=0.0)(v)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shift_interpolated_tau_half_steps():
    # interpolating the inverse in the per-node shift 1 + mu q as well as in
    # the order: 20 three-level and 14 bootstrap half-steps with the shift
    # frozen at 1 + mu mean(q), on the set-up of
    # test_preconditioner_cuts_three_level_iterations
    g = vl.build_grid(2, 0.0, 1.0, 63)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("phase_middle"), g), mode="fast")
    w = initial_condition("bubbles", kappa=0.02)(g.points()) + 1.0
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=4e-4, t_final=4e-4,
                             kappa=0.02)
    ((_, boot), _, _), ((_, three), _, _) = _allen_cahn_systems(op, w, w, stepper)
    assert boot.status == "converged" and three.status == "converged"
    assert boot.iterations <= 8, boot.iterations
    assert three.iterations <= 13, three.iterations


def test_preconditioned_solves_take_initial_guess():
    # x0 enters the preconditioned iteration as a correction start: a random
    # start reaches the zero-start solution, the converged one returns at once
    op, f, b = _elliptic_case("2d_fast")
    g = op.grid
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal(g.size)
    prob = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, f),
                              b=vl.GridFunction(g, b))
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=1e-3,
                             kappa=0.05)
    w_prev, w_cur = rng.uniform(0.0, 2.0, (2, g.size))

    def elliptic(cfg):
        out = vl.solve_elliptic(prob, cfg)
        return out.u.values, out.krylov

    def three_level(cfg):
        w, res = vl.step_allen_cahn_three_level(
            vl.GridFunction(g, w_prev), vl.GridFunction(g, w_cur),
            replace(stepper, krylov=cfg), op)
        return w.values, res

    for solve in (elliptic, three_level):
        u, _ = solve(vl.KrylovConfig())
        u_x0, res = solve(vl.KrylovConfig(x0=x0))
        assert res.status == "converged"
        assert np.abs(u_x0 - u).max() / np.abs(u).max() <= 1e-10
        _, res = solve(vl.KrylovConfig(x0=u))
        assert res.ok and res.iterations <= 2, res.iterations


def test_cn_step_runs_plain_bicgstab():
    # the shifted Crank-Nicolson system gets no preconditioner, not even one
    # carried by stepper.krylov: the step is bit for bit one plain BiCGSTAB
    # solve on the pinned map
    g = vl.build_grid(3, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("bench_tanh"), g), mode="fast")
    u0 = vl.GridFunction(g, np.cos(np.pi * g.points()[:, 0] / 2.0))
    stepper = vl.TimeStepper(dt=1.0 / 16.0, t_final=1.0 / 16.0)
    half = stepper.dt / 2.0
    rhs = _pinned_map(op, -half, 1.0)(u0.values)
    plain = vl.bicgstab(_pinned_map(op, half, 1.0), rhs,
                        stepper.krylov)
    tau = _tau_inverse(op, scale=half, shift=1.0)
    for krylov in (stepper.krylov, replace(stepper.krylov, preconditioner=tau)):
        u1, res = vl.step_crank_nicolson(u0, replace(stepper, krylov=krylov), op)
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


def test_time_stepper_rejects_negative_diffusion():
    # a negative diffusion runs the heat equation backwards: Crank-Nicolson
    # then grows the max norm by orders of magnitude per step
    with pytest.raises(vl.InvalidRange, match="diffusion"):
        vl.TimeStepper(dt=0.5, t_final=1.0, diffusion=-1.0)
    with pytest.raises(vl.InvalidRange, match="diffusion"):
        vl.TimeStepper(dt=0.5, t_final=1.0, diffusion=float("nan"))


@pytest.mark.parametrize("make, match", [
    (lambda: vl.KrylovConfig(tol=float("inf")), "tolerance"),
    (lambda: vl.KrylovConfig(tol=float("nan")), "tolerance"),
    (lambda: vl.KrylovConfig(max_iter=2.5), "max_iter"),
    (lambda: vl.KrylovConfig(max_iter=True), "max_iter"),
    (lambda: vl.KrylovConfig(accept_relres=float("nan")), "accept_relres"),
    (lambda: vl.KrylovConfig(accept_relres=-1e-6), "accept_relres"),
    (lambda: vl.TimeStepper(dt=float("nan")), "finite"),
    (lambda: vl.TimeStepper(t_final=float("inf")), "finite"),
    (lambda: vl.TimeStepper(diffusion=float("inf")), "diffusion"),
    (lambda: vl.TimeStepper(kappa=float("nan")), "kappa"),
    (lambda: vl.TimeStepper(scheme="allen_cahn", kappa=float("inf")), "kappa"),
    (lambda: vl.TimeStepper(scheme="allen_cahn",
                            source=lambda pts, t: np.full(len(pts), 1e6)), "source"),
], ids=["tol_inf", "tol_nan", "max_iter_fraction", "max_iter_bool",
        "accept_relres_nan", "accept_relres_negative", "dt_nan",
        "t_final_inf", "diffusion_inf", "kappa_nan", "kappa_inf",
        "allen_cahn_source"])
def test_configs_reject_invalid_values(make, match):
    # a tol of inf would return x = 0 as "converged" after no iteration, a
    # max_iter of 2.5 would fail in range(), a NaN accept_relres would fail
    # every unconverged solve, a NaN dt would read as too many steps, and
    # the phase-field steps have no source term that could take a source
    with pytest.raises(vl.InvalidRange, match=match):
        make()


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


@pytest.mark.parametrize("scheme", ["crank_nicolson", "allen_cahn"])
def test_evolve_stop_when_after_first_step(scheme):
    # both schemes consult stop_when after every step, the phase-field
    # bootstrap step included
    g = vl.build_grid(2, 0.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.8), mode="fast", rank=1)
    stepper = vl.TimeStepper(scheme=scheme, dt=1e-3, t_final=1e-2, kappa=0.05)
    u0 = vl.GridFunction(g, initial_condition("bubbles", kappa=0.05)(g.points()))
    rec = vl.evolve(stepper, op, u0, stop_when=lambda r: r.step == 1)
    assert rec.column("step") == [0, 1]


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


def test_evolve_masked_allen_cahn_holds_exterior_value(tmp_path):
    # masked nodes read the exterior value -1 in every row, row 0 included,
    # whatever the initial data holds there; inside nodes do not see it
    g = vl.build_grid(2, 0.0, 1.0, 15)
    mask = vl.make_mask(g, lambda p: np.sum((p - 0.5) ** 2, axis=-1) < 0.16)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("phase_middle"), g), mode="fast", mask=mask)
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=3e-3,
                             kappa=0.05)
    u0 = initial_condition("bubbles", kappa=0.05)(g.points())
    runs = []
    for outside in (0.0, 0.7):
        vals = u0.copy()
        vals[~mask.inside] = outside
        frames = tmp_path / f"frames_{outside}"
        frames.mkdir()
        runs.append(vl.evolve(stepper, op, vl.GridFunction(g, vals),
                              frame_dir=frames, frame_every=1))
        for path in sorted(frames.glob("frame_*.txt")):
            frame = np.loadtxt(path).ravel()
            assert np.all(frame[~mask.inside] == -1.0), path.name
            assert np.array_equal(frame[mask.inside], np.loadtxt(
                tmp_path / "frames_0.0" / path.name).ravel()[mask.inside])
    assert np.array_equal(runs[0].final.values, runs[1].final.values)
    assert runs[0].column("mass") == runs[1].column("mass")
    mass = runs[0].column("mass")
    assert abs(mass[1] - mass[0]) <= 0.1 * abs(mass[0]), mass


def test_component_count():
    g = vl.build_grid(2, 0.0, 1.0, 15)
    vals = np.zeros(g.shape)
    vals[2:4, 2:4] = 1.0
    vals[10:12, 10:12] = 1.0
    assert positive_component_count(vl.GridFunction(g, vals.ravel())) == 2


def test_run_record_csvs(tmp_path):
    g = vl.build_grid(1, 0.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.0), mode="fast", rank=1)
    rec = vl.evolve(vl.TimeStepper(dt=0.1, t_final=0.2), op,
                    vl.GridFunction.zeros(g))
    write_observer_csv(rec, tmp_path / "obs.csv")
    head = (tmp_path / "obs.csv").read_text().splitlines()[0]
    assert head == "step,t,max_norm,l2,mass,components,iterations,seconds"

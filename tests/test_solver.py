import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft

import varlap as vl
from varlap.presets import initial_condition, order_field
import varlap.solver as solver
from varlap.lowrank import chebyshev_plan
from varlap.solver import (
    TAU_ORDER_NODES,
    TAU_SHIFT_NODES,
    _bootstrap_system,
    _implicit_step,
    _pinned_map,
    _tau_model,
    _three_level_system,
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


def test_bicgstab_breakdown_on_rotation():
    # r_hat . A p = e1 . e2 = 0 in the first sweep: breakdown before any
    # half-step, with x = 0 and its true residual
    res = vl.bicgstab(lambda u: np.array([-u[1], u[0]]), np.array([1.0, 0.0]))
    assert res.status == "breakdown" and res.iterations == 0
    assert np.array_equal(res.x, np.zeros(2)) and res.relres == 1.0


def test_bicgstab_nan_raises():
    with pytest.raises(vl.SolverFailure, match="NaN"):
        vl.bicgstab(lambda u: np.full_like(u, np.nan), np.ones(3))


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


def _bicgstab_out_of_place(apply_a, rhs, config):
    """The out-of-place BiCGSTAB recurrence, a fresh array for every vector
    of every sweep: the reference the in-place :func:`bicgstab` must equal."""
    cfg = config
    b = np.asarray(rhs, dtype=float).ravel()
    n = b.size
    b_norm = float(np.linalg.norm(b))
    x, r = np.zeros(n), b.copy()
    m_inv = cfg.preconditioner if cfg.preconditioner is not None else (lambda v: v)
    r_hat = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    relres = float(np.linalg.norm(r)) / b_norm if b_norm else 0.0
    residuals = [relres]
    best_x, best_res, best_half = x.copy(), relres, 0
    status = "converged" if relres <= cfg.tol else "max_iter"
    half = it = 0
    while status == "max_iter" and it < cfg.max_iter:
        it += 1
        rho = float(r_hat @ r)
        if abs(rho) < 1e-300:
            status = "breakdown"
            break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = m_inv(p)
        v = apply_a(p_hat)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            status = "breakdown"
            break
        alpha = rho / denom
        s = x + alpha * p_hat
        res_half = r - alpha * v
        half = 2 * it - 1
        half_norm = float(np.linalg.norm(res_half)) / b_norm
        residuals.append(half_norm)
        if half_norm < best_res:
            best_x, best_res, best_half = s.copy(), half_norm, half
        if half_norm <= cfg.tol:
            x, relres = s, half_norm
            status = "converged"
            break
        s_hat = m_inv(res_half)
        t = apply_a(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            status = "breakdown"
            break
        omega = float(t @ res_half) / tt
        if omega == 0.0:
            status = "breakdown"
            break
        x = s + omega * s_hat
        r = res_half - omega * t
        rho_old = rho
        half = 2 * it
        relres = float(np.linalg.norm(r)) / b_norm
        residuals.append(relres)
        if relres < best_res:
            best_x, best_res, best_half = x.copy(), relres, half
        if relres <= cfg.tol:
            status = "converged"
            break
        leash = 2 * solver.STAGNATION_SWEEPS
        if best_res >= 0.999 * residuals[0]:
            leash *= 8
        if half - best_half >= leash:
            status = "stagnated"
            break
    if status != "converged":
        x, half = best_x, best_half
        relres = float(np.linalg.norm(b - apply_a(x))) / b_norm
    return x, half, relres, status, residuals


def _bicgstab_cases():
    """(name, matrix, rhs, config) covering every exit of BiCGSTAB."""
    rng = np.random.default_rng(0)
    n = 30
    a, stiff = (np.diag(d) + 0.3 * np.sqrt(np.outer(d, d))
                * rng.uniform(-1, 1, (n, n)) / n
                for d in (np.logspace(0.0, 2.0, n), np.logspace(0.0, 6.0, n)))
    b = rng.standard_normal(n)
    # omega = 0 after the first half-step, which is no better than the start
    omega_zero = np.array([[1.0, 1.0], [1.0, 0.0]])
    return [
        ("converged", a, b, vl.KrylovConfig(tol=1e-10)),
        ("diagonal", np.diag(np.diag(a)), b, vl.KrylovConfig(tol=1e-10)),
        # the recursive residual of the stiff system floors above 1e-300
        ("stagnated", stiff, b, vl.KrylovConfig(tol=1e-300)),
        ("max_iter", a, b, vl.KrylovConfig(tol=1e-300, max_iter=4)),
        ("rotation", np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0]),
         vl.KrylovConfig()),
        ("omega_zero", omega_zero, np.array([1.0, 0.0]), vl.KrylovConfig()),
    ]


def _reused_buffer_jacobi(d):
    """The Jacobi inverse, returning one internal buffer on every call."""
    buf = np.empty(d.size)

    def m_inv(v):
        np.divide(v, d, out=buf)
        return buf

    return m_inv


def test_in_place_bicgstab_equals_out_of_place_recurrence():
    # x, r and p are updated in place, the half-step iterate and residual
    # overwrite x and r: every exit returns the out-of-place recurrence's x,
    # count, residuals, status and relres bitwise, plain, Jacobi
    # preconditioned, with an identity preconditioner that returns its
    # input, with one that returns a reused buffer, and with the identity
    # operator
    exits = set()
    for name, a, b, cfg in _bicgstab_cases():
        d = np.diag(a).copy()
        d[d == 0.0] = 1.0
        preconditioners = {"plain": None, "jacobi": lambda v: v / d,
                           "identity": lambda v: v,
                           "reused": _reused_buffer_jacobi(d)}
        for operator in (lambda u: a @ u, lambda u: u):
            for pre_name, pre in preconditioners.items():
                run = replace(cfg, preconditioner=pre)
                x, half, relres, status, residuals = _bicgstab_out_of_place(
                    operator, b, run)
                if pre_name == "reused":  # a buffer of its own
                    run = replace(run, preconditioner=_reused_buffer_jacobi(d))
                got = vl.bicgstab(operator, b, run)
                assert np.array_equal(got.x, x), (name, pre_name)
                assert (got.iterations, got.relres, got.status,
                        got.residuals) == (half, relres, status, residuals), (
                    name, pre_name)
                # the exit and whether it came right after a half-step
                exits.add((status, (len(residuals) - 1) % 2))
    assert exits >= {("converged", 1), ("converged", 0), ("stagnated", 0),
                     ("max_iter", 0), ("breakdown", 0), ("breakdown", 1)}, exits


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


@pytest.mark.parametrize("n", [63, 127, 255])
def test_tau_half_steps_bounded_across_grids(n):
    # the tau-preconditioned count grows slowly with N: 9 / 10 / 11
    # half-steps at N = 63 / 127 / 255
    g = vl.build_grid(2, -1.0, 1.0, n)
    op = vl.VariableOrderOperator(g, order_field("case2_linear"), mode="fast")
    out = vl.solve_elliptic(vl.EllipticProblem(
        operator=op, f=vl.GridFunction(g, np.ones(g.size))),
        vl.KrylovConfig(tol=1e-10))
    assert out.krylov.status == "converged"
    assert out.krylov.iterations <= 12, out.krylov.iterations


def _bootstrap_step(w, stepper, op):
    """The first phase-field step as the march takes it, from zero."""
    c, sigma, g = _bootstrap_system(w, stepper)
    return _implicit_step("bootstrap step", op, w, c, sigma, g, stepper.krylov,
                          _tau_model(op)(c, sigma))[:2]


def _allen_cahn_systems(op, w_prev, w_cur, stepper):
    """(step result, pinned map, rhs) of the bootstrap and three-level steps."""
    dt, mu = stepper.dt, stepper.dt / stepper.kappa**2
    phys = w_cur - 1.0
    q = phys**2
    boot = (_bootstrap_step(vl.GridFunction(op.grid, w_cur), stepper, op),
            _pinned_map(op, dt / 2.0, 1.0),
            w_cur - dt / 2.0 * op._apply_flat(w_cur) - mu * (phys**3 - phys))
    three = (vl.step_allen_cahn_three_level(vl.GridFunction(op.grid, w_prev),
                                            vl.GridFunction(op.grid, w_cur),
                                            stepper, op),
             _pinned_map(op, dt, 1.0 + mu * q),
             w_prev - dt * op._apply_flat(w_prev) - mu * q * w_prev
             + 2.0 * mu * (q + phys))
    return [(res, lhs, op._masked_input(rhs)) for res, lhs, rhs in (boot, three)]


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
        out = _tau_model(op)(scale, sigma)(model_v)
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
    out = _tau_model(op)(scale, 0.0)(v)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_shifted_tau_inverse_is_the_per_node_formula_under_a_mask():
    # two shift nodes over the unmasked shifts and three order nodes:
    # M^-1 v = sum_s L_s(sigma_j) S sum_p (sigma_s h^alpha_p
    #          + scale Lam^(alpha_p/2))^-1 S (L_p(alpha_j) h^alpha_j v_j),
    # with every weight evaluated per node and the identity on masked rows
    g = vl.build_grid(2, -1.0, 1.0, 31)
    mask = vl.make_mask(g, lambda p: np.sum(p ** 2, axis=-1) < 0.7)
    op = vl.VariableOrderOperator(g, vl.sample_order(order_field("case2_linear"), g),
                                  mode="fast", mask=mask)
    rng = np.random.default_rng(9)
    sigma = rng.uniform(1.0, 3.0, g.size)
    v = rng.standard_normal(g.size)
    scale, inside = 0.3, mask.inside
    alphas = op.field.sampled
    plan = vl.build_plan(alphas.min(), alphas.max(), TAU_ORDER_NODES)
    order_w = vl.eval_lagrange(plan, alphas).T * g.h ** alphas
    lo, hi = sigma[inside].min(), sigma[inside].max()
    shift_plan = chebyshev_plan(lo, hi, TAU_SHIFT_NODES)
    assert shift_plan.rank == 2
    shift_w = vl.eval_lagrange(shift_plan, np.clip(sigma, lo, hi)).T
    lam = _sine_symbol(g.shape)
    ref = sum(w_s * _dst(sum(_dst(c * v, g.shape).reshape(g.shape)
                             / (s * g.h ** a + scale * lam ** (a / 2.0))
                             for a, c in zip(plan.nodes, order_w)), g.shape)
              for s, w_s in zip(shift_plan.nodes, shift_w))
    ref[~inside] = v[~inside]
    out = _tau_model(op)(scale, sigma)(v)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_tau_preconditioned_3d_solve_memory_peak():
    # 3D N = 31, case2_linear, f = 1: the solve, its tau model included,
    # peaks at 11.5 MiB in tracemalloc with out-of-place BiCGSTAB updates,
    # tau order weights spread to every node and whole-array last-axis
    # transforms, and at 9.0 MiB without them
    g = vl.build_grid(3, -1.0, 1.0, 31)
    op = vl.VariableOrderOperator(g, vl.sample_order(order_field("case2_linear"), g),
                                  rank=7)
    problem = vl.EllipticProblem(operator=op, f=vl.GridFunction(g, np.ones(g.size)))
    cfg = vl.KrylovConfig(tol=1e-10)
    vl.solve_elliptic(problem, cfg)
    tracemalloc.start()
    try:
        out = vl.solve_elliptic(problem, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.krylov.status == "converged"
    assert peak <= 10.25 * 2**20, peak / 2**20


def test_tau_inverse_at_zero_scale_divides_by_shift():
    # the tau model of diag(sigma) + 0 A is diag(sigma) itself; masked rows
    # stay the identity
    g = vl.build_grid(2, -1.0, 1.0, 15)
    mask = vl.make_mask(g, lambda p: np.sum(p ** 2, axis=-1) < 0.5)
    rng = np.random.default_rng(4)
    sigma = rng.uniform(1.0, 2.0, g.size)
    v = rng.standard_normal(g.size)
    for disc in (None, mask):
        op = vl.VariableOrderOperator(g, order_field("case2_linear"),
                                      mode="fast", mask=disc)
        out = _tau_model(op)(0.0, sigma)(v)
        inside = np.ones(g.size, bool) if disc is None else disc.inside
        assert np.array_equal(out[inside], v[inside] / sigma[inside])
        assert np.array_equal(out[~inside], v[~inside])


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


@pytest.mark.parametrize("arg", ["u_prev", "u_nm1", "u_n"])
def test_step_functions_refuse_state_on_another_grid(arg):
    g = vl.build_grid(2, -1.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.5), mode="fast")
    states = {"u_nm1": vl.GridFunction.zeros(g), "u_n": vl.GridFunction.zeros(g),
              arg: vl.GridFunction.zeros(vl.build_grid(2, -1.0, 1.0, 7))}
    with pytest.raises(vl.GridMismatch, match=arg):
        if arg == "u_prev":
            vl.step_crank_nicolson(states[arg], vl.TimeStepper(dt=0.1, t_final=0.1),
                                   op)
        else:
            vl.step_allen_cahn_three_level(
                states["u_nm1"], states["u_n"],
                vl.TimeStepper(scheme="allen_cahn", dt=0.1, t_final=0.1), op)


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
    tau = _tau_model(op)(half, 1.0)
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
    (lambda: vl.KrylovConfig(tol=True), "tolerance"),
    (lambda: vl.KrylovConfig(max_iter=2.5), "max_iter"),
    (lambda: vl.KrylovConfig(max_iter=True), "max_iter"),
    (lambda: vl.KrylovConfig(accept_relres=float("nan")), "accept_relres"),
    (lambda: vl.KrylovConfig(accept_relres=-1e-6), "accept_relres"),
    (lambda: vl.KrylovConfig(accept_relres=True), "accept_relres"),
    (lambda: vl.TimeStepper(dt=float("nan")), "finite"),
    (lambda: vl.TimeStepper(t_final=float("inf")), "finite"),
    (lambda: vl.TimeStepper(diffusion=float("inf")), "diffusion"),
    (lambda: vl.TimeStepper(kappa=float("nan")), "kappa"),
    (lambda: vl.TimeStepper(scheme="allen_cahn", kappa=float("inf")), "kappa"),
    (lambda: vl.TimeStepper(scheme="allen_cahn",
                            source=lambda pts, t: np.full(len(pts), 1e6)), "source"),
    (lambda: vl.TimeStepper(dt=0.3, t_final=0.5), "whole number"),
    (lambda: vl.TimeStepper(dt=0.1, t_final=0.25), "whole number"),
    (lambda: vl.TimeStepper(dt=True, t_final=1.0), "dt"),
    (lambda: vl.TimeStepper(t_final=True), "t_final"),
    (lambda: vl.TimeStepper(kappa=True), "kappa"),
    (lambda: vl.TimeStepper(diffusion=True), "diffusion"),
    (lambda: vl.TimeStepper(dt="0.1"), "dt"),
    (lambda: vl.TimeStepper(t_final="1"), "t_final"),
    (lambda: vl.TimeStepper(kappa="0.01"), "kappa"),
    (lambda: vl.TimeStepper(diffusion=1j), "diffusion"),
    (lambda: vl.KrylovConfig(tol="1e-3"), "tolerance"),
    (lambda: vl.KrylovConfig(tol=1j), "tolerance"),
    (lambda: vl.KrylovConfig(accept_relres="x"), "accept_relres"),
], ids=["tol_inf", "tol_nan", "tol_bool", "max_iter_fraction",
        "max_iter_bool", "accept_relres_nan", "accept_relres_negative",
        "accept_relres_bool", "dt_nan", "t_final_inf", "diffusion_inf", "kappa_nan", "kappa_inf",
        "allen_cahn_source", "t_final_past_whole_steps",
        "t_final_short_of_whole_steps", "dt_bool", "t_final_bool",
        "kappa_bool", "diffusion_bool", "dt_str", "t_final_str", "kappa_str",
        "diffusion_complex", "tol_str", "tol_complex", "accept_relres_str"])
def test_configs_reject_invalid_values(make, match):
    # a tol of inf would return x = 0 as "converged" after no iteration, a
    # max_iter of 2.5 would fail in range(), a tol of True would read as 1
    # and end a solve "converged" at x = 0, a NaN accept_relres would fail
    # every unconverged solve, a NaN dt would read as too many steps, the
    # phase-field steps have no source term that could take a source, a
    # t_final of 0.5 in steps of 0.3 would march to 0.6, a dt of True
    # would read as 1, and a tol of "1e-3" would fail in a comparison
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


def test_evolve_masked_crank_nicolson_holds_exterior_value():
    # masked nodes read the exterior value 0 from row 0 on, whatever the
    # initial data holds there, so row 0 counts the inside nodes only
    g = vl.build_grid(2, -1.0, 1.0, 15)
    mask = vl.make_mask(g, lambda p: np.sum(p ** 2, axis=-1) < 0.5)
    op = vl.VariableOrderOperator(g, order_field("coexist_high"), mode="fast",
                                  mask=mask)
    stepper = vl.TimeStepper(dt=0.02, t_final=0.04)
    runs = [vl.evolve(stepper, op, vl.GridFunction(
        g, np.where(mask.inside, 1.0, outside))) for outside in (0.0, 1.0)]
    assert np.array_equal(runs[0].final.values, runs[1].final.values)
    for name in ("max_norm", "l2", "mass"):
        assert runs[0].column(name) == runs[1].column(name), name
    assert runs[1].column("mass")[0] == pytest.approx(
        mask.inside.sum() * g.h ** 2, rel=1e-14)


def _bubbles_march(mask: bool, diffusion: float = 1.0):
    """(operator, stepper, u0) of a 12-step phase-field march at 2D N = 31,
    on the whole square or on a disc."""
    g = vl.build_grid(2, 0.0, 1.0, 31)
    disc = (vl.make_mask(g, lambda p: np.sum((p - 0.5) ** 2, axis=-1) < 0.16)
            if mask else None)
    op = vl.VariableOrderOperator(
        g, vl.sample_order(order_field("phase_middle"), g), mode="fast", mask=disc)
    # the bubbles merge at step 2
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1.5625e-4, t_final=1.875e-3,
                             kappa=0.0125, diffusion=diffusion)
    u0 = initial_condition("bubbles", kappa=0.0125)(g.points())
    if disc is not None:
        u0[~disc.inside] = -1.0
    return op, stepper, vl.GridFunction(g, u0)


def _public_march(op, stepper, u0):
    """Shifted states w^0..w^n of the march through the public step
    functions, each three-level step from zero with A w^{n-1} applied, and
    the half-steps of steps 1..n."""
    ws = [vl.GridFunction(op.grid, u0.values + 1.0)]
    w, res = _bootstrap_step(ws[0], stepper, op)
    ws.append(w)
    its = [res.iterations]
    for _ in range(int(round(stepper.t_final / stepper.dt)) - 1):
        w, res = vl.step_allen_cahn_three_level(ws[-2], ws[-1], stepper, op)
        ws.append(w)
        its.append(res.iterations)
    return ws, its


@pytest.mark.parametrize("mask", [False, True], ids=["square", "disc"])
def test_carried_march_matches_public_steps(mask):
    # evolve carries A w from each solve and starts every three-level step
    # from 2 w^n - w^{n-1}; it must land where the public steps do
    op, stepper, u0 = _bubbles_march(mask)
    ws, its = _public_march(op, stepper, u0)
    rec = vl.evolve(stepper, op, u0)
    ref = ws[-1].values - 1.0
    assert np.abs(rec.final.values - ref).max() <= 1e-9
    comps = rec.column("components")
    assert comps[0] == 2 and comps[-1] == 1
    assert comps == [
        positive_component_count(vl.GridFunction(op.grid, w.values - 1.0))
        for w in ws]
    # the bootstrap step is the public one; the warm starts save half-steps
    carried = rec.column("iterations")[1:]
    assert carried[0] == its[0] and sum(carried) < sum(its), (carried, its)


def test_carried_march_without_diffusion_never_divides():
    # c = 0 leaves A w undetermined by the solve: no step divides by c, and
    # the march lands where the public steps do
    op, stepper, u0 = _bubbles_march(False, diffusion=0.0)
    ws, _ = _public_march(op, stepper, u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = vl.evolve(stepper, op, u0)
    assert np.array_equal(rec.final.values, ws[-1].values - 1.0)


@pytest.mark.parametrize("scheme", ["crank_nicolson", "allen_cahn"])
def test_marches_without_diffusion_apply_nothing(scheme, monkeypatch):
    # every product with A would be multiplied by c = 0: no step applies A,
    # and the march is the pointwise recurrence sigma w^{n+1} = rhs
    g = vl.build_grid(2, 0.0, 1.0, 15)
    op = vl.VariableOrderOperator(g, vl.sample_order(order_field("phase_middle"), g))
    stepper = vl.TimeStepper(scheme=scheme, dt=1e-3, t_final=8e-3, kappa=0.05,
                             diffusion=0.0)
    u0 = initial_condition("bubbles", kappa=0.05)(g.points())
    applies = []
    apply_flat = vl.VariableOrderOperator._apply_flat
    monkeypatch.setattr(vl.VariableOrderOperator, "_apply_flat",
                        lambda self, u: applies.append(1) or apply_flat(self, u))
    rec = vl.evolve(stepper, op, vl.GridFunction(g, u0))
    assert applies == [] and len(rec.rows) == 9
    if scheme == "crank_nicolson":
        assert np.array_equal(rec.final.values, u0)
        return
    mu = stepper.dt / stepper.kappa**2
    ws = [u0 + 1.0, u0 + 1.0 - mu * (u0**3 - u0)]
    for _ in range(7):
        phys = ws[-1] - 1.0
        sigma = 1.0 + mu * phys**2
        ws.append(((2.0 - sigma) * ws[-2] + 2.0 * mu * (phys**2 + phys)) / sigma)
    assert np.abs(rec.final.values - (ws[-1] - 1.0)).max() <= 1e-12


def test_each_solve_allocates_one_apply_workspace(monkeypatch):
    # the apply workspace belongs to the solve, not to the operator: one per
    # BiCGSTAB solve, one per right-hand-side apply, none without diffusion
    made = []
    workspace = vl.VariableOrderOperator._workspace
    monkeypatch.setattr(vl.VariableOrderOperator, "_workspace",
                        lambda self: made.append(1) or workspace(self))

    def allocations(run) -> int:
        made.clear()
        run()
        return len(made)

    op, stepper, u0 = _heat_march(mask=False, source=False)
    n_steps = 8
    problem = vl.EllipticProblem(operator=op, f=u0)
    assert allocations(lambda: vl.solve_elliptic(problem)) == 1
    assert allocations(lambda: vl.step_crank_nicolson(u0, stepper, op)) == 2
    assert allocations(lambda: vl.evolve(stepper, op, u0)) == n_steps + 1
    phase = vl.TimeStepper(scheme="allen_cahn", dt=1e-3, t_final=8e-3,
                           kappa=0.05)
    bubbles = vl.GridFunction(op.grid, initial_condition("bubbles", kappa=0.05)(
        op.grid.points()))
    assert allocations(lambda: vl.evolve(phase, op, bubbles)) == n_steps + 1
    for still in (replace(stepper, diffusion=0.0), replace(phase, diffusion=0.0)):
        assert allocations(lambda: vl.evolve(still, op, u0)) == 0


def test_step_functions_refuse_the_other_scheme():
    # a Crank-Nicolson stepper would give the three-level step the default
    # kappa, and a kappa of 0 would divide by zero
    g = vl.build_grid(1, -1.0, 1.0, 7)
    op = vl.VariableOrderOperator(g, sampled_const(g, 1.5), rank=1)
    u = vl.GridFunction(g, np.ones(g.size))
    cn = vl.TimeStepper(dt=0.1, t_final=0.1, kappa=0.0)
    ac = vl.TimeStepper(scheme="allen_cahn", dt=0.1, t_final=0.1, kappa=0.05)
    with pytest.raises(vl.InvalidRange, match="allen_cahn"):
        vl.step_allen_cahn_three_level(u, u, cn, op)
    with pytest.raises(vl.InvalidRange, match="crank_nicolson"):
        vl.step_crank_nicolson(u, ac, op)


def _heat_march(mask: bool, source: bool, diffusion: float = 1.0):
    """(operator, stepper, u0) of an 8-step Crank-Nicolson march at 2D
    N = 31, on the whole square or on a disc (u0 zero outside it), with or
    without a source."""
    g = vl.build_grid(2, -1.0, 1.0, 31)
    disc = (vl.make_mask(g, lambda p: np.sum(p ** 2, axis=-1) < 0.81)
            if mask else None)
    op = vl.VariableOrderOperator(g, order_field("case2_linear"), mode="fast",
                                  mask=disc)
    f = (lambda pts, t: np.cos(4.0 * t) * np.exp(-np.sum(pts ** 2, axis=-1))
         ) if source else None
    stepper = vl.TimeStepper(dt=1.0 / 32.0, t_final=0.25, diffusion=diffusion,
                             source=f)
    u0 = np.exp(-np.sum(g.points() ** 2, axis=-1))
    if disc is not None:
        u0[~disc.inside] = 0.0
    return op, stepper, vl.GridFunction(g, u0)


def _public_heat_march(op, stepper, u0):
    """Final state and half-steps of the march through step_crank_nicolson."""
    u, its = u0, []
    for k in range(int(round(stepper.t_final / stepper.dt))):
        u, res = vl.step_crank_nicolson(u, stepper, op, t=k * stepper.dt)
        its.append(res.iterations)
    return u, its


@pytest.mark.parametrize("source", [False, True], ids=["free", "source"])
@pytest.mark.parametrize("mask", [False, True], ids=["square", "disc"])
def test_crank_nicolson_march_matches_public_steps(mask, source):
    # the march preconditions, carries A u and warm starts each step; it
    # must land where the plain public steps do, source times included
    op, stepper, u0 = _heat_march(mask, source)
    ref, its = _public_heat_march(op, stepper, u0)
    rec = vl.evolve(stepper, op, u0)
    assert np.abs(rec.final.values - ref.values).max() <= 1e-9
    carried = rec.column("iterations")[1:]
    assert len(carried) == 8 and sum(carried) < sum(its), (carried, its)


def test_crank_nicolson_march_without_diffusion():
    # c = 0: the exact tau inverse solves each identity system in one
    # half-step, as plain BiCGSTAB does, and nothing divides by c
    op, stepper, u0 = _heat_march(True, True, diffusion=0.0)
    ref, its = _public_heat_march(op, stepper, u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = vl.evolve(stepper, op, u0)
    assert np.array_equal(rec.final.values, ref.values)
    assert rec.column("iterations")[1:] == its == [1] * 8


@pytest.mark.parametrize("mask", [False, True], ids=["square", "disc"])
def test_warm_started_step_reports_residual_of_its_rhs(mask):
    # the correction solve runs on r0 with tol rescaled; the step reports
    # its residual relative to its own right-hand side
    op, stepper, u0 = _bubbles_march(mask)
    stepper = replace(stepper, krylov=vl.KrylovConfig(tol=1e-10))
    _, w1, w2 = _public_march(op, stepper, u0)[0][:3]
    aw1, aw2 = op._apply_flat(w1.values), op._apply_flat(w2.values)
    c, sigma, g = _three_level_system(w2, stepper)
    start = (2.0 * w2.values - w1.values, 2.0 * aw2 - aw1)
    w3, res, aw3 = _implicit_step("three-level step", op, w1, c, sigma, g,
                                  stepper.krylov, _tau_model(op)(c, sigma),
                                  aw_old=aw1, start=start)
    cold = vl.step_allen_cahn_three_level(w1, w2, stepper, op)[1]
    rhs = op._masked_input(_pinned_map(op, -c, 2.0 - sigma)(w1.values) + g)
    true = (np.linalg.norm(rhs - _pinned_map(op, c, sigma)(w3.values))
            / np.linalg.norm(rhs))
    assert res.status == "converged" and 0 < res.iterations < cold.iterations
    assert res.relres <= stepper.krylov.tol
    assert res.relres / 10 <= true <= 10 * res.relres, (res.relres, true)
    assert res.residuals[0] < 1.0
    # the carried A w^3 is off the applied one by the residual over c
    err = np.linalg.norm(c * (aw3 - op._apply_flat(w3.values)))
    assert err <= 2 * true * np.linalg.norm(rhs)


def test_tau_order_side_built_once_per_operator(monkeypatch):
    op, stepper, u0 = _bubbles_march(False)
    stepper = replace(stepper, t_final=10 * stepper.dt)
    # the march builds the tau model once and each step only its shift side
    calls = []
    build = solver._tau_model
    monkeypatch.setattr(solver, "_tau_model",
                        lambda op: calls.append(op) or build(op))
    rec = vl.evolve(stepper, op, u0)
    assert len(rec.rows) == 11 and calls == [op]


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

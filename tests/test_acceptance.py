"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the acceptance module takes about a minute on a 2-vCPU Xeon
(the whole suite 63-72 s; criterion 6 alone 9-13 s).
Frozen reference values come from the benchmark tables reproduced by this
package at desk scale.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import varlap as vl
from varlap import experiments as ex
from varlap.operator import fit_loglog_slope
from varlap.presets import initial_condition, order_field
from varlap.solver import positive_component_count


def _report(num: int, elapsed: float, cap: float, detail: str) -> None:
    print(f"\n[criterion {num:02d}] PASS ({elapsed:.1f}s / cap {cap:.0f}s) {detail}")
    assert elapsed < cap


def gaussian_on(grid):
    pts = grid.points()
    return vl.GridFunction(grid, np.exp(-np.sum(pts**2, axis=-1)))


def conv_run(dim, h_list, order, **cfg):
    return ex.run_apply_convergence(
        {"dim": dim, "h_list": h_list, "order": order, **cfg}, "/tmp/acceptance")


def test_criterion_01_weight_correctness():
    t0 = time.monotonic()
    for alpha in (0.5, 1.0, 1.5):
        table = vl.operator_block(alpha, 1, 64)
        f = lambda eta: 2.0**alpha / math.pi * math.sin(eta / 2.0) ** alpha
        worst = 0.0
        for n in range(65):
            ref, _ = quad(f, 0.0, math.pi, weight="cos", wvar=float(n),
                          epsabs=1e-13, epsrel=1e-13, limit=400)
            worst = max(worst, abs(table[n] - ref))
        assert worst <= 1e-10, f"alpha={alpha}: {worst:.2e}"
    t2 = vl.operator_block(2.0, 1, 64)
    assert abs(t2[0] - 2.0) <= 1e-14
    assert abs(t2[1] + 1.0) <= 1e-14
    assert max(abs(t2[n]) for n in range(2, 65)) <= 1e-14
    _report(1, time.monotonic() - t0, 1.0,
            "closed-form weights vs oscillatory quadrature, |n| <= 64")


def test_criterion_02_weight_property_suite():
    t0 = time.monotonic()
    combos = [(a, d) for d in (1, 2) for a in (0.3, 0.7, 1.0, 1.5, 1.9, 2.0)]
    assert len(combos) == 12
    for alpha, dim in combos:
        m = 1024 if dim == 1 else 256
        table = vl.weights_nd_fft(alpha, dim, m)
        block = vl.signed_block(table.values, m // 4)
        center = (m // 4,) * dim
        assert block[center] > 0.0
        off = block.copy()
        off[center] = 0.0
        assert np.all(off <= 1e-12), (alpha, dim)
        assert np.allclose(block, block[(slice(None, None, -1),) * dim],
                           atol=1e-12)
        assert abs(table.total_sum()) <= 1e-12, (alpha, dim)
        if dim == 1 and alpha < 2.0:
            rep = vl.check_decay(alpha, 256)
            assert not rep.degenerate
            assert rep.ratio_min > 0.0 and math.isfinite(rep.ratio_max)
            assert rep.spread <= 10.0, (alpha, rep.spread)
    _report(2, time.monotonic() - t0, 30.0,
            "sign/symmetry/zero-sum/decay over 12 (alpha, dim) combinations")


def test_criterion_03_approximation_rates():
    t0 = time.monotonic()
    details = []

    rows = conv_run(1, [0.125, 0.0625], "alpha1")
    assert rows[1].e_inf == pytest.approx(7.35e-4, rel=0.10)
    assert rows[1].order == pytest.approx(2.00, abs=0.05)
    details.append(f"1D tanh-dec E(1/16)={rows[1].e_inf:.3e}")

    # 2D tanh profiles at h = 1/16: the benchmark table's printed value
    # 1.31e-3 belongs to the decreasing profile (see decisions ledger); the
    # increasing profile is pinned by its second-order ratio instead
    rows_dec = conv_run(2, [0.125, 0.0625], "alpha1")
    assert rows_dec[1].e_inf == pytest.approx(1.31e-3, rel=0.10)
    rows_inc = conv_run(2, [0.125, 0.0625], "alpha2")
    assert rows_inc[1].order == pytest.approx(2.00, abs=0.05)
    details.append(f"2D E_dec(1/16)={rows_dec[1].e_inf:.3e} "
                   f"E_inc(1/16)={rows_inc[1].e_inf:.3e} "
                   f"(order {rows_inc[1].order:.2f})")

    rows_3d = conv_run(3, [0.5, 0.25], "alpha1")
    assert rows_3d[1].order == pytest.approx(1.96, abs=0.10)
    details.append(f"3D order(1/4)={rows_3d[1].order:.2f}")

    for dim, hs in ((1, [0.125, 0.0625]), (2, [0.125, 0.0625]),
                    (3, [0.5, 0.25])):
        rows_pw = conv_run(dim, hs, "alpha3")
        assert rows_pw[1].order >= 1.9, (dim, rows_pw[1].order)
        details.append(f"{dim}D piecewise order={rows_pw[1].order:.2f}")

    _report(3, time.monotonic() - t0, 600.0, "; ".join(details))


def test_criterion_04_fast_direct_equivalence():
    t0 = time.monotonic()
    g = vl.build_grid(2, -4.0, 4.0, 63)
    u = gaussian_on(g)
    worst_r7 = 0.0
    worst_eps = 0.0
    for name in ("alpha1", "alpha2", "alpha3"):
        field = vl.sample_order(order_field(name), g)
        direct = vl.VariableOrderOperator(g, field, mode="direct")
        ref = direct.apply(u).values
        scale = np.abs(ref).max()
        fast7 = vl.VariableOrderOperator(g, field, mode="fast", rank=7)
        worst_r7 = max(worst_r7,
                       np.abs(fast7.apply(u).values - ref).max() / scale)
        r_eps, _ = vl.estimate_rank(field.alpha_min, field.alpha_max, g.h,
                                    1e-10, dim=2)
        fast_eps = vl.VariableOrderOperator(g, field, mode="fast", rank=r_eps)
        worst_eps = max(worst_eps,
                        np.abs(fast_eps.apply(u).values - ref).max() / scale)
    assert worst_r7 <= 1e-6
    assert worst_eps <= 1e-8
    _report(4, time.monotonic() - t0, 120.0,
            f"rank-7 gap {worst_r7:.2e}, rank(1e-10) gap {worst_eps:.2e}")


def test_criterion_05_quasi_linear_apply():
    t0 = time.monotonic()
    slopes = {}
    for dim, ns, cap in ((1, [2**k - 1 for k in range(10, 15)], 1.3),
                         (2, [63, 127, 255, 511], 2.4)):
        ops = []
        for n in ns:
            g = vl.build_grid(dim, -4.0, 4.0, n)
            field = vl.sample_order(order_field("alpha2"), g)
            ops.append(vl.VariableOrderOperator(g, field, mode="fast", rank=7))
        # the sizes are timed in turn, seven rounds of best-of-3, and the
        # slope is fitted to the medians: one slow spell of the host then
        # moves one sample of every size, not the whole of one size
        rounds = [[vl.operator_timing(op, n_reps=3)["seconds_per_apply"]
                   for op in ops] for _ in range(7)]
        times = np.median(rounds, axis=0)
        slope = fit_loglog_slope(ns, times)
        assert slope <= cap, (dim, slope, times)
        slopes[dim] = slope
    _report(5, time.monotonic() - t0, 300.0,
            f"slopes: 1D {slopes[1]:.2f} (<=1.3), 2D {slopes[2]:.2f} (<=2.4)")


def test_criterion_06_elliptic_convergence():
    t0 = time.monotonic()
    details = []

    rows = ex.run_elliptic({"case": 1, "dim": 2, "order": "case1_linear",
                            "h_list": [0.25, 0.125, 0.0625, 0.03125]},
                           "/tmp/acceptance")
    orders = [r.order for r in rows[1:]]
    assert all(o == pytest.approx(2.0, abs=0.1) for o in orders), orders
    details.append("case1 orders " + "/".join(f"{o:.2f}" for o in orders))

    hs = [0.125, 0.0625, 0.03125, 0.015625]
    for name in ("case2_linear", "case2_tanh"):
        rows = ex.run_elliptic({"case": 2, "dim": 2, "order": name,
                                "h_list": hs}, "/tmp/acceptance")
        orders = [r.order for r in rows[1:]]
        assert all(o < 1.0 for o in orders), (name, orders)
        details.append(name + " " + "/".join(f"{o:.2f}" for o in orders))
    # the piecewise chi profile jumps to order 2 at the boundary rim, so the
    # reduced-order regime shows partial recovery at the finest pair
    rows = ex.run_elliptic({"case": 2, "dim": 2, "order": "case2_square",
                            "h_list": hs}, "/tmp/acceptance")
    orders = [r.order for r in rows[1:]]
    assert sum(1 for o in orders if o < 1.0) >= 2, orders
    assert all(o < 1.5 for o in orders), orders
    details.append("case2_square " + "/".join(f"{o:.2f}" for o in orders))

    listed = {"corner08": (1.43, 1.55, 1.65), "corner12": (1.59, 1.73, 1.81),
              "const2": (1.97, 1.99, 2.00)}
    for name, expect in listed.items():
        rows = ex.run_elliptic({"case": 2, "dim": 2, "order": name,
                                "h_list": hs}, "/tmp/acceptance")
        orders = [r.order for r in rows[1:]]
        for got, ref in zip(orders, expect):
            assert got == pytest.approx(ref, abs=0.15), (name, orders)
        details.append(name + " " + "/".join(f"{o:.2f}" for o in orders))
    rows = ex.run_elliptic({"case": 2, "dim": 2, "order": "corner16",
                            "h_list": hs}, "/tmp/acceptance")
    orders = [r.order for r in rows[1:]]
    assert orders[-1] >= 1.9, orders
    details.append("corner16 " + "/".join(f"{o:.2f}" for o in orders))

    _report(6, time.monotonic() - t0, 900.0, "; ".join(details))


def test_criterion_07_stability_positivity():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for dim, n in ((1, 127), (2, 127)):
        g = vl.build_grid(dim, -1.0, 1.0, n)
        field = vl.sample_order(order_field("case1_linear"), g)
        op = vl.VariableOrderOperator(g, field, mode="fast")
        f = rng.uniform(0.0, 1.0, g.size)
        b = rng.uniform(0.0, 1.0, g.size)
        out = vl.solve_elliptic(vl.EllipticProblem(
            operator=op, f=vl.GridFunction(g, f), b=vl.GridFunction(g, b)))
        assert out.u.values.min() >= -10.0 * 1e-14 * np.abs(f).max(), (dim, n)

    g = vl.build_grid(1, -1.0, 1.0, 64)
    field = vl.sample_order(order_field("case1_tanh"), g)
    op = vl.VariableOrderOperator(g, field, mode="direct")
    f = rng.uniform(0.5, 1.5, g.size)
    b = rng.uniform(0.0, 1.0, g.size)
    out = vl.solve_elliptic(vl.EllipticProblem(
        operator=op, f=vl.GridFunction(g, f), b=vl.GridFunction(g, b)))
    dense = op.dense_matrix() + np.diag(b)
    gap = np.abs(out.u.values - np.linalg.solve(dense, f)).max()
    assert gap <= 1e-8
    _report(7, time.monotonic() - t0, 120.0,
            f"positivity up to N=127 in 1D/2D; dense cross-check gap {gap:.1e}")


def test_criterion_08_parabolic_rates():
    t0 = time.monotonic()
    hs = [0.25, 0.125, 0.0625]
    rows = ex.run_evolve({"kind": "richardson", "dim": 2, "box": [-4, 4],
                          "order": "parabolic_linear", "t_final": 0.5,
                          "h_list": hs, "dt_list": hs}, "/tmp/acceptance")
    orders = [r.order for r in rows[1:]]
    assert orders[0] == pytest.approx(1.97, abs=0.15), orders
    assert orders[1] == pytest.approx(1.99, abs=0.15), orders
    _report(8, time.monotonic() - t0, 600.0,
            "Richardson orders " + "/".join(f"{o:.3f}" for o in orders))


def test_criterion_09_oracle_equivalence():
    t0 = time.monotonic()

    def gauss(p):
        p = np.atleast_2d(p)
        return np.exp(-np.sum(p**2, axis=-1))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (1, 2):
        for _ in range(20):
            alpha = rng.uniform(0.2, 1.9)
            x = rng.uniform(-1.5, 1.5, size=d)
            quad_val = vl.integral_frac_lap(gauss, x=x, alpha=alpha, d=d)
            closed = vl.gaussian_frac_lap(x if d > 1 else float(x[0]), alpha, d)
            worst = max(worst, abs(quad_val - closed))
    assert worst <= 1e-5
    _report(9, time.monotonic() - t0, 300.0,
            f"40 random (x, alpha, d) samples, worst gap {worst:.2e}")


def test_criterion_10_iteration_counts_3d():
    t0 = time.monotonic()
    g = vl.build_grid(3, -1.0, 1.0, 31)
    u0 = vl.GridFunction(g, initial_condition("cos_modes")(g.points()))
    counts = {}
    for name, expect, tol in (("bench_tanh", 13, 4), ("bench_const16", 61, 20)):
        field = vl.sample_order(order_field(name), g)
        op = vl.VariableOrderOperator(g, field, mode="fast")
        stepper = vl.TimeStepper(dt=1.0 / 32.0, t_final=1.0 / 32.0)
        _, res = vl.step_crank_nicolson(u0, stepper, op)
        assert abs(res.iterations - expect) <= tol, (name, res.iterations)
        counts[name] = res.iterations
    _report(10, time.monotonic() - t0, 600.0,
            f"single-step counts {counts} vs 13+-4 / 61+-20")


def test_phase_field_coalescence_events():
    # desk-scale substitute for the fine-mesh phase-field figures: the two
    # nearly kissing bubbles merge into one positive component and the merged
    # bubble then disappears (see decisions ledger for the event horizons)
    t0 = time.monotonic()
    g = vl.build_grid(2, 0.0, 1.0, 127)          # h = 2^-7
    field = vl.sample_order(order_field("phase_middle"), g)
    op = vl.VariableOrderOperator(g, field, mode="fast")
    # every step, through the annihilation, converges to the default
    # tolerance (relative residual <= 1e-14)
    stepper = vl.TimeStepper(scheme="allen_cahn", dt=1e-4, t_final=0.02,
                             kappa=0.01)
    u0 = vl.GridFunction(g, initial_condition("bubbles", kappa=0.01)(g.points()))
    assert positive_component_count(u0) == 2
    rec = vl.evolve(stepper, op, u0,
                    stop_when=lambda r: r.components == 0)
    comps = rec.column("components")
    ts = rec.column("t")
    coalesce = next((t for t, c in zip(ts, comps) if c == 1), None)
    vanish = next((t for t, c in zip(ts, comps) if c == 0), None)
    assert coalesce is not None and coalesce <= 0.004, coalesce
    assert vanish is not None and vanish <= 0.02, vanish
    seq = []
    for c in comps:
        if not seq or seq[-1] != c:
            seq.append(c)
    assert seq == [2, 1, 0], seq
    print(f"\n[phase-field] PASS ({time.monotonic() - t0:.1f}s) "
          f"components 2 -> 1 (t={coalesce:.4f}) -> 0 (t={vanish:.4f})")

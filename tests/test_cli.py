import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlap import (EllipticProblem, GridFunction, OrderField,
                    VariableOrderOperator, build_grid, cli, experiments,
                    gaussian_frac_lap, solve_elliptic)
from varlap.errors import ConfigError
from varlap.presets import order_field
from varlap.weights import default_quadrature_size, operator_block, weights_nd_fft


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_weights_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, "w.json", {"alpha": 1.5, "dim": 1, "n_max": 8})
    assert cli.main(["weights", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "weights.csv").read_text().strip().splitlines()
    assert lines[0] == "n_1,value"
    assert len(lines) == 1 + 17


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_2d_csv_is_operator_block(tmp_path, dim):
    # the CSV holds operator_block, the weights the operator applies: the
    # corner node's row of the direct operator reads offsets 0..n-1
    n, alpha = 8, 1.3
    cfg = write_cfg(tmp_path, "w.json", {"alpha": alpha, "dim": dim, "n_max": n})
    assert cli.main(["weights", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "weights.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows.shape == ((2 * n + 1) ** dim, dim + 1)
    block = operator_block(alpha, dim, n)
    idx = tuple(np.abs(rows[:, :dim]).astype(int).T)
    assert np.abs(rows[:, dim] - block[idx]).max() <= 1e-11 * block.flat[0]
    grid = build_grid(dim, -1.0, 1.0, n)
    op = VariableOrderOperator(grid, OrderField.constant(alpha), mode="direct")
    corner = op.dense_matrix()[0].reshape(grid.shape) * grid.h ** alpha
    inner = (slice(0, n),) * dim
    assert np.abs(corner - block[inner]).max() <= 1e-14 * block.flat[0]
    if dim == 2:
        # the 2D weights carry the alias correction the plain table lacks
        plain = weights_nd_fft(alpha, 2, default_quadrature_size(2, n))
        assert np.abs(block - plain.values[:n + 1, :n + 1]).max() > 1e-9


def test_apply_conv_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "dim": 1, "h_list": [0.25, 0.125], "order": "alpha1",
        "out": "conv.csv",
    })
    assert cli.main(["apply-conv", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "conv.csv").read_text().strip().splitlines()
    assert lines[0] == "h,E_inf,order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[2] == ""                      # no order on the first row
    assert float(lines[2].split(",")[2]) == pytest.approx(2.0, abs=0.3)


def test_apply_conv_deterministic_output(tmp_path):
    cfg = {"dim": 2, "h_list": [0.5, 0.25], "order": "alpha2",
           "out": "conv.csv"}
    p1 = tmp_path / "run1"
    p2 = tmp_path / "run2"
    experiments.run_apply_convergence(cfg, p1)
    experiments.run_apply_convergence(cfg, p2)
    assert (p1 / "conv.csv").read_bytes() == (p2 / "conv.csv").read_bytes()


def test_apply_conv_wide_box(tmp_path):
    # the Gaussian oracle is evaluated out to |x|^2 = 380 on this box
    cfg = write_cfg(tmp_path, "w.json", {"dim": 1, "order": "const:1.5",
                                         "box": [-20, 20], "h_list": [0.5]})
    assert cli.main(["apply-conv", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "apply_conv.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and np.isfinite(float(rows[1].split(",")[1]))


def test_elliptic_subcommand_case2(tmp_path):
    cfg = write_cfg(tmp_path, "e.json", {
        "case": 2, "dim": 2, "order": "case2_linear",
        "h_list": [0.25, 0.125], "out": "ell.csv",
    })
    assert cli.main(["elliptic", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ell.csv").read_text().strip().splitlines()
    assert lines[0] == "h,E_inf,order"
    assert len(lines) == 3


def test_elliptic_subcommand_case1_1d(tmp_path):
    cfg = write_cfg(tmp_path, "e1.json", {
        "case": 1, "dim": 1, "order": "case1_linear",
        "h_list": [0.25, 0.125, 0.0625], "h_ref": 2.0**-8, "out": "ell.csv",
    })
    assert cli.main(["elliptic", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ell.csv").read_text().strip().splitlines()
    assert lines[0] == "h,E_inf,order"
    assert len(lines) == 4
    assert float(lines[-1].split(",")[2]) == pytest.approx(2.0, abs=0.1)


def test_evolve_subcommand_single_with_frames(tmp_path):
    cfg = write_cfg(tmp_path, "ev.json", {
        "kind": "single", "dim": 2, "box": [-1, 1], "order": "coexist_low",
        "h": 0.125, "dt": 0.05, "t_final": 0.1, "ic": "ones",
        "diffusion": 0.2, "frame_every": 1, "out": "obs.csv",
    })
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "obs.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,t,max_norm")
    assert len(lines) == 4
    frames = sorted((tmp_path / "frames").glob("frame_*.txt"))
    assert len(frames) == 3
    arr = np.loadtxt(frames[0])
    assert arr.shape == (15, 15)


def test_evolve_masked_domain(tmp_path):
    cfg = write_cfg(tmp_path, "em.json", {
        "kind": "single", "dim": 2, "box": [-1, 1], "order": "coexist_high",
        "h": 0.125, "dt": 0.02, "t_final": 0.04, "ic": "ones",
        "diffusion": 0.2, "mask": "x1**2 + x2**2 < 0.81", "out": "obs.csv",
    })
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "obs.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_evolve_richardson(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", {
        "kind": "richardson", "dim": 1, "box": [-4, 4],
        "order": "parabolic_linear", "h_list": [0.5, 0.25],
        "t_final": 0.5, "out": "rich.csv",
    })
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "rich.csv").read_text().strip().splitlines()
    assert lines[0] == "h,dt,E_inf,order"
    assert len(lines) == 3


def test_bench_apply_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "b.json", {
        "kind": "apply_sweep", "dim": 1, "order": "alpha1",
        "n_list": [255, 511], "reps": 2, "out": "bench.csv",
    })
    assert cli.main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "n,seconds_per_apply"


def test_bench_cn3d_smoke(tmp_path):
    cfg = write_cfg(tmp_path, "b3.json", {
        "kind": "cn3d", "dim": 3, "order": "bench_const16",
        "n_list": [7], "dt_list": [0.125], "out": "cn3d.csv",
    })
    assert cli.main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "cn3d.csv").read_text().strip().splitlines()
    assert rows[0] == "n_total,dt,seconds_per_step,iterations"
    assert rows[1].split(",")[0] == "343"


def test_exit_code_2_on_config_errors(tmp_path):
    assert cli.main(["apply-conv", "--config", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["apply-conv", "--config", str(bad)]) == 2
    cfg = write_cfg(tmp_path, "u.json", {"dim": 1, "h_list": [0.25],
                                         "order": "unknown_preset"})
    assert cli.main(["apply-conv", "--config", cfg]) == 2
    cfg2 = write_cfg(tmp_path, "u2.json", {"dim": 7, "h_list": [0.25],
                                           "order": "alpha1"})
    assert cli.main(["apply-conv", "--config", cfg2]) == 2
    cfg3 = write_cfg(tmp_path, "u3.json", {"dim": 1, "h_list": [0.125, 0.25],
                                           "order": "alpha1"})
    assert cli.main(["apply-conv", "--config", cfg3]) == 2


@pytest.mark.parametrize("extra", [{}, {"mode": "direct"}],
                         ids=["no-mode", "mode-direct"])
def test_1d_runs_use_the_fast_operator(tmp_path, extra):
    # every CLI operator is the library's fast one at the default rank 7, in
    # 1D too, and a leftover mode key is ignored
    def fast(n, box, order):
        grid = build_grid(1, box[0], box[1], n)
        return VariableOrderOperator(grid, order_field(order), rank=7)

    conv = experiments.run_apply_convergence(
        {"dim": 1, "h_list": [0.25, 0.125], "order": "alpha1", **extra}, tmp_path)
    for row, n in zip(conv, (31, 63)):
        op = fast(n, (-4.0, 4.0), "alpha1")
        pts = op.grid.points()
        u = GridFunction(op.grid, np.exp(-np.sum(pts**2, axis=-1)))
        exact = gaussian_frac_lap(pts, op.field.sampled, 1)
        assert row.e_inf == np.abs(op.apply(u).values - exact).max()
    ell = experiments.run_elliptic(
        {"case": 2, "dim": 1, "order": "case2_linear", "h_list": [0.25, 0.125],
         **extra}, tmp_path)
    ops = [fast(n, (-1.0, 1.0), "case2_linear") for n in (7, 15, 31)]
    sols = [solve_elliptic(EllipticProblem(
        operator=op, f=GridFunction(op.grid, np.ones(op.grid.size)))).u
        for op in ops]
    gaps = [np.abs(c.values - experiments.restrict_nested(f, c.grid)).max()
            for c, f in zip(sols, sols[1:])]
    assert [row.e_inf for row in ell] == gaps


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        experiments.run_apply_convergence({"dim": 1, "order": "alpha1",
                                           "h_list": [0.3]}, "/tmp")
    with pytest.raises(ConfigError):
        experiments.run_elliptic({"case": 3, "order": "alpha1",
                                  "h_list": [0.25]}, "/tmp")
    with pytest.raises(ConfigError):
        experiments.run_bench({"kind": "cn3d", "order": "alpha1"}, "/tmp")


# 9**9**9 would first build an integer of 370 million digits
_BAD_EXPRESSIONS = ["1/0 + x1", "2.0**2000 + 0*x1", "9**9**6 + 0*x1",
                    "9**9**9", "(-8)**0.5 + 1 + 0*x1", "max() + x1",
                    "tanh(x1, x1) + 1",
                    # a complex value compared or folded back to a real one
                    "x1 < (-8)**0.5", "abs((-8)**0.5) + x1"]


@pytest.mark.parametrize("command,cfg", [
    # ranks past lowrank.RANK_CAP = 32
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "alpha2",
                    "mode": "fast", "rank": 33}),
    ("weights", {"alpha": 3.0, "dim": 1, "n_max": 8}),
    ("apply-conv", {"dim": 2, "h_list": [0.25], "order": "alpha1", "rank": 0}),
    ("elliptic", {"case": 2, "dim": 1, "order": "case2_linear",
                  "h_list": [0.25], "max_iter": 0}),
    ("apply-conv", {"dim": 1, "h_list": [0.25], "order": "expr:2.5 + 0*x1"}),
    ("evolve", {"kind": "single", "dim": 2, "box": [-1, 1],
                "order": "coexist_high", "h": 0.125, "dt": 0.02,
                "t_final": 0.04, "ic": "ones", "mask": "x1 > 5"}),
    # 1 + r/4 reaches 1.875 on [-4, 4], above the declared [1, 1.5]
    ("apply-conv", {"dim": 1, "box": [-4, 4], "h_list": [0.5],
                    "order": "case1_linear"}),
    ("weights", {"alpha": True, "dim": 1, "n_max": 8}),
    ("weights", {"alpha": 1.5, "dim": "abc"}),
    ("weights", {"alpha": 1.5, "dim": 1, "n_max": 2.7}),
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "alpha2",
                    "mode": "fast", "rank": 100000000}),
    ("evolve", {"kind": "richardson", "dim": 1, "order": "case2_tanh",
                "h_list": [0.25], "dt_list": ["x"]}),
    ("evolve", {"kind": "richardson", "dim": 1, "order": "case2_tanh",
                "h_list": [0.25], "dt_list": [True], "t_final": 1.0}),
    ("bench", {"kind": "cn3d", "order": "bench_const16", "n_list": ["a"]}),
    ("bench", {"kind": "apply_sweep", "order": "alpha1", "n_list": [7.5]}),
    ("apply-conv", {"dim": 1, "h_list": [0.25], "order": "alpha1",
                    "box": [1, -1]}),
    ("elliptic", {"case": 1, "dim": 1, "order": "case1_linear",
                  "h_list": [0.25], "h_ref": 0.0625, "beta": 1.0}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 0}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": -5}),
    ("weights", {"alpha": 1.5, "dim": 3, "n_max": -5}),
    # no timing is the best of zero repetitions
    ("bench", {"kind": "apply_sweep", "dim": 1, "order": "alpha2",
               "n_list": [15, 31], "reps": 0}),
    ("bench", {"kind": "apply_sweep", "dim": 1, "order": "alpha2",
               "n_list": [15, 31], "reps": -1}),
    # past the 2**24-node cap: refused before any array is allocated
    ("apply-conv", {"dim": 1, "h_list": [1e-300], "order": "alpha1"}),
    ("apply-conv", {"dim": 1, "h_list": [1e-7], "order": "alpha1"}),
    ("weights", {"alpha": 1.5, "dim": 1, "n_max": 100000000}),
    # the case-1 reference operator is built like every other one
    ("elliptic", {"case": 1, "dim": 1, "order": "case1_linear",
                  "h_list": [0.25], "h_ref": 0.0625, "rank": 33}),
    # t_final / dt overflows the step count
    ("evolve", {"dim": 1, "order": "const:1.5", "h": 0.25, "dt": 1e-308,
                "t_final": 1e308}),
    # a finite step count past the 2**20-step cap
    ("evolve", {"dim": 1, "order": "const:1.5", "h": 0.25, "dt": 1e-300,
                "t_final": 1.0}),
    # rank is checked in 1D too
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "alpha2",
                    "rank": 100000000}),
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "alpha2", "rank": 0}),
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "expr:1/0 + x1"}),
    # a negative diffusion grows the max norm 1 -> 5.2e5 in two steps
    ("evolve", {"kind": "single", "dim": 1, "order": "const:1.5", "h": 0.5,
                "dt": 0.5, "t_final": 1.0, "diffusion": -1}),
    # a zero step is refused, not divided by
    ("evolve", {"kind": "single", "dim": 1, "order": "const:1.5", "h": 0}),
    ("elliptic", {"case": 1, "dim": 1, "order": "case1_linear",
                  "h_list": [0.25], "h_ref": 0}),
    # expressions that divide by zero, overflow, take complex values or
    # call a function with the wrong arguments, as an order and as a mask
    *[case for expr in _BAD_EXPRESSIONS for case in (
        ("apply-conv", {"dim": 1, "h_list": [0.5], "order": f"expr:{expr}"}),
        ("evolve", {"kind": "single", "dim": 2, "box": [-1, 1],
                    "order": "coexist_high", "h": 0.5, "t_final": 0.5,
                    "mask": expr}))],
    # a t_final that is not a whole number of steps: the runs would end at
    # t = 0.6, 0.45 and 0.525
    ("evolve", {"kind": "richardson", "dim": 1, "order": "const:1.5",
                "h_list": [0.5, 0.25], "dt_list": [0.3, 0.15], "t_final": 0.5}),
    # the Crank-Nicolson benchmark step refuses a phase-field stepper
    ("bench", {"kind": "cn3d", "order": "bench_const16", "n_list": [7],
               "scheme": "allen_cahn", "kappa": 0.05}),
])
def test_exit_code_2_on_library_value_errors(tmp_path, command, cfg, capsys):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


_SMALL_RUNS = [
    ("weights", {"alpha": 1.5, "dim": 1, "n_max": 8}),
    ("apply-conv", {"dim": 1, "h_list": [0.5], "order": "alpha1"}),
    ("elliptic", {"case": 2, "dim": 1, "order": "case2_linear",
                  "h_list": [0.25]}),
    ("evolve", {"kind": "single", "dim": 1, "box": [-1, 1],
                "order": "const:1.5", "h": 0.5, "dt": 0.5, "t_final": 0.5}),
    ("bench", {"kind": "cn3d", "order": "bench_const16", "n_list": [3],
               "dt_list": [0.25]}),
]


@pytest.mark.parametrize("command,cfg", _SMALL_RUNS,
                         ids=[c for c, _ in _SMALL_RUNS])
def test_out_naming_a_file_refused(tmp_path, command, cfg, capsys):
    # every subcommand makes its output directory; a file in the way is a
    # one-line config error, and the file is left as it was
    path = write_cfg(tmp_path, "run.json", cfg)
    assert cli.main([command, "--config", path, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert json.loads(Path(path).read_text()) == cfg


@pytest.mark.parametrize("out", ["../up.csv", "sub/x.csv", "..", ".", "ABS"],
                         ids=["dotdot", "subdir", "parent", "here", "absolute"])
def test_config_out_stays_under_out_dir(tmp_path, out, capsys):
    # the config's out is a bare file name: a relative or absolute path
    # would write outside --out
    target = str(tmp_path / "escaped.csv") if out == "ABS" else out
    path = write_cfg(tmp_path, "w.json", {"alpha": 1.5, "dim": 1, "n_max": 8,
                                          "out": target})
    run_dir = tmp_path / "results"
    assert cli.main(["weights", "--config", path, "--out", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_refused(tmp_path, threads, capsys):
    path = write_cfg(tmp_path, "w.json", {"alpha": 1.5, "dim": 1, "n_max": 8})
    code = cli.main(["weights", "--config", path, "--out", str(tmp_path),
                     "--threads", threads])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "weights.csv").exists()


@pytest.mark.parametrize("command,cfg", [
    ("elliptic", {"case": 2, "dim": 2, "order": "case2_linear",
                  "h_list": [0.25, 0.125], "max_iter": 1}),
    ("evolve", {"kind": "single", "dim": 1, "box": [-1, 1],
                "order": "case2_tanh", "h": 0.125, "dt": 0.05,
                "t_final": 0.1, "max_iter": 1}),
])
def test_exit_code_3_on_solver_failure(tmp_path, command, cfg, capsys):
    # one BiCGSTAB sweep cannot reach the acceptance residual
    path = write_cfg(tmp_path, "short.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_orders_skip_zero_errors():
    # a Richardson run on a one-node grid can measure an error of exactly 0
    assert experiments._orders([0.0, 0.1, 0.025, 0.0]) == [None, None, 2.0, None]


def test_node_cap(tmp_path, capsys):
    assert experiments._check_nodes(4096, 2) == 4096         # 2**24 nodes
    assert experiments._check_nodes(256, 3) == 256
    for n, dim in ((4097, 2), (257, 3), (2**24 + 1, 1)):
        with pytest.raises(ConfigError, match="exceed"):
            experiments._check_nodes(n, dim)
    # the weights runner refuses before it allocates the block
    path = write_cfg(tmp_path, "big.json", {"alpha": 1.5, "n_max": 10**8})
    tracemalloc.start()
    try:
        code = cli.main(["weights", "--config", path, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--quadrature", "256"), ("--mode", "fast"), ("--rank", "40"),
], ids=["--quadrature", "--mode", "--rank"])
def test_quadrature_flag_refused(tmp_path, flag, value):
    # the config holds every run setting: no subcommand takes a flag that
    # shapes an operator, and each refuses one before it reads the config
    cfg = write_cfg(tmp_path, "w.json", {"alpha": 1.5, "dim": 2, "n_max": 8})
    for command in ("weights", "apply-conv", "elliptic", "evolve", "bench"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, flag, value])
        assert exc.value.code == 2, command


@pytest.mark.parametrize("cfg", [
    {"kind": "nope"},
    {"kind": "single", "h": None, "frame_every": 1},
    {"kind": "single", "frame_every": -1},
    {"kind": "single", "frame_every": True},
    {"kind": "single", "dt": -0.5, "frame_every": 1},
    {"kind": "single", "out": "", "frame_every": 1},
    {"kind": "single", "h": 0.3, "frame_every": 1},
], ids=["kind", "no-h", "frame_every-negative", "frame_every-bool",
        "dt-negative", "out-empty", "h-off-box"])
def test_evolve_refuses_before_writing(tmp_path, cfg, capsys):
    path = write_cfg(tmp_path, "bad.json", {"dim": 1, "box": [-1, 1],
                                            "order": "const:1.5", "h": 0.5,
                                            "t_final": 1.0, **cfg})
    out = tmp_path / "run"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("tol", "abc"), ("tol", True), ("max_iter", "abc"), ("max_iter", 2.5),
    ("h_list", [True]),
])
@pytest.mark.parametrize("command", ["elliptic", "evolve"])
def test_exit_code_2_on_bad_numbers(tmp_path, command, key, value, capsys):
    cfg = {"dim": 1, "order": "case2_tanh", "h_list": [0.25], key: value}
    cfg.update({"case": 2} if command == "elliptic" else {"kind": "richardson"})
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


_SINGLE_EVOLVE = {"kind": "single", "dim": 2, "box": [-1, 1],
                  "order": "coexist_high", "h": 0.125, "dt": 0.02,
                  "t_final": 0.04, "ic": "ones"}
_CASE2_2D = {"case": 2, "dim": 2, "order": "case2_linear", "h_list": [0.25]}


@pytest.mark.parametrize("command,cfg", [
    ("apply-conv", {"dim": True, "h_list": [0.25], "order": "alpha1"}),
    ("apply-conv", {"dim": 1, "h_list": [0.25], "order": 5}),
    ("evolve", {**_SINGLE_EVOLVE, "mask": 5}),
    ("elliptic", {**_CASE2_2D, "rank": "7"}),
    ("evolve", {**_SINGLE_EVOLVE, "out": 5}),
    ("elliptic", {**_CASE2_2D, "rank": True}),
    # only an absent or null key takes the default
    ("evolve", {**_SINGLE_EVOLVE, "kind": ""}),
    ("evolve", {**_SINGLE_EVOLVE, "ic": 0}),
    ("elliptic", {**_CASE2_2D, "tol": False}),
    ("evolve", {**_SINGLE_EVOLVE, "scheme": []}),
    ("evolve", {**_SINGLE_EVOLVE, "mask": ""}),
    ("evolve", {**_SINGLE_EVOLVE, "mask": 0}),
    ("evolve", {**_SINGLE_EVOLVE, "frame_every": False}),
], ids=["dim-bool", "order-int", "mask-int", "rank-str", "out-int",
        "rank-bool", "kind-empty", "ic-zero", "tol-false", "scheme-list",
        "mask-empty", "mask-zero", "frame_every-false"])
def test_exit_code_2_on_config_types(tmp_path, command, cfg, capsys):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# values of the wrong type or range, mixed into every key of the fuzz configs
_WRONG = [None, True, "x", "1", [], {}, [1], 1.5, -1, 0, float("inf")]


def _key(valid, weight):
    """Mostly one of ``valid`` (each ``weight`` times as likely), else wrong."""
    return st.sampled_from(valid * weight + _WRONG)


_CONV_CONFIGS = st.fixed_dictionaries({
    "dim": _key([1, 2, 3], 6),
    # coarse steps only: the largest grid is N = 15 in 3D
    "h_list": st.one_of(st.lists(_key([2.0, 1.0, 0.5], 10), min_size=1,
                                 max_size=3),
                        st.sampled_from(_WRONG)),
    "order": _key(["alpha1", "alpha2", "alpha3", "case2_tanh",
                   "expr:1 + 0*x1", "expr:x1", "nope", "expr:"], 2),
}, optional={
    "box": _key([[-4, 4], [-2, 2], [0, 1], [1, -1], [0, 0],
                 [-1e308, 1e308]], 2),
    "mode": _key(["fast", "direct", "slow"], 4),
    "rank": _key([1, 3, 7, 0, -2, 40], 2),
})


def _exits_cleanly(command: str, cfg: dict) -> None:
    """Run one fuzz config: it runs, stops on a solver failure or is refused
    with a one-line message, and never prints a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), "fuzz.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", path, "--out", tmp])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error:")


@given(cfg=_CONV_CONFIGS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_apply_conv_fuzz_exits_cleanly(cfg):
    _exits_cleanly("apply-conv", cfg)


def _often(valid):
    """One of ``valid`` about nine times in ten, else a wrong value."""
    return _key(valid, 100 // len(valid))


# tiny grids only: box [-1, 1] or [0, 1] with h >= 0.25 gives N <= 7, and a
# Richardson h_list of 1.0 and 0.5 adds a finest run at 0.25.  dt and t_final
# come from small sets, so every step count stays small; t_final / dt
# overflow is a case of test_exit_code_2_on_library_value_errors.
_EVOLVE_CONFIGS = st.fixed_dictionaries({
    "kind": _often(["single", "richardson"]),
    "dim": _often([1, 2, 3]),
    "box": _often([[-1, 1], [0, 1]]),
    "order": _often(["parabolic_linear", "coexist_low", "case2_tanh",
                     "const:1.5", "expr:x1"]),
    "h": _often([0.5, 0.25]),
    "h_list": _often([[1.0], [0.5], [1.0, 0.5]]),
}, optional={
    "scheme": _often(["crank_nicolson", "allen_cahn"]),
    "dt": _often([0.25, 0.5]),
    "dt_list": _often([[0.25], [0.5], [0.5, 0.25]]),
    "t_final": _often([0.5, 1.0]),
    "ic": _often(["gaussian", "ones", "bubbles", "cos_modes"]),
    "kappa": _often([0.05, 0.2]),
    "diffusion": _often([0.5, 1.0]),
    "mask": _often(["x1 > 0", "x1**2 < 0.5", "x1 > 5", "x1 >"]),
    "mode": _often(["fast", "direct"]),
    "rank": _often([1, 3]),
    "max_iter": _often([50, 5]),
    "frame_every": _often([1, 2]),
})


@given(cfg=_EVOLVE_CONFIGS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_evolve_fuzz_exits_cleanly(cfg):
    _exits_cleanly("evolve", cfg)


# offsets to n_max <= 16 only
_WEIGHTS_CONFIGS = st.fixed_dictionaries({
    "alpha": _often([0.3, 1.0, 1.5, 2.0, 2.5]),
    "dim": _often([1, 2, 3]),
    "n_max": _often([1, 2, 4, 8, 16]),
}, optional={"out": _often(["w.csv", "sub/w.csv"])})


@given(cfg=_WEIGHTS_CONFIGS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_weights_fuzz_exits_cleanly(cfg):
    _exits_cleanly("weights", cfg)


# tiny grids only: h_list from 1.0 and 0.5 on [-1, 1] or [0, 1], plus the
# case-2 finest run at 0.25, gives N <= 7; h_ref is always set, since its
# default 2**-9 would build a 1023-node axis, and null takes that default
_ELLIPTIC_CONFIGS = st.fixed_dictionaries({
    "case": _often([1, 2]),
    "dim": _often([1, 2, 3]),
    "box": _often([[-1, 1], [0, 1]]),
    "order": _often(["case1_linear", "case2_linear", "case2_tanh",
                     "const:1.5", "expr:x1"]),
    "h_list": _often([[1.0], [0.5], [1.0, 0.5]]),
    "h_ref": st.sampled_from([0.25] * 60
                             + [v for v in _WRONG if v is not None]),
}, optional={
    "beta": _often([2.0, 4.0]),
    "reaction": _often([0.0, 1.0]),
    "tol": _often([1e-10, 1e-6]),
    "max_iter": _often([50, 2]),
    "mode": _often(["fast", "direct"]),
    "rank": _often([1, 3]),
})


@given(cfg=_ELLIPTIC_CONFIGS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_elliptic_fuzz_exits_cleanly(cfg):
    _exits_cleanly("elliptic", cfg)


# n_list sets every grid: N <= 7 per axis
_BENCH_CONFIGS = st.fixed_dictionaries({
    "kind": _often(["cn3d", "apply_sweep"]),
    "order": _often(["bench_const16", "bench_tanh", "alpha1", "const:1.5"]),
    "n_list": _often([[3], [7], [3, 7], [7, 3]]),
}, optional={
    "dim": _often([1, 2, 3]),
    "dt_list": _often([[0.25], [0.25, 0.125]]),
    "reps": _often([1, 2]),
    "mode": _often(["fast", "direct"]),
    "rank": _often([1, 3]),
    "max_iter": _often([50, 2]),
})


@given(cfg=_BENCH_CONFIGS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_bench_fuzz_exits_cleanly(cfg):
    _exits_cleanly("bench", cfg)

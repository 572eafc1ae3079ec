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

from varlap import OrderField, VariableOrderOperator, build_grid, cli, experiments
from varlap.errors import ConfigError
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
        assert np.abs(block - plain.block_nonneg(n)).max() > 1e-9


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
           "quadrature": 256, "out": "conv.csv"}
    p1 = tmp_path / "run1"
    p2 = tmp_path / "run2"
    experiments.run_apply_convergence(cfg, p1)
    experiments.run_apply_convergence(cfg, p2)
    assert (p1 / "conv.csv").read_bytes() == (p2 / "conv.csv").read_bytes()


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


def test_mode_override_flag(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {
        "dim": 1, "h_list": [0.25], "order": "alpha1", "out": "c.csv"})
    assert cli.main(["apply-conv", "--config", cfg, "--out", str(tmp_path),
                     "--mode", "fast", "--rank", "5"]) == 0


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        experiments.run_apply_convergence({"dim": 1, "order": "alpha1",
                                           "h_list": [0.3]}, "/tmp")
    with pytest.raises(ConfigError):
        experiments.run_elliptic({"case": 3, "order": "alpha1",
                                  "h_list": [0.25]}, "/tmp")
    with pytest.raises(ConfigError):
        experiments.run_bench({"kind": "cn3d", "order": "alpha1"}, "/tmp")


@pytest.mark.parametrize("command,cfg", [
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 8, "quadrature": 100}),
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
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 8, "quadrature": "x"}),
    ("evolve", {"kind": "richardson", "dim": 1, "order": "case2_tanh",
                "h_list": [0.25], "dt_list": ["x"]}),
    ("evolve", {"kind": "richardson", "dim": 1, "order": "case2_tanh",
                "h_list": [0.25], "dt_list": [True], "t_final": 1.0}),
    ("bench", {"kind": "cn3d", "order": "bench_const16", "n_list": ["a"]}),
    ("bench", {"kind": "apply_sweep", "order": "alpha1", "n_list": [7.5]}),
    ("apply-conv", {"dim": 1, "h_list": [0.25], "order": "alpha1",
                    "mode": "fastest"}),
    ("elliptic", {"case": 1, "dim": 1, "order": "case1_linear",
                  "h_list": [0.25], "h_ref": 0.0625, "beta": 1.0}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 0}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": -5}),
    ("weights", {"alpha": 1.5, "dim": 3, "n_max": -5}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 8, "quadrature": 0}),
    ("weights", {"alpha": 1.5, "dim": 2, "n_max": 8, "quadrature": False}),
    # past the 2**24-node cap: refused before any array is allocated
    ("apply-conv", {"dim": 1, "h_list": [1e-300], "order": "alpha1"}),
    ("apply-conv", {"dim": 1, "h_list": [1e-7], "order": "alpha1"}),
    ("weights", {"alpha": 1.5, "dim": 1, "n_max": 100000000}),
])
def test_exit_code_2_on_library_value_errors(tmp_path, command, cfg, capsys):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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
    ("elliptic", {**_CASE2_2D, "epsilon": "x"}),
    ("evolve", {**_SINGLE_EVOLVE, "out": 5}),
    ("elliptic", {**_CASE2_2D, "rank": True}),
], ids=["dim-bool", "order-int", "mask-int", "rank-str", "epsilon-str",
        "out-int", "rank-bool"])
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


@given(cfg=_CONV_CONFIGS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_apply_conv_fuzz_exits_cleanly(cfg):
    # every config either runs or is refused with a one-line message
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), "fuzz.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["apply-conv", "--config", path, "--out", tmp])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error:")

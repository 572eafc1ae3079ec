import json

import numpy as np
import pytest

from varlap import cli, experiments
from varlap.errors import ConfigError


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
])
def test_exit_code_2_on_library_value_errors(tmp_path, command, cfg, capsys):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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

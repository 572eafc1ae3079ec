"""Each kind of argument has one rule: counts, dimensions and sizes are
non-bool integers in range, never truncated, and a grid function is checked
against the operator's grid by the operator's one grid check."""

import numpy as np
import pytest

import varlap as vl
from varlap.errors import InvalidDim, InvalidRange, OrderOutOfRange, QuadratureTooCoarse


def gaussian(p):
    return np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=-1))


def _fast_op(n=7):
    g = vl.build_grid(1, -1.0, 1.0, n)
    return vl.VariableOrderOperator(g, vl.OrderField.constant(1.5), rank=2)


# (entry point called with the argument, documented error, name in the
# message, a valid value, an out-of-range integer)
_INTEGER_ARGUMENTS = {
    "build_grid.dim": (lambda v: vl.build_grid(v, 0.0, 1.0, 7),
                       InvalidDim, "dim", 2, 4),
    "build_grid.n_per_dim": (lambda v: vl.build_grid(2, 0.0, 1.0, (7, v)),
                             InvalidDim, "n_per_dim", 7, 0),
    "weights_nd_fft.dim": (lambda v: vl.weights_nd_fft(1.5, v, 64),
                           InvalidDim, "dim", 2, 0),
    "weights_nd_fft.m": (lambda v: vl.weights_nd_fft(1.5, 1, v),
                         QuadratureTooCoarse, "m", 64, 2),
    "weights_nd_fft.target_n": (lambda v: vl.weights_nd_fft(1.5, 1, 64, target_n=v),
                                InvalidDim, "target_n", 8, -1),
    "operator_block.dim": (lambda v: vl.operator_block(1.5, v, 7),
                           InvalidDim, "dim", 2, 4),
    "operator_block.n_max": (lambda v: vl.operator_block(1.5, 1, v),
                             InvalidDim, "n_max", 7, 0),
    "signed_block.kmax": (lambda v: vl.signed_block(np.ones((4, 4)), v),
                          InvalidDim, "kmax", 2, -1),
    "check_decay.n_max": (lambda v: vl.check_decay(1.5, v),
                          InvalidDim, "n_max", 16, 15),
    "default_quadrature_size.dim": (lambda v: vl.default_quadrature_size(v, 7),
                                    InvalidDim, "dim", 3, 1),
    "default_quadrature_size.n_target": (
        lambda v: vl.default_quadrature_size(2, v), InvalidDim, "n_target", 7, 0),
    "gaussian_frac_lap.d": (lambda v: vl.gaussian_frac_lap(np.zeros((2, 2)), 1.0, v),
                            InvalidDim, "d", 2, 4),
    "integral_frac_lap.d": (lambda v: vl.integral_frac_lap(gaussian, 0.0, 1.0, v),
                            InvalidDim, "d", 1, 0),
    "estimate_rank.dim": (lambda v: vl.estimate_rank(0.5, 1.5, 0.1, 1e-3, dim=v),
                          InvalidDim, "dim", 2, 4),
    "build_plan.r": (lambda v: vl.build_plan(0.5, 1.5, v),
                     InvalidRange, "rank", 3, 33),
    "VariableOrderOperator.rank": (
        lambda v: vl.VariableOrderOperator(vl.build_grid(1, 0.0, 1.0, 7),
                                           vl.OrderField.constant(1.5), rank=v),
        InvalidRange, "rank", 2, 0),
    "KrylovConfig.max_iter": (lambda v: vl.KrylovConfig(max_iter=v),
                              InvalidRange, "max_iter", 10, 0),
    "operator_timing.n_reps": (lambda v: vl.operator_timing(_fast_op(), n_reps=v),
                               InvalidRange, "reps", 2, 0),
}


@pytest.mark.parametrize("entry", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_have_one_rule(entry):
    # non-integer counts are refused, not truncated, and a bool is refused,
    # not read as 1; numpy integers stay accepted
    call, error, name, valid, out_of_range = _INTEGER_ARGUMENTS[entry]
    for value in (2.0, 2.5, True, "2", out_of_range):
        with pytest.raises(error, match=rf"\b{name} must be an integer"):
            call(value)
    call(np.int64(valid))


@pytest.mark.parametrize("call", [
    lambda: vl.weights_nd_fft(True, 1, 64),
    lambda: vl.check_decay(True, 40),
    lambda: vl.operator_block("1.5", 1, 7),
    lambda: vl.estimate_rank(0.5, 1.5, 0.1, epsilon=True),
], ids=["weights_nd_fft", "check_decay", "operator_block", "estimate_rank"])
def test_real_arguments_refuse_bools_and_strings(call):
    with pytest.raises((OrderOutOfRange, InvalidRange)):
        call()


@pytest.mark.parametrize("name", ["u", "mask", "f", "b", "u_prev", "u_nm1", "u_n",
                                  "u0"])
def test_grid_mismatch_names_the_argument(name):
    g = vl.build_grid(2, -1.0, 1.0, 7)
    other = vl.build_grid(2, -1.0, 1.0, 3)
    op = vl.VariableOrderOperator(g, vl.OrderField.constant(1.5), rank=2)
    on = {n: vl.GridFunction.zeros(other if n == name else g)
          for n in ("u", "f", "b", "u_prev", "u_nm1", "u_n", "u0")}
    cn = vl.TimeStepper(dt=0.1, t_final=0.1)
    ac = vl.TimeStepper(scheme="allen_cahn", dt=0.1, t_final=0.1)
    calls = {
        "u": lambda: op.apply(on["u"]),
        "mask": lambda: vl.VariableOrderOperator(
            g, vl.OrderField.constant(1.5),
            mask=vl.make_mask(other, lambda p: np.ones(len(p), dtype=bool))),
        "f": lambda: vl.EllipticProblem(op, on["f"], on["b"]),
        "b": lambda: vl.EllipticProblem(op, on["f"], on["b"]),
        "u_prev": lambda: vl.step_crank_nicolson(on["u_prev"], cn, op),
        "u_nm1": lambda: vl.step_allen_cahn_three_level(on["u_nm1"], on["u_n"], ac, op),
        "u_n": lambda: vl.step_allen_cahn_three_level(on["u_nm1"], on["u_n"], ac, op),
        "u0": lambda: vl.evolve(cn, op, on["u0"]),
    }
    with pytest.raises(vl.GridMismatch, match=rf"^{name} grid \(3, 3\) does not match "
                                              r"operator grid \(7, 7\)"):
        calls[name]()

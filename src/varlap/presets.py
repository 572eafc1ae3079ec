"""Named order fields, initial conditions, and a small expression grammar.

Every variable-order profile used by the experiment tables is available under
a stable name, and arbitrary profiles can be given as expression strings over
``x1, x2, x3, r`` (r = |x|) with ``tanh``, ``abs``, ``max``/``min``, ``sqrt``,
``exp`` and the indicator ``chi(condition)``.  The same grammar (with bare
boolean comparisons) describes embedding masks.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import OrderField

__all__ = [
    "order_field",
    "order_preset_names",
    "parse_order_expression",
    "parse_predicate",
    "initial_condition",
]


def _radial(pts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(pts**2, axis=-1))


def _field(fn, lo, hi) -> OrderField:
    return OrderField.from_callable(fn, lo, hi)


def _positive_orthant(pts: np.ndarray) -> np.ndarray:
    return np.all(pts > 0.0, axis=-1)


_PRESETS: dict[str, Callable[[], OrderField]] = {
    # Gaussian approximation benchmarks
    "alpha1": lambda: _field(lambda p: 1.0 - 0.9 * np.tanh(_radial(p)), 0.05, 1.0),
    "alpha2": lambda: _field(lambda p: 1.0 + 0.9 * np.tanh(_radial(p)), 1.0, 1.95),
    "alpha3": lambda: _field(
        lambda p: np.where(_positive_orthant(p), 0.4, 1.2), 0.4, 1.2),
    # elliptic benchmarks on [-1,1]^2, manufactured solution
    "case1_linear": lambda: _field(lambda p: 1.0 + _radial(p) / 4.0, 1.0, 1.5),
    "case1_tanh": lambda: _field(lambda p: 1.0 - 0.5 * np.tanh(_radial(p)), 0.5, 1.0),
    "case1_piecewise": lambda: _field(
        lambda p: np.where(p[..., 0] > 0.0, 1.2, 0.4), 0.4, 1.2),
    # elliptic benchmarks with unknown solution (f = 1)
    "case2_linear": lambda: _field(lambda p: 1.0 + _radial(p) / 2.0, 1.0, 2.0),
    "case2_tanh": lambda: _field(lambda p: 1.0 - 0.5 * np.tanh(_radial(p)), 0.5, 1.0),
    "case2_square": lambda: _field(
        lambda p: np.where(np.max(np.abs(p), axis=-1) <= 0.8, 1.6, 2.0), 1.6, 2.0),
    # boundary-order-2 recovery profiles, g = max_p |x_p|
    "corner08": lambda: _field(
        lambda p: 0.8 + 1.2 * np.max(np.abs(p), axis=-1), 0.8, 2.0),
    "corner12": lambda: _field(
        lambda p: 1.2 + 0.8 * np.max(np.abs(p), axis=-1), 1.2, 2.0),
    "corner16": lambda: _field(
        lambda p: 1.6 + 0.4 * np.max(np.abs(p), axis=-1), 1.6, 2.0),
    "const2": lambda: OrderField.constant(2.0),
    # time-dependent benchmarks
    "parabolic_linear": lambda: _field(lambda p: 1.0 + _radial(p) / 10.0, 1.0, 1.6),
    "parabolic_tanh": lambda: _field(lambda p: 1.0 - 0.5 * np.tanh(_radial(p)), 0.5, 1.0),
    # phase-field profiles on [0,1]^2
    "phase_left": lambda: _field(
        lambda p: 1.5 - 0.2 * np.tanh(_radial(p)), 1.3, 1.5),
    "phase_middle": lambda: _field(lambda p: 1.8 + _radial(p) / 8.0, 1.8, 2.0),
    "phase_right": lambda: _field(
        lambda p: 1.5 + 0.2 * np.tanh(10.0 * (p[..., 0] - 0.5))
        + 0.2 * np.tanh(10.0 * (p[..., 1] - 0.5)), 1.1, 1.9),
    # anomalous-diffusion coexistence profiles
    "coexist_high": lambda: _field(lambda p: 1.5 + _radial(p) / 4.0, 1.5, 2.0),
    "coexist_low": lambda: _field(lambda p: 0.6 + _radial(p) / 2.0, 0.6, 1.4),
    "coexist_split": lambda: _field(
        lambda p: 1.7 + 0.3 * np.tanh(10.0 * p[..., 0]), 1.4, 2.0),
    # 3D single-step benchmarks
    "bench_tanh": lambda: _field(lambda p: 1.0 - 0.5 * np.tanh(_radial(p)), 0.5, 1.0),
    "bench_lin1": lambda: _field(lambda p: 1.0 + _radial(p) / 4.0, 1.0, 1.5),
    "bench_lin15": lambda: _field(lambda p: 1.5 + _radial(p) / 4.0, 1.5, 2.0),
    "bench_const16": lambda: OrderField.constant(1.6),
}

# dimension-suffixed aliases mirroring the benchmark table names
for _name in ("alpha1", "alpha2", "alpha3"):
    for _d in (1, 2, 3):
        _PRESETS[f"{_name}_{_d}d"] = _PRESETS[_name]
_PRESETS["alpha3_piecewise_1d"] = _PRESETS["alpha3"]


def order_preset_names() -> list[str]:
    return sorted(_PRESETS)


def order_field(spec: str) -> OrderField:
    """Resolve a preset name, ``const:<value>``, or ``expr:<expression>``."""
    if not isinstance(spec, str):
        raise ConfigError(f"order field spec must be a string, got {spec!r}")
    if spec in _PRESETS:
        return _PRESETS[spec]()
    if spec.startswith("const:"):
        try:
            return OrderField.constant(float(spec[6:]))
        except ValueError as exc:
            raise ConfigError(f"bad constant order {spec!r}") from exc
    if spec.startswith("expr:"):
        return parse_order_expression(spec[5:])
    raise ConfigError(
        f"unknown order field {spec!r}; presets: {', '.join(order_preset_names())}"
    )


# -- expression grammar ------------------------------------------------------

_ALLOWED_CALLS = {
    "tanh": np.tanh,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "max": lambda *a: _fold(np.maximum, a),
    "min": lambda *a: _fold(np.minimum, a),
    "chi": lambda c: np.where(c, 1.0, 0.0),
}

_ALLOWED_NAMES = {"x1", "x2", "x3", "r", "pi"}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Compare, ast.BoolOp, ast.And, ast.Or,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _fold(op, args):
    out = args[0]
    for a in args[1:]:
        out = op(out, a)
    return out


def _validate(tree: ast.AST, src: str) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(
                f"disallowed syntax {type(node).__name__!r} in expression {src!r}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ConfigError(f"disallowed function in expression {src!r}")
            # a second positional argument of a ufunc is its output array
            if node.keywords or not node.args or (
                    len(node.args) > 1 and node.func.id not in ("max", "min")):
                raise ConfigError(f"bad arguments to {node.func.id} in {src!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES \
                and node.id not in _ALLOWED_CALLS:
            raise ConfigError(f"unknown name {node.id!r} in expression {src!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric constant in expression {src!r}")
        if isinstance(node, ast.BoolOp):
            raise ConfigError("combine conditions with chi(...) products instead")


class _RealPowers(ast.NodeTransformer):
    """Rewrites ``a ** b`` as ``_pow(a, b)``.  A power is the one operation
    that turns real values complex (Python's ``(-8.0) ** 0.5``), and a complex
    value must not pass on, not even into a comparison, which numpy orders
    by the real part first."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.copy_location(
            ast.Call(func=ast.Name("_pow", ast.Load()),
                     args=[node.left, node.right], keywords=[]), node)


def _compile_expression(src: str, dtype=float
                        ) -> Callable[[np.ndarray], np.ndarray]:
    if not isinstance(src, str):
        raise ConfigError(f"expression must be a string, got {src!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from exc
    _validate(tree, src)
    # float constants: 9**9**9 overflows at once instead of building a
    # 370-million-digit integer
    try:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
    except OverflowError as exc:
        raise ConfigError(f"constant too large in expression {src!r}") from exc
    code = compile(ast.fix_missing_locations(_RealPowers().visit(tree)),
                   "<expression>", "eval")

    def real_pow(base, exponent):
        out = base ** exponent
        if np.iscomplexobj(out):
            raise ConfigError(f"expression {src!r} takes complex values")
        return out

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        env = {"x1": pts[..., 0], "r": _radial(pts), "pi": math.pi}
        if pts.shape[-1] > 1:
            env["x2"] = pts[..., 1]
        if pts.shape[-1] > 2:
            env["x3"] = pts[..., 2]
        try:
            out = eval(code, {"__builtins__": {}},
                       {**_ALLOWED_CALLS, **env, "_pow": real_pow})
        except ArithmeticError as exc:
            raise ConfigError(f"expression {src!r} overflows or divides by zero"
                              ) from exc
        return np.broadcast_to(np.asarray(out).astype(dtype), pts.shape[:-1]).copy()

    return fn


def parse_order_expression(src: str, alpha_min: float = 1e-3,
                           alpha_max: float = 2.0) -> OrderField:
    """Order field from an expression string; bounds tighten on sampling."""
    return OrderField.from_callable(_compile_expression(src), alpha_min, alpha_max)


def parse_predicate(src: str) -> Callable[[np.ndarray], np.ndarray]:
    """Boolean mask predicate from an expression like ``x1**2 + x2**2 < 0.25``."""
    return _compile_expression(src, bool)


# -- initial conditions -------------------------------------------------------

def _gaussian(pts: np.ndarray) -> np.ndarray:
    return np.exp(-np.sum(pts**2, axis=-1))


def _kissing_bubbles(kappa: float, radius: float = 0.0975
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Two nearly touching phase bubbles in a -1 background.

    The signed distances to the bubble interfaces drive the tanh profiles, so
    the phase is +1 inside each disk and -1 outside; the default radius keeps
    the disks a few interface widths apart, giving two separate {u > 0}
    components initially.
    """
    centers = np.array([[0.42, 0.42], [0.58, 0.58]])

    def fn(pts: np.ndarray) -> np.ndarray:
        if pts.shape[-1] != 2:
            raise ConfigError("the bubbles initial condition is 2D only")
        d1 = np.linalg.norm(pts - centers[0], axis=-1) - radius
        d2 = np.linalg.norm(pts - centers[1], axis=-1) - radius
        return 1.0 - np.tanh(d1 / (2.0 * kappa)) - np.tanh(d2 / (2.0 * kappa))

    return fn


def _cos_squared_modes(pts: np.ndarray) -> np.ndarray:
    freqs = (3.0, 11.0, 2.0)
    out = np.ones(pts.shape[:-1])
    for p in range(pts.shape[-1]):
        out = out * 0.25 * (1.0 + np.cos(2.0 * np.pi * freqs[p] * pts[..., p]
                                         - np.pi)) ** 2
    return out


def initial_condition(name: str, kappa: float = 0.01
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """Initial-data presets: gaussian, ones, bubbles, cos_modes."""
    if name == "gaussian":
        return _gaussian
    if name == "ones":
        return lambda pts: np.ones(np.atleast_2d(pts).shape[0])
    if name == "bubbles":
        return _kissing_bubbles(kappa)
    if name == "cos_modes":
        return _cos_squared_modes
    raise ConfigError(f"unknown initial condition {name!r}")

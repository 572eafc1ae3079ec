import numpy as np
import pytest

import varlap as vl
from varlap.errors import ConfigError
from varlap.presets import (
    initial_condition,
    order_field,
    order_preset_names,
    parse_order_expression,
    parse_predicate,
)


def test_all_presets_sample_within_bounds():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    for name in order_preset_names():
        field = vl.sample_order(order_field(name), g)
        assert 0.0 < field.alpha_min <= field.alpha_max <= 2.0, name


def test_const_spec():
    f = order_field("const:1.7")
    assert f.is_constant and f.alpha_min == 1.7
    with pytest.raises(ConfigError):
        order_field("const:zzz")


def test_unknown_preset():
    with pytest.raises(ConfigError):
        order_field("no_such_field")


def test_expression_matches_preset():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    a = vl.sample_order(order_field("case1_linear"), g)
    b = vl.sample_order(order_field("expr:1 + r/4"), g)
    assert np.allclose(a.sampled, b.sampled, atol=1e-15)


def test_expression_chi_and_max():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    f = vl.sample_order(
        order_field("expr:1.6*chi(max(abs(x1),abs(x2)) <= 0.8)"
                    "+ 2.0*chi(max(abs(x1),abs(x2)) > 0.8)"), g)
    ref = vl.sample_order(order_field("case2_square"), g)
    assert np.allclose(f.sampled, ref.sampled, atol=1e-15)


def test_expression_tanh_piecewise_1d():
    g = vl.build_grid(1, -4.0, 4.0, 31)
    f = vl.sample_order(order_field("expr:0.4*chi(x1 > 0) + 1.2*chi(x1 <= 0)"), g)
    assert set(np.unique(f.sampled)) == {0.4, 1.2}


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x1.real",
    "open('x')",
    "lambda: 1",
    "[1,2]",
    "unknown_name + 1",
    "chi(x1 > 0) and chi(x1 < 0)",
])
def test_expression_rejects_unsafe(bad):
    for parse in (parse_order_expression, parse_predicate):
        with pytest.raises(ConfigError):
            parse(bad)


def test_predicate_parse():
    g = vl.build_grid(2, -1.0, 1.0, 15)
    pred = parse_predicate("x1**2 + x2**2 < 0.25")
    mask = vl.make_mask(g, pred)
    pts = g.points()
    assert np.array_equal(mask.inside, np.sum(pts**2, axis=-1) < 0.25)


def test_initial_conditions():
    pts = np.array([[0.0, 0.0], [0.42, 0.42], [0.5, 0.5]])
    assert initial_condition("gaussian")(pts)[0] == 1.0
    assert np.all(initial_condition("ones")(pts) == 1.0)
    bubbles = initial_condition("bubbles", kappa=0.01)(pts)
    assert bubbles[1] > 0.9          # inside the first bubble
    assert bubbles[0] < -0.9         # far background
    modes = initial_condition("cos_modes")(np.array([[0.5, 0.5, 0.5]]))
    assert 0.0 <= modes[0] <= 1.0
    with pytest.raises(ConfigError):
        initial_condition("nope")
    for dim in (1, 3):
        with pytest.raises(ConfigError, match="2D only"):
            initial_condition("bubbles")(np.zeros((2, dim)))


def test_alias_names_exist():
    for name in ("alpha1_1d", "alpha2_2d", "alpha3_3d", "alpha3_piecewise_1d"):
        assert order_field(name) is not None

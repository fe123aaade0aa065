"""Parameter validation, derived constants, and instantaneous primitives."""

import math

import numpy as np
import pytest

from carbongame import (
    DerivedConstants,
    FeedbackPolicy,
    GameMode,
    ModelParams,
    ParameterError,
    QuadraticValue,
    carbon_sink,
    demand,
    derive_constants,
    effort_costs,
    reduction_drift,
    solve,
    supply,
    validate_params,
)


def test_baseline_params_are_valid():
    p = ModelParams()
    assert validate_params(p) is p


def test_negative_cost_coefficient_names_the_field():
    with pytest.raises(ParameterError, match=r"lambda_f > 0 violated \(got -1\.0\)"):
        validate_params(ModelParams(lambda_f=-1.0))


def test_multiple_violations_are_all_listed():
    with pytest.raises(ParameterError) as err:
        validate_params(ModelParams(rho=0.0, p_c=-0.5, theta=-2.0))
    text = str(err.value)
    assert "rho > 0 violated (got 0.0)" in text
    assert "theta > 0 violated (got -2.0)" in text
    assert "p_c >= 0 violated (got -0.5)" in text
    assert text.count(";") == 2


def test_nonfinite_parameter_is_rejected():
    with pytest.raises(ParameterError, match="mu_f must be a finite number"):
        validate_params(ModelParams(mu_f=float("nan")))


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_an_integer_beyond_float_range_is_not_a_finite_number(mode):
    # math.isfinite raises OverflowError on such an int
    with pytest.raises(ParameterError, match="rho must be a finite number, got 1000"):
        solve(mode, ModelParams(rho=10 ** 400))


@pytest.mark.parametrize("name, value, accepted", [
    ("lambda_f", True, False), ("p_c", False, False), ("H0", np.bool_(True), False),
    ("Q0", np.int64(300), True), ("lambda_f", np.float32(500.0), True),
    ("D0", np.uint8(250), True), ("mu_f", np.float64(1.5), True), ("p", 25, True),
    ("rho", np.float32("inf"), False)])
def test_numbers_are_ints_floats_and_numpy_scalars_but_not_bools(name, value, accepted):
    params = ModelParams().replace(**{name: value})
    if not accepted:
        with pytest.raises(ParameterError, match=f"{name} must be a finite number"):
            validate_params(params)
        return
    assert validate_params(params) is params
    # read as the Python number it holds: every accepted value here equals
    # its baseline, and so solves the same
    assert type(getattr(params, name)) in (int, float)
    assert solve("gs", params).values == solve("gs", ModelParams()).values


def test_numpy_integer_parameters_do_not_wrap():
    # 3*100 overflows uint8; read as Python ints, the supply multiplier is 600
    params = ModelParams(a=np.uint8(3), p=np.uint8(100), D0=np.uint8(250), b=np.uint8(1))
    assert derive_constants(params).k1 == (300.0 + 3.0 * 100.0) * 0.8


def test_negative_demand_multiplier_is_rejected():
    # D0 - b*p = 250 - 2*130 < 0
    with pytest.raises(ParameterError, match=r"D0 - b\*p = -10\.0 < 0"):
        validate_params(ModelParams(p=130.0))


def test_zero_sink_price_is_allowed():
    validate_params(ModelParams(p_c=0.0))


def test_replace_and_without_sink_trading():
    p = ModelParams()
    q = p.replace(mu_f=2.0)
    assert q.mu_f == 2.0 and p.mu_f == 1.5
    assert p.without_sink_trading().p_c == 0.0
    assert "lambda_f" in ModelParams.field_names()


def test_derived_constants_at_baseline():
    c = derive_constants(ModelParams())
    assert c.k1 == pytest.approx(300.0)   # (300 + 3*25) * 0.8
    assert c.k2 == pytest.approx(160.0)   # (250 - 2*25) * 0.8
    assert c.eta == pytest.approx(60.0)   # 0.5 * 0.4 * 300
    assert c.omega == 0.4


def test_primitives_worked_example():
    p = ModelParams()
    c = derive_constants(p)
    assert supply(1.0, c) == pytest.approx(300.0)
    assert demand(1.0, c) == pytest.approx(160.0)
    # (1 + 0.4*1) * 300 * 1
    assert carbon_sink(1.0, 1.0, c) == pytest.approx(420.0)
    # 1.5*1 + 0.5*1 - 1*1
    assert reduction_drift(1.0, 1.0, 1.0, p) == pytest.approx(1.0)
    cf, cr = effort_costs(1.0, 1.0, p)
    assert cf == pytest.approx(250.0)
    assert cr == pytest.approx(100.0)


def test_primitives_broadcast_over_arrays():
    p = ModelParams()
    c = derive_constants(p)
    H = np.linspace(0.0, 3.0, 7)
    assert supply(H, c) == pytest.approx(300.0 * H)
    assert reduction_drift(H, 0.0, 0.0, p) == pytest.approx(-H)


def test_drift_linearity_random_points():
    rng = np.random.default_rng(7)
    p = ModelParams()
    for _ in range(50):
        H, E_f, E_r = rng.uniform(0.0, 10.0, size=3)
        expected = p.mu_f * E_f + p.mu_r * E_r - p.delta * H
        assert reduction_drift(H, E_f, E_r, p) == pytest.approx(expected)


def test_game_mode_from_string():
    assert GameMode.from_string("gd") is GameMode.DECENTRALIZED
    assert GameMode.from_string(" Stackelberg ") is GameMode.STACKELBERG
    assert GameMode.from_string("GC") is GameMode.CENTRALIZED
    with pytest.raises(ValueError, match="unknown game mode 'nash'"):
        GameMode.from_string("nash")


def test_quadratic_value_and_marginal():
    v = QuadraticValue(A=2.0, B=3.0, C=4.0)
    assert v.value(1.5) == pytest.approx(2.0 * 2.25 + 4.5 + 4.0)
    # the slope 2*A*H + B that the policy maps use for V'(H)
    assert (v.value(1.5 + 1e-4) - v.value(1.5 - 1e-4)) / 2e-4 == pytest.approx(9.0)
    rng = np.random.default_rng(11)
    H = rng.uniform(-5.0, 5.0, size=20)
    assert v.value(H) == pytest.approx(2.0 * H ** 2 + 3.0 * H + 4.0)


def test_feedback_policy_effort_and_subsidy():
    rule = FeedbackPolicy(g1=0.5, g0=1.0, n1=1.0, n0=-2.0, d1=1.0, d0=0.0)
    assert rule.has_subsidy
    assert rule.effort(2.0) == pytest.approx(2.0)
    assert rule.subsidy(4.0) == pytest.approx(0.5)
    assert math.isinf(rule.subsidy(0.0))  # pole: nonzero over zero
    out = rule.subsidy(np.array([1.0, 2.0, 4.0]))
    assert out == pytest.approx([-1.0, 0.0, 0.5])
    degenerate = FeedbackPolicy(g1=0.0, g0=0.0, n1=1.0, n0=0.0, d1=2.0, d0=0.0)
    assert math.isnan(degenerate.subsidy(0.0))  # 0/0 stays nan, not an error


@pytest.mark.parametrize("mode", ["gd", "gc"])
def test_solution_subsidy_is_zero_outside_the_stackelberg_mode(mode):
    sol = solve(mode, ModelParams())
    assert type(sol.subsidy(2.0)) is float and sol.subsidy(2.0) == 0.0
    out = sol.subsidy(np.array([0.5, 1.0, 2.0]))
    assert out.dtype == float and np.array_equal(out, np.zeros(3))


def test_policy_without_subsidy_rule_raises():
    plain = FeedbackPolicy(g1=0.1, g0=0.2)
    assert not plain.has_subsidy
    with pytest.raises(ValueError, match="policy has no subsidy rule"):
        plain.subsidy(1.0)


def test_derived_constants_carry_omega_separately():
    # eta vanishes with p_c but the sink primitive must keep its effort term
    c = derive_constants(ModelParams(p_c=0.0))
    assert c.eta == 0.0
    assert carbon_sink(1.0, 1.0, c) == pytest.approx(420.0)
    assert isinstance(c, DerivedConstants)

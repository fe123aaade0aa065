"""Payoff accounting identities and discounted-profit quadrature."""

import numpy as np
import pytest

from carbongame import (
    GameMode,
    HorizonError,
    ModelParams,
    SimConfig,
    discounted_profit,
    exact_trajectory,
    payoff_rates,
    solve,
    total_value_at,
    value_at,
)
from carbongame.profits import _discounted_total, discounted_running

def test_component_worked_example():
    b = payoff_rates("gd", 1.0, 1.0, 1.0, None, ModelParams())
    assert b.margin_f == pytest.approx(1500.0)   # 5 * 300
    assert b.sink_f == pytest.approx(210.0)      # 0.5 * 1.4 * 300
    assert b.cost_f == pytest.approx(250.0)
    assert b.margin_r == pytest.approx(1600.0)   # 10 * 160
    assert b.cost_r == pytest.approx(100.0)
    assert b.subsidy == 0.0
    assert b.net_f == pytest.approx(1460.0)
    assert b.net_r == pytest.approx(1500.0)
    assert b.total == pytest.approx(2960.0)


def test_share_transfer_conserves_the_total():
    rng = np.random.default_rng(5)
    params = ModelParams()
    H = rng.uniform(0.0, 10.0, size=64)
    E_f = rng.uniform(0.0, 6.0, size=64)
    E_r = rng.uniform(0.0, 4.0, size=64)
    x = rng.uniform(-0.5, 1.5, size=64)
    b = payoff_rates(GameMode.STACKELBERG, H, E_f, E_r, x, params)
    gross = b.margin_f + b.sink_f - b.cost_f + b.margin_r - b.cost_r
    assert b.total == pytest.approx(gross)
    assert b.net_f == pytest.approx(b.margin_f + b.sink_f - b.cost_f + b.subsidy)
    assert b.net_r == pytest.approx(b.margin_r - b.cost_r - b.subsidy)


def test_share_argument_is_required_exactly_in_stackelberg():
    params = ModelParams()
    with pytest.raises(ValueError, match="x_f is required in the Stackelberg mode"):
        payoff_rates("gs", 1.0, 1.0, 1.0, None, params)
    with pytest.raises(ValueError,
                       match="x_f must be None outside the Stackelberg mode"):
        payoff_rates("gd", 1.0, 1.0, 1.0, 0.2, params)


def test_undefined_share_of_zero_cost_transfers_zero():
    b = payoff_rates("gs", 2.0, 0.0, 1.0, float("nan"), ModelParams())
    assert b.subsidy == 0.0
    assert np.isfinite(b.net_f) and np.isfinite(b.net_r)


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_discounted_quadrature_matches_the_analytic_values(mode):
    params = ModelParams()
    sol = solve(mode, params)
    traj = exact_trajectory(sol, SimConfig(T=40.0, h=0.01))
    if mode == "gc":
        pairs = [("joint", value_at(sol, "joint", params.H0))]
    else:
        pairs = [(role, value_at(sol, role, params.H0))
                 for role in ("farmer", "retailer")]
    for role, analytic in pairs:
        numeric = discounted_profit(traj, role, params)
        assert numeric == pytest.approx(analytic, rel=1e-3), (mode, role)


@pytest.mark.parametrize("intervals", [2, 3, 4, 5, 6, 7, 4000])
def test_discount_weights_integrate_a_discounted_cubic_exactly(intervals):
    # rate = cubic(t) * exp(rho*t) makes the discounted integrand the cubic,
    # which Simpson's 1/3 and 3/8 rules integrate exactly at every prefix
    # from the second interval on (the 3/8 panel of the third reads entry 0);
    # the frozen-state tail adds exp(-rho*T) * rate(T) / rho = cubic(T) / rho
    rho, T = 0.7, 40.0
    coeffs = np.array([3.1, -0.8, 0.27, -0.0043])  # c0 + c1*t + c2*t^2 + c3*t^3
    t = np.arange(intervals + 1) * (T / intervals)
    cubic = np.polynomial.polynomial.polyval(t, coeffs)
    rate = cubic * np.exp(rho * t)
    integral = np.polynomial.polynomial.polyval(
        t, np.polynomial.polynomial.polyint(coeffs))
    running = discounted_running(rate, t, rho)
    assert running[0] == 0.0
    np.testing.assert_allclose(running[2:], integral[2:], rtol=1e-13, atol=0)
    assert float(_discounted_total(rate, t, rho)) == pytest.approx(
        integral[-1] + cubic[-1] / rho, rel=1e-13)


def test_one_interval_takes_the_trapezoid():
    t = np.array([1.0, 3.0])
    rate = np.array([2.0, 5.0])
    discount = np.exp(-0.7 * t)
    step = t[1] - t[0]
    trapezoid = 0.5 * step * (discount[0] * rate[0] + discount[1] * rate[1])
    assert discounted_running(rate, t, 0.7)[1] == pytest.approx(
        trapezoid, rel=1e-15)
    assert float(_discounted_total(rate, t, 0.7)) == pytest.approx(
        trapezoid + discount[1] * rate[1] / 0.7, rel=1e-15)


def test_discount_weights_refuse_a_non_uniform_grid():
    rng = np.random.default_rng(3)
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.2, 300))))
    with pytest.raises(ValueError, match="needs a uniform grid"):
        discounted_running(np.ones_like(t), t, 0.7)


def test_discounted_profit_converges_at_fourth_order():
    # halving h cuts the gap to the analytic value 16x under a fourth-order
    # rule (4x under the trapezoid); the exact path leaves the quadrature as
    # the only error, and at T = 40 the frozen-state tail is below 1e-12
    params = ModelParams()
    for mode in GameMode:
        sol = solve(mode, params)
        for role in sol.roles:
            analytic = value_at(sol, role, params.H0)
            gaps = [abs(discounted_profit(
                exact_trajectory(sol, SimConfig(T=40.0, h=h)), role, params)
                - analytic) / abs(analytic) for h in (0.04, 0.02, 0.01)]
            assert gaps[0] >= 12.0 * gaps[1], (mode, role, gaps)
            assert gaps[1] >= 12.0 * gaps[2], (mode, role, gaps)


def test_joint_quadrature_is_the_sum_of_the_roles():
    params = ModelParams()
    traj = exact_trajectory(solve("gd", params))
    joint = discounted_profit(traj, "joint", params)
    split = (discounted_profit(traj, "farmer", params)
             + discounted_profit(traj, "retailer", params))
    assert joint == pytest.approx(split, rel=1e-12)


def test_short_horizon_is_rejected():
    params = ModelParams()
    traj = exact_trajectory(solve("gd", params), SimConfig(T=10.0, h=0.01))
    with pytest.raises(HorizonError,
                       match=r"horizon too short: rho\*T = 7 < 20"):
        discounted_profit(traj, "farmer", params)


def test_unknown_role_is_rejected():
    params = ModelParams()
    traj = exact_trajectory(solve("gd", params), SimConfig(T=40.0, h=0.1))
    with pytest.raises(ValueError, match="unknown role 'owner'"):
        discounted_profit(traj, "owner", params)


def test_value_at_only_serves_stored_roles():
    params = ModelParams()
    gd = solve("gd", params)
    gc = solve("gc", params)
    assert value_at(gd, "farmer", 0.1) == pytest.approx(
        gd.values["farmer"].value(0.1))
    with pytest.raises(ValueError, match="role 'joint' has no value function"):
        value_at(gd, "joint", 0.1)
    with pytest.raises(ValueError,
                       match=r"available: \['joint'\]"):
        value_at(gc, "farmer", 0.1)


def test_total_value_at_matches_the_mode_structure():
    params = ModelParams()
    gd = solve("gd", params)
    gc = solve("gc", params)
    H = np.array([0.1, 2.0, 7.0])
    assert total_value_at(gd, H) == pytest.approx(
        gd.values["farmer"].value(H) + gd.values["retailer"].value(H))
    assert total_value_at(gc, H) == pytest.approx(gc.values["joint"].value(H))

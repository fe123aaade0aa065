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
from carbongame.profits import discount_weights

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


def _trapezoid_with_tail(t, rate, rho):
    """Reference quadrature: numpy's trapezoid of the discounted rate plus
    the frozen-state tail exp(-rho*T) * rate(T) / rho."""
    weight = np.exp(-rho * t)
    return float(np.trapezoid(weight * rate, t)) + weight[-1] * rate[-1] / rho


def test_discount_weights_are_the_trapezoid_plus_the_frozen_tail():
    rng = np.random.default_rng(3)
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.2, 300))))
    rate = rng.uniform(0.5, 2.0, t.size)
    weights = discount_weights(t, 0.7)
    assert float(np.sum(weights * rate)) == pytest.approx(
        _trapezoid_with_tail(t, rate, 0.7), rel=1e-13)
    params = ModelParams()
    for mode in GameMode:
        traj = exact_trajectory(solve(mode, params))
        for role, rate in (("farmer", traj.payoff_f),
                           ("retailer", traj.payoff_r)):
            assert discounted_profit(traj, role, params) == pytest.approx(
                _trapezoid_with_tail(traj.t, rate, params.rho), rel=1e-13)


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

"""Instantaneous payoff rates, discounted profits along trajectories, and
consistency checks against the analytic value functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    GameMode,
    GameSolution,
    ModelParams,
    Trajectory,
    demand,
    derive_constants,
    effort_costs,
    supply,
)

__all__ = [
    "PayoffBreakdown",
    "payoff_rates",
    "discounted_running",
    "discounted_profit",
    "value_at",
    "total_value_at",
    "HorizonError",
]

ROLES = ("farmer", "retailer", "joint")
# discounted_running refuses a grid whose steps spread by more than this
# times the mean step; np.arange(n + 1) * h spreads by about n * 4e-16 of h, at
# most 4e-10 at simulate's sample-count bound.
UNIFORM_GRID_RTOL = 1e-8


class HorizonError(ValueError):
    """Trajectory horizon too short for reliable discounted quadrature."""


@dataclass(frozen=True)
class PayoffBreakdown:
    """Per-role payoff components at a state (scalars or aligned arrays).

    subsidy is the cost-share transfer x_f * (lambda_f/2) * E_f^2, received
    by the farmer and paid by the retailer; it is zero outside the
    Stackelberg mode so the component identities hold uniformly:

        net_f = margin_f + sink_f - cost_f + subsidy
        net_r = margin_r - cost_r - subsidy

    A supplied share outside [0, 1] is not rejected; the transfer accounting
    still balances there.
    """

    margin_f: np.ndarray
    sink_f: np.ndarray
    cost_f: np.ndarray
    margin_r: np.ndarray
    cost_r: np.ndarray
    subsidy: np.ndarray
    net_f: np.ndarray
    net_r: np.ndarray

    @property
    def total(self):
        return self.net_f + self.net_r


def payoff_rates(mode, H, E_f, E_r, x_f, params: ModelParams) -> PayoffBreakdown:
    """Component-wise payoff rates at (H, E_f, E_r) under the given mode.

    x_f must be supplied exactly when mode is Stackelberg. A zero effort cost
    makes the share irrelevant, so an undefined (nan) share of a zero cost
    transfers zero.
    """
    mode = GameMode.from_string(mode)
    if mode is GameMode.STACKELBERG:
        if x_f is None:
            raise ValueError("x_f is required in the Stackelberg mode")
    elif x_f is not None:
        raise ValueError(f"x_f must be None outside the Stackelberg mode, "
                         f"got {x_f!r} for mode {mode.value}")
    c = derive_constants(params)
    H = np.asarray(H, dtype=float)
    E_f = np.asarray(E_f, dtype=float)
    E_r = np.asarray(E_r, dtype=float)
    Q, D = supply(H, c), demand(H, c)
    margin_f = params.p_f * Q
    sink_f = params.p_c * (1.0 + params.omega * E_f) * Q
    cost_f, cost_r = effort_costs(E_f, E_r, params)
    margin_r = params.p_r * D
    if mode is GameMode.STACKELBERG:
        x = np.asarray(x_f, dtype=float)
        subsidy = np.where(cost_f == 0.0, 0.0, x * cost_f)
    else:
        subsidy = np.zeros_like(cost_f)
    net_f = margin_f + sink_f - cost_f + subsidy
    net_r = margin_r - cost_r - subsidy
    return PayoffBreakdown(margin_f=margin_f, sink_f=sink_f,
                           cost_f=cost_f, margin_r=margin_r, cost_r=cost_r,
                           subsidy=subsidy, net_f=net_f, net_r=net_r)


def _role_series(trajectory: Trajectory, role: str) -> np.ndarray:
    if role == "farmer":
        return trajectory.payoff_f
    if role == "retailer":
        return trajectory.payoff_r
    if role == "joint":
        return trajectory.payoff_f + trajectory.payoff_r
    raise ValueError(f"unknown role {role!r}; expected one of {ROLES}")


def discounted_running(rate, t, rho: float) -> np.ndarray:
    """Running integral of exp(-rho*t) * rate from t[0] to every sample of
    t, along the first axis of rate: composite Simpson up to each even
    sample, Simpson's 3/8 rule on the last three intervals of each odd one
    from the third on, the trapezoid up to the first. Entries from the
    second on are exact for cubics (Davis & Rabinowitz, Methods of Numerical
    Integration, 2nd ed., 1984, 2.1) and fourth order on smooth rates.

    t must be uniform: the spread of np.diff(t) may not exceed
    UNIFORM_GRID_RTOL times the mean step, else ValueError."""
    t = np.asarray(t, dtype=float)
    n = t.size - 1
    step = (t[-1] - t[0]) / n if n else 0.0
    dt = np.diff(t)
    if n and np.ptp(dt) > UNIFORM_GRID_RTOL * abs(step):
        raise ValueError(
            f"discounted_running needs a uniform grid: its steps spread "
            f"over [{dt.min():.6g}, {dt.max():.6g}]")
    # out holds the discounted rate until every panel sum has read it, then
    # its running integral
    out = rate * np.exp(-rho * t).reshape((-1,) + (1,) * (np.ndim(rate) - 1))
    pairs = out[1:-1:2] * 4.0  # Simpson panels [k - 2, k], k even
    pairs += out[:-2:2]
    pairs += out[2::2]
    ends = out[1:-2:2] + out[2:-1:2]  # 3/8 panels [k - 3, k], k odd
    ends *= 3.0
    ends += out[:-3:2]
    ends += out[3::2]
    out[1:2] = (out[0] + out[1:2]) * (step / 2.0)
    out[0] = 0.0
    np.multiply(np.cumsum(pairs, axis=0, out=pairs), step / 3.0,
                out=out[2::2])
    ends *= 3.0 * step / 8.0
    np.add(ends, out[:-3:2], out=out[3::2])  # k = 3 reads entry 0, now 0
    return out


def _discounted_total(rate, t, rho: float):
    """The discounted rate integrated over [t[0], inf): the last entry of
    ``discounted_running`` plus the frozen-state tail exp(-rho*T)/rho *
    rate(T), T = t[-1], which assumes the rate stays at its value at T."""
    return (discounted_running(rate, t, rho)[-1]
            + np.exp(-rho * t[-1]) / rho * rate[-1])


def discounted_profit(trajectory: Trajectory, role: str,
                      params: ModelParams) -> float:
    """Discounted total profit of a role along the trajectory: the
    ``discounted_running`` quadrature plus the frozen-state tail. A
    trajectory's uniform time grid (``SimConfig`` samples one) is required,
    and a non-uniform one raises ValueError.

    The horizon must satisfy rho*T >= 20 so the frozen-state tail is
    negligible at the checked tolerances.
    """
    T = float(trajectory.t[-1])
    if params.rho * T < 20.0:
        raise HorizonError(
            f"horizon too short: rho*T = {params.rho * T:.3g} < 20; "
            "extend the horizon so the discount tail is negligible")
    rate = _role_series(trajectory, role)
    return float(_discounted_total(rate, trajectory.t, params.rho))


def value_at(solution: GameSolution, role: str, H) -> float:
    """Evaluate the role's analytic value function at H.

    Only roles stored on the solution are valid: farmer/retailer in the
    decentralized and Stackelberg modes, joint in the centralized mode.
    """
    if role not in solution.values:
        raise ValueError(
            f"role {role!r} has no value function in mode "
            f"{solution.mode.value}; available: {sorted(solution.values)}")
    return solution.values[role].value(H)


def _chain_total(at: dict):
    """The chain-wide value from each role's value at a state: the joint
    value in the centralized mode, the sum of both roles' values otherwise."""
    return at["joint"] if "joint" in at else at["farmer"] + at["retailer"]


def total_value_at(solution: GameSolution, H):
    """Chain-wide value at H: ``_chain_total`` of the roles' values at H."""
    return _chain_total({role: V.value(H) for role, V in solution.values.items()})

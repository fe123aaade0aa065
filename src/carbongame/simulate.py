"""Closed-loop trajectories of the reduction level and derived series.

Two integrators produce the same sampled series: "exact" evaluates the
closed-form solution of the linear closed-loop dynamics, and
"fourth-order-fixed-step" integrates the drift numerically through the model
primitives and policy evaluations (deliberately not through the precomputed
(alpha, beta) pair, so the two routes stay independent cross-checks).

The module needs numpy only: the bisection steady state and the discounted
running payoffs reproduce scipy's bisect and cumulative_trapezoid operation
for operation, so the results are the same floats without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import profits
from .model import (
    GameMode,
    GameSolution,
    ModelParams,
    Trajectory,
    carbon_sink,
    demand,
    derive_constants,
    reduction_drift,
    supply,
)

__all__ = [
    "SimConfig",
    "SimulationError",
    "steady_state",
    "steady_state_bisect",
    "exact_trajectory",
    "integrate_trajectory",
    "simulate",
    "trajectory_table",
    "TRAJECTORY_COLUMNS",
]

INTEGRATOR_EXACT = "exact"
INTEGRATOR_RK4 = "fourth-order-fixed-step"

TRAJECTORY_COLUMNS = ("t", "H", "E_f", "E_r", "x_f", "Q", "D", "F",
                      "payoff_f", "payoff_r", "disc_cum_f", "disc_cum_r",
                      "flag")


class SimulationError(RuntimeError):
    """Raised when trajectory preconditions fail."""


@dataclass(frozen=True)
class SimConfig:
    """Sampling grid and integrator choice. H0 of None means the solved
    scenario's initial level (the params field H0)."""

    T: float = 40.0
    h: float = 0.01
    integrator: str = INTEGRATOR_EXACT
    H0: Optional[float] = None

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not 0 < self.h <= self.T:
            raise ValueError(f"h must be in (0, T], got h={self.h} T={self.T}")
        n = self.T / self.h
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(
                f"T/h must be an integer sample count, got T={self.T} h={self.h}")
        if self.integrator not in (INTEGRATOR_EXACT, INTEGRATOR_RK4):
            raise ValueError(
                f"integrator must be {INTEGRATOR_EXACT!r} or {INTEGRATOR_RK4!r}, "
                f"got {self.integrator!r}")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.h))

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.h


_BISECT_MAXITER = 100


def steady_state(solution: GameSolution) -> float:
    """Fixed point -beta/alpha of the closed-loop drift."""
    if not solution.alpha < 0:
        raise SimulationError(
            f"no attracting steady state: alpha = {solution.alpha:.6g} >= 0")
    return -solution.beta / solution.alpha


def steady_state_bisect(solution: GameSolution, xtol: float = 1e-12) -> float:
    """Steady state recomputed as a bisection root of the drift itself.

    The loop is scipy.optimize.bisect's algorithm step for step (halve the
    bracket from its left end, stop once the half-width is below
    xtol + 4*eps*|midpoint|), so it returns the same float.
    """
    if not solution.alpha < 0:
        raise SimulationError(
            f"no attracting steady state: alpha = {solution.alpha:.6g} >= 0")
    drift = solution.closed_loop_drift
    center = -solution.beta / solution.alpha
    half = 1.0 + abs(center)
    xa, xb = float(center - half), float(center + half)
    # alpha < 0 makes drift strictly decreasing: drift(xa) > 0 > drift(xb)
    fa, fb = float(drift(xa)), float(drift(xb))
    if fa * fb > 0.0:
        raise SimulationError("the drift does not change sign on "
                              f"[{xa:.6g}, {xb:.6g}]")
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    rtol = 4.0 * np.finfo(float).eps
    dm = xb - xa
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = float(drift(xm))
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise SimulationError(
        f"bisection did not converge in {_BISECT_MAXITER} steps")


def _initial_level(solution: GameSolution, cfg: SimConfig,
                   params: ModelParams) -> float:
    H0 = params.H0 if cfg.H0 is None else cfg.H0
    if H0 < 0:
        raise SimulationError(f"H0 must be >= 0, got {H0}")
    return float(H0)


def exact_trajectory(solution: GameSolution, simcfg: SimConfig = SimConfig(),
                     params: Optional[ModelParams] = None) -> Trajectory:
    """Sampled closed-form path H(t) = H_d + (H0 - H_d) * exp(alpha * t)."""
    params = solution.params if params is None else params
    H_d = steady_state(solution)
    H0 = _initial_level(solution, simcfg, params)
    t = simcfg.times()
    # expm1 form of H_d + (H0 - H_d)*exp(alpha*t); exact at t = 0
    H = H0 - (H_d - H0) * np.expm1(solution.alpha * t)
    return _fill_series(solution, params, t, H, INTEGRATOR_EXACT)


def integrate_trajectory(solution: GameSolution,
                         simcfg: SimConfig = SimConfig(),
                         params: Optional[ModelParams] = None) -> Trajectory:
    """Classical fourth-order fixed-step integration of the closed loop.

    The drift is evaluated through the policy rules and the model drift
    primitive at every stage, keeping this route independent of the solved
    (alpha, beta) aggregation.
    """
    params = solution.params if params is None else params
    pol_f = solution.policies["farmer"]
    pol_r = solution.policies["retailer"]

    def drift(H):
        return reduction_drift(H, pol_f.effort(H), pol_r.effort(H), params)

    t = simcfg.times()
    H = np.empty_like(t)
    H[0] = _initial_level(solution, simcfg, params)
    h = simcfg.h
    for i in range(simcfg.steps):
        y = H[i]
        k1 = drift(y)
        k2 = drift(y + 0.5 * h * k1)
        k3 = drift(y + 0.5 * h * k2)
        k4 = drift(y + h * k3)
        H[i + 1] = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return _fill_series(solution, params, t, H, INTEGRATOR_RK4)


def simulate(solution: GameSolution, simcfg: SimConfig = SimConfig(),
             params: Optional[ModelParams] = None) -> Trajectory:
    """Dispatch on simcfg.integrator."""
    if simcfg.integrator == INTEGRATOR_EXACT:
        return exact_trajectory(solution, simcfg, params)
    return integrate_trajectory(solution, simcfg, params)


def _fill_series(solution: GameSolution, params: ModelParams, t: np.ndarray,
                 H: np.ndarray, integrator: str) -> Trajectory:
    c = derive_constants(params)
    mode = solution.mode
    E_f = solution.policies["farmer"].effort(H)
    E_r = solution.policies["retailer"].effort(H)
    if mode is GameMode.STACKELBERG:
        x_f = np.asarray(solution.policies["retailer"].subsidy(H), dtype=float)
        breakdown = profits.payoff_rates(mode, H, E_f, E_r, x_f, params)
    else:
        x_f = np.full_like(H, np.nan)
        breakdown = profits.payoff_rates(mode, H, E_f, E_r, None, params)
    weight = np.exp(-params.rho * t)
    disc_f = _cumulative_trapezoid(weight * breakdown.net_f, t)
    disc_r = _cumulative_trapezoid(weight * breakdown.net_r, t)
    flag = (H < 0.0) | (E_f < 0.0) | (E_r < 0.0)
    return Trajectory(mode=mode, integrator=integrator, t=t, H=H,
                      E_f=E_f, E_r=E_r, x_f=x_f,
                      Q=supply(H, c), D=demand(H, c),
                      F=carbon_sink(H, E_f, c),
                      payoff_f=np.asarray(breakdown.net_f, dtype=float),
                      payoff_r=np.asarray(breakdown.net_r, dtype=float),
                      disc_cum_f=disc_f, disc_cum_r=disc_r, flag=flag)


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over t, starting at 0; the same
    operations, in the same order, as scipy's cumulative_trapezoid."""
    dt = np.diff(t)
    return np.concatenate(([0.0], np.cumsum(dt * (y[1:] + y[:-1]) / 2.0)))


def trajectory_table(trajectory: Trajectory) -> str:
    """Serialize to a comma-delimited table with the fixed column order.

    Floats use shortest round-trip formatting; x_f cells are empty outside
    the Stackelberg mode; flag is 0/1.
    """
    x_f = trajectory.x_f if trajectory.mode is GameMode.STACKELBERG else None
    cols = [[""] * len(trajectory) if col is None
            else list(map(repr, np.asarray(col, dtype=float).tolist()))
            for col in (trajectory.t, trajectory.H, trajectory.E_f,
                        trajectory.E_r, x_f, trajectory.Q, trajectory.D,
                        trajectory.F, trajectory.payoff_f, trajectory.payoff_r,
                        trajectory.disc_cum_f, trajectory.disc_cum_r)]
    flags = [str(int(f)) for f in trajectory.flag.tolist()]
    rows = map(",".join, zip(*cols, flags))
    return "\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n"

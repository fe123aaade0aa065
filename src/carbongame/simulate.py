"""Closed-loop trajectories of the reduction level and derived series.

Two integrators produce the same sampled series: "exact" evaluates the
closed-form solution of the linear closed-loop dynamics, and
"fourth-order-fixed-step" integrates the drift numerically through the model
primitives and policy evaluations (deliberately not through the precomputed
(alpha, beta) pair, so the two routes stay independent cross-checks).

Every path starts at the scenario's initial level, the model parameter H0,
so a trajectory and the analytic values at H0 always describe one start.
SimConfig holds only the sampling grid and the integrator; the bound on the
sample count, MAX_SAMPLE_COUNT, is a module constant.

The disc_cum_* series come from profits.discounted_running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    "exact_trajectory",
    "integrate_trajectory",
    "simulate",
    "trajectory_table",
    "TRAJECTORY_COLUMNS",
]

INTEGRATOR_EXACT = "exact"
INTEGRATOR_RK4 = "fourth-order-fixed-step"

# T/h may not exceed this: a trajectory holds 13 float series of T/h + 1
# samples (about 100 MB at the bound, against 4,001 samples by default).
MAX_SAMPLE_COUNT = 1_000_000

TRAJECTORY_COLUMNS = ("t", "H", "E_f", "E_r", "x_f", "Q", "D", "F",
                      "payoff_f", "payoff_r", "disc_cum_f", "disc_cum_r",
                      "flag")


class SimulationError(RuntimeError):
    """Raised when trajectory preconditions fail."""


@dataclass(frozen=True)
class SimConfig:
    """Sampling grid and integrator choice; paths start at the params field
    H0. T must be finite and T/h an integer of at most MAX_SAMPLE_COUNT."""

    T: float = 40.0
    h: float = 0.01
    integrator: str = INTEGRATOR_EXACT

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if not 0 < self.h <= self.T:
            raise ValueError(f"h must be in (0, T], got h={self.h} T={self.T}")
        n = self.T / self.h
        if not n <= MAX_SAMPLE_COUNT:
            raise ValueError(
                f"T/h = {n:.6g} exceeds the sample-count bound {MAX_SAMPLE_COUNT}, "
                f"got T={self.T} h={self.h}")
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


def steady_state(solution: GameSolution) -> float:
    """Fixed point -beta/alpha of the closed-loop drift."""
    if not solution.alpha < 0:
        raise SimulationError(
            f"no attracting steady state: alpha = {solution.alpha:.6g} >= 0")
    return -solution.beta / solution.alpha


def _initial_level(params: ModelParams) -> float:
    """params.H0, which unvalidated params may hold negative."""
    if params.H0 < 0:
        raise SimulationError(f"H0 must be >= 0, got {params.H0}")
    return float(params.H0)


def exact_trajectory(solution: GameSolution, simcfg: SimConfig = SimConfig(),
                     params: Optional[ModelParams] = None) -> Trajectory:
    """Sampled closed-form path H(t) = H_d + (H0 - H_d) * exp(alpha * t)."""
    params = solution.params if params is None else params
    H_d = steady_state(solution)
    H0 = _initial_level(params)
    t = simcfg.times()
    # expm1 form of H_d + (H0 - H_d)*exp(alpha*t); exact at t = 0
    H = H0 - (H_d - H0) * np.expm1(solution.alpha * t)
    return _fill_series(solution, params, t, H, INTEGRATOR_EXACT)


def _rk4(drift, y: float, h: float, steps: int) -> np.ndarray:
    """Classical fourth-order fixed-step path (steps + 1 samples) of
    dy/dt = drift(y) from the float y, stepped on Python floats, which
    round as float64 does, without numpy's per-scalar overhead."""
    path = np.empty(steps + 1)
    path[0] = y
    for i in range(1, steps + 1):
        k1 = drift(y)
        k2 = drift(y + 0.5 * h * k1)
        k3 = drift(y + 0.5 * h * k2)
        k4 = drift(y + h * k3)
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        path[i] = y
    return path


def integrate_trajectory(solution: GameSolution,
                         simcfg: SimConfig = SimConfig(),
                         params: Optional[ModelParams] = None) -> Trajectory:
    """Classical fourth-order fixed-step integration of the closed loop.

    The drift is evaluated through the policy rules and the model drift
    primitive at every stage, keeping this route independent of the solved
    (alpha, beta) aggregation.

    Raises SimulationError when a sample is not finite (a step outside the
    integrator's stability region), naming h and the first such time.
    """
    params = solution.params if params is None else params
    effort_f = solution.policies["farmer"].effort
    effort_r = solution.policies["retailer"].effort

    def drift(H):
        return reduction_drift(H, effort_f(H), effort_r(H), params)

    H = _rk4(drift, _initial_level(params), simcfg.h, simcfg.steps)
    t = simcfg.times()
    finite = np.isfinite(H)
    if not finite.all():
        raise SimulationError(
            f"{INTEGRATOR_RK4} path is not finite from t = "
            f"{float(t[finite.argmin()])!r} on: step h = {simcfg.h!r} is outside the "
            "integrator's stability region")
    return _fill_series(solution, params, t, H, INTEGRATOR_RK4)


def simulate(solution: GameSolution, simcfg: SimConfig = SimConfig(),
             params: Optional[ModelParams] = None) -> Trajectory:
    """Dispatch on simcfg.integrator."""
    if simcfg.integrator == INTEGRATOR_EXACT:
        return exact_trajectory(solution, simcfg, params)
    return integrate_trajectory(solution, simcfg, params)


# overflow leaves inf, and inf - inf nan, which the check below refuses
@np.errstate(over="ignore", invalid="ignore")
def _fill_series(solution: GameSolution, params: ModelParams, t: np.ndarray,
                 H: np.ndarray, integrator: str) -> Trajectory:
    """The trajectory of path H at times t. Raises SimulationError naming the
    first column, in TRAJECTORY_COLUMNS order, that is not finite and its
    first such time; x_f is exempt, as nan outside gs and where its rule is
    0/0."""
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
    disc_f = profits.discounted_running(breakdown.net_f, t, params.rho)
    disc_r = profits.discounted_running(breakdown.net_r, t, params.rho)
    flag = (H < 0.0) | (E_f < 0.0) | (E_r < 0.0)
    trajectory = Trajectory(mode=mode, integrator=integrator, t=t, H=H,
                            E_f=E_f, E_r=E_r, x_f=x_f,
                            Q=supply(H, c), D=demand(H, c),
                            F=carbon_sink(H, E_f, c),
                            payoff_f=np.asarray(breakdown.net_f, dtype=float),
                            payoff_r=np.asarray(breakdown.net_r, dtype=float),
                            disc_cum_f=disc_f, disc_cum_r=disc_r, flag=flag)
    for name in TRAJECTORY_COLUMNS[1:-1]:
        finite = name == "x_f" or np.isfinite(getattr(trajectory, name))
        if not np.all(finite):
            raise SimulationError(
                f"{integrator} path overflows float64: {name} is first not "
                f"finite at t = {float(t[finite.argmin()])!r}")
    return trajectory


@lru_cache(maxsize=4)
def _formatted_column(raw: bytes) -> tuple:
    """repr of each float64 in raw; keyed on the bytes themselves, so a
    column changed in place is formatted afresh."""
    return tuple(map(repr, np.frombuffer(raw).tolist()))


def _formatted_runs(column: np.ndarray) -> list:
    """repr of each float64 in column, formatted once per run of equal bits
    (so 0.0 and -0.0 stay apart) and repeated along the run."""
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    strings = np.array(list(map(repr, column[starts].tolist())), dtype=object)
    return np.repeat(strings, np.diff(np.r_[starts, len(column)])).tolist()


def trajectory_table(trajectory: Trajectory) -> str:
    """Serialize to a comma-delimited table with the fixed column order.

    Floats use shortest round-trip formatting; x_f cells are empty outside
    the Stackelberg mode; flag is 0/1. The time column, the same in every
    table of a run, is formatted once and reused while its bytes match; the
    others once per run of equal values, which converged tails repeat.
    """
    gs = trajectory.mode is GameMode.STACKELBERG
    t = _formatted_column(np.asarray(trajectory.t, dtype=float).tobytes())
    cols = [_formatted_runs(np.asarray(getattr(trajectory, name), dtype=float))
            if gs or name != "x_f" else [""] * len(trajectory)
            for name in TRAJECTORY_COLUMNS[1:-1]]
    flags = np.where(trajectory.flag, "1", "0").tolist()
    rows = map(",".join, zip(t, *cols, flags))
    return "\n".join([",".join(TRAJECTORY_COLUMNS), *rows]) + "\n"

"""Grid-based dynamic-programming verification of solved equilibria.

This module re-derives strategies without the coefficient solver: each role's
control problem is discretized on a finite state/action grid and solved by
Howard policy iteration (greedy improvement plus exact policy evaluation on
the induced banded chain). The resulting best responses and values are then
compared against the analytic feedback rules. The Stackelberg leader, whose
problem is not a plain control problem, is instead stress-tested by sampling
perturbed announcement rules and re-simulating the follower's reaction.
The sampler prices each simulated path with ``profits.payoff_rates`` and
discounts it with ``profits.discount_weights``, the quadrature that
``profits.discounted_profit`` uses, so it holds no payoff formula of its own.

Discretization notes: transitions use an explicit Euler step of the drift,
and the per-step reward is rate * (1 - gamma) / rho with gamma = exp(-rho*dt),
which is exact for constant rates (a plain rate*dt reward carries an O(dt)
bias of about rho*dt/2 that would not fit inside the value tolerance).
The continuation value at an off-grid next state is the linear interpolation
between its two neighbouring grid states, clamped to the end values outside
[0, H_max]. The greedy step computes it with ``np.interp``, the same clamped
interpolation that ``_positions`` sets up for policy evaluation.

One policy-iteration loop, ``_howard``, serves every reply. Each state picks
an (outer, inner) action pair that earns an outer plus an inner reward and
moves to a per-state base plus a per-pair shift: each role's net rate depends
on its own effort only, and the drift is affine in the efforts. These tables
do not depend on the value, so each reply builds them once. The joint reply
pairs the farmer's (outer) and retailer's (inner) efforts; a single-role
reply is the one-block case, with one zero-reward outer action and the
opponent's frozen effort in the base.

The greedy step splits the outer actions into contiguous ascending blocks,
one per thread, because ``np.interp`` and the array arithmetic on each block
run with the interpreter lock released. Each block keeps its own best pair
per state under a strict improvement test; the blocks are then merged in
ascending order with the same strict test, which reproduces a single
outer-major scan exactly: a tie goes to the first outer index, then the
first inner index. The thread count is the number of CPUs the process may
use, capped by MAX_GREEDY_THREADS and by the outer action count, so a
single-role reply, or any reply on one CPU, runs without a pool.

The certifier's pass tolerances, the default grid's spans, the refinement
factor and the leader sampler's spread and simulation grid are module
constants, not arguments; only the sample count and the seed are.

Policy evaluation solves the banded system (I - gamma*P) v = r by Gaussian
elimination without pivoting. Each row's diagonal exceeds the sum of its
off-diagonal magnitudes by 1 - gamma, and on such strictly diagonally
dominant systems elimination without pivoting is stable (Golub & Van Loan,
Matrix Computations, section 4.3).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import profits
from .model import (
    FeedbackPolicy,
    GameMode,
    GameSolution,
    ModelParams,
    derive_constants,
    reduction_drift,
)

__all__ = [
    "OracleError",
    "GridSpec",
    "BestResponse",
    "CertificationReport",
    "default_grid",
    "grid_best_response",
    "leader_improvement_sample",
    "equilibrium_check",
]

INTERIOR_MARGIN = 0.05
# equilibrium_check's bounds on the relative policy and value gaps and on
# the best sampled leader gain
POLICY_TOLERANCE = 0.02
VALUE_TOLERANCE = 0.005
LEADER_TOLERANCE = 0.005
# default_grid: states up to STATE_SPAN*H_d, actions up to ACTION_SPAN times
# the largest analytic effort there; GridSpec.refined multiplies the
# resolution by REFINE_FACTOR.
STATE_SPAN = 2.5
ACTION_SPAN = 3.0
REFINE_FACTOR = 2
# leader_improvement_sample: coefficients perturbed by up to LEADER_SPREAD
# (relative), each rule simulated by RK4 on [0, LEADER_HORIZON] in steps of
# LEADER_STEP; the paths are priced LEADER_BLOCK_ROWS time samples at a
# time, which bounds the pricing temporaries to a few hundred kB.
LEADER_SPREAD = 0.1
LEADER_HORIZON = 40.0
LEADER_STEP = 0.01
LEADER_BLOCK_ROWS = 128
# The greedy step runs on at most this many threads; each holds two
# (state, inner action) temporaries, about 2 MB on the default grid.
MAX_GREEDY_THREADS = 4


class OracleError(RuntimeError):
    """Raised when the grid verification cannot certify anything."""


@dataclass(frozen=True)
class GridSpec:
    """State/action discretization for the verification solver.

    States span [0, H_max]; each role's action grid spans [0, a_max_*].
    """

    H_max: float
    a_max_f: float
    a_max_r: float
    n_states: int = 512
    n_actions: int = 257
    dt: float = 0.005
    max_sweeps: int = 120

    def __post_init__(self):
        for name in ("H_max", "a_max_f", "a_max_r", "dt"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if value == np.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        for name, least in (("n_states", 3), ("n_actions", 3), ("max_sweeps", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def states(self) -> np.ndarray:
        return np.linspace(0.0, self.H_max, self.n_states)

    def actions(self, role: str) -> np.ndarray:
        if role == "farmer":
            return np.linspace(0.0, self.a_max_f, self.n_actions)
        if role == "retailer":
            return np.linspace(0.0, self.a_max_r, self.n_actions)
        raise ValueError(f"unknown action role {role!r}")

    def refined(self) -> "GridSpec":
        """A grid with REFINE_FACTOR times the resolution in states, actions
        and time."""
        return dataclasses.replace(
            self, n_states=REFINE_FACTOR * self.n_states,
            n_actions=REFINE_FACTOR * self.n_actions, dt=self.dt / REFINE_FACTOR)


def default_grid(solution: GameSolution, **overrides) -> GridSpec:
    """Grid sized from a solution: states to STATE_SPAN*H_d, actions to
    ACTION_SPAN times the largest analytic effort over that range."""
    if not solution.alpha < 0:
        raise OracleError(
            f"grid sizing needs an attracting steady state; alpha = {solution.alpha:.6g}")
    if not solution.H_d > 0:
        raise OracleError(
            f"grid sizing needs a positive steady state; H_d = {solution.H_d:.6g}")
    H_max = float(STATE_SPAN * solution.H_d)
    probe = np.linspace(0.0, H_max, 64)
    a_f = float(np.max(np.abs(solution.policies["farmer"].effort(probe))))
    a_r = float(np.max(np.abs(solution.policies["retailer"].effort(probe))))
    return GridSpec(H_max=H_max, a_max_f=ACTION_SPAN * max(a_f, 1.0),
                    a_max_r=ACTION_SPAN * max(a_r, 1.0), **overrides)


@dataclass(frozen=True)
class BestResponse:
    """Grid-optimal reply of one role (or the joint controller).

    actions maps role name to the chosen effort per grid state; single-role
    problems carry one key, the joint problem carries both.
    """

    mode: GameMode
    role: str
    grid: GridSpec
    H: np.ndarray
    value: np.ndarray
    actions: dict
    sweeps: int
    value_change: float


def _check_interior(H: np.ndarray, next_raw: np.ndarray) -> None:
    # boundary states clamp by construction; only interior escapes are bugs
    n = H.size
    lo = int(np.ceil(INTERIOR_MARGIN * n))
    hi = int(np.floor((1.0 - INTERIOR_MARGIN) * n))
    inner = slice(lo, hi)
    bad = (next_raw[inner] < H[0]) | (next_raw[inner] > H[-1])
    if np.any(bad):
        where = H[inner][bad]
        raise OracleError(
            "state leaves the grid under the greedy policy at "
            f"H = {where[0]:.6g} (and {bad.sum() - 1} more states); "
            "enlarge H_max or shorten dt")


def _evaluate_policy(n: int, j: np.ndarray, w: np.ndarray, reward: np.ndarray,
                     gamma: float) -> np.ndarray:
    """Solve (I - gamma*P) v = reward, where row i of P puts 1 - w[i] on
    state j[i] and w[i] on j[i] + 1 (``_positions`` keeps j <= n - 2).

    Banded Gaussian elimination in Python floats, skipping zero multipliers;
    the band's reach is read off j - i and j + 1 - i, so a coarse time step
    widens it. No pivoting: each row's diagonal exceeds the sum of its
    off-diagonal magnitudes by 1 - gamma > 0 (Golub & Van Loan, section 4.3).
    """
    states = np.arange(n)
    reach = j - states
    lo = max(0, -int(reach.min()))
    hi = max(0, int(reach.max()) + 1)
    band = np.zeros((n, lo + 1 + hi))   # band[i, c - i + lo] holds column c
    band[:, lo] = 1.0
    band[states, reach + lo] -= gamma * (1.0 - w)
    band[states, reach + lo + 1] -= gamma * w
    rows = band.tolist()
    b = reward.tolist()
    for i, row in enumerate(rows):
        for k in range(max(0, i - lo), i):
            m = row[k - i + lo]
            if m:
                pivot = rows[k]
                m /= pivot[lo]
                for c in range(1, hi + 1):
                    row[k - i + lo + c] -= m * pivot[lo + c]
                b[i] -= m * b[k]
    # columns past n - 1 stay zero, so back substitution reads v padded
    v = [0.0] * (n + hi)
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = b[i]
        for c in range(1, hi + 1):
            s -= row[lo + c] * v[i + c]
        v[i] = s / row[lo]
    return np.array(v[:n])


def _positions(H: np.ndarray, Hnext: np.ndarray):
    dx = H[1] - H[0]
    pos = np.clip(Hnext, H[0], H[-1]) / dx
    j = np.minimum(pos.astype(np.int64), H.size - 2)
    return j, pos - j


def _seed_indices(actions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    da = actions[1] - actions[0]
    idx = np.rint(targets / da).astype(np.int64)
    return np.clip(idx, 0, actions.size - 1)


def _usable_cpus() -> int:
    """The CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _greedy_threads() -> int:
    """Threads for the greedy step: the usable CPUs, capped by
    MAX_GREEDY_THREADS."""
    return min(_usable_cpus(), MAX_GREEDY_THREADS)


def _greedy_block(outer_actions, base, shift, H, continuation, reward_outer,
                  reward_inner):
    """Best (outer, inner) pair per state over the given outer action indices.

    q = continuation interpolated at base + shift[ko], plus
    reward_outer[:, ko] and reward_inner. Pairs are scanned outer-major with
    a strict improvement test, so a tie in q goes to the first outer index,
    then the first inner index. Returns the best q and its outer and inner
    indices.
    """
    n = H.size
    rows = np.arange(n)
    best_q = np.full(n, -np.inf)
    best_o = np.zeros(n, dtype=np.int64)
    best_i = np.zeros(n, dtype=np.int64)
    for ko in outer_actions:
        q = np.interp(base + shift[ko], H, continuation)
        q += reward_outer[:, ko, None]
        q += reward_inner
        ki = np.argmax(q, axis=1)
        qk = q[rows, ki]
        upgrade = qk > best_q
        best_q[upgrade] = qk[upgrade]
        best_o[upgrade] = ko
        best_i[upgrade] = ki[upgrade]
    return best_q, best_o, best_i


def _greedy_step(blocks, tables, pool) -> tuple:
    """Greedy (outer, inner) indices over ascending outer-action blocks.

    Each block is scanned by ``_greedy_block`` (on ``pool`` when given) and
    the results are merged in block order with the same strict test, which
    reproduces one outer-major scan over all blocks, ties included.
    """
    if pool is None:
        parts = [_greedy_block(kos, *tables) for kos in blocks]
    else:
        parts = list(pool.map(lambda kos: _greedy_block(kos, *tables), blocks))
    best_q, best_o, best_i = parts[0]
    for q, ko, ki in parts[1:]:
        upgrade = q > best_q
        best_q[upgrade] = q[upgrade]
        best_o[upgrade] = ko[upgrade]
        best_i[upgrade] = ki[upgrade]
    return best_o, best_i


def _howard(H: np.ndarray, gamma: float, max_sweeps: int, base: np.ndarray,
            shift: np.ndarray, reward_outer: np.ndarray,
            reward_inner: np.ndarray, pol_outer: np.ndarray,
            pol_inner: np.ndarray):
    """Howard policy iteration over (outer, inner) action pairs: pair
    (ko, ki) at state i earns reward_outer[i, ko] + reward_inner[i, ki] and
    moves to base[i, 0] + shift[ko, ki]. Stops when the greedy policy
    repeats; returns the value, both policies, the sweeps and the last
    value change."""
    n = H.size
    rows = np.arange(n)
    n_outer = reward_outer.shape[1]
    threads = min(_greedy_threads(), n_outer)
    bounds = [k * n_outer // threads for k in range(threads + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    value = np.zeros(n)
    change = np.inf
    with (ThreadPoolExecutor(threads) if threads > 1 else nullcontext()) as pool:
        for sweep in range(1, max_sweeps + 1):
            reward_pol = (reward_outer[rows, pol_outer]
                          + reward_inner[rows, pol_inner])
            next_pol = base[:, 0] + shift[pol_outer, pol_inner]
            j, w = _positions(H, next_pol)
            new_value = _evaluate_policy(n, j, w, reward_pol, gamma)
            change = float(np.max(np.abs(new_value - value)))
            value = new_value
            best_outer, best_inner = _greedy_step(
                blocks, (base, shift, H, gamma * value, reward_outer,
                         reward_inner), pool)
            if (np.array_equal(best_outer, pol_outer)
                    and np.array_equal(best_inner, pol_inner)):
                _check_interior(H, next_pol)
                return value, pol_outer, pol_inner, sweep, change
            pol_outer, pol_inner = best_outer, best_inner
    raise OracleError(
        f"policy iteration did not converge within {max_sweeps} sweeps; "
        f"last value change {change:.3e}")


def _single_role_response(params: ModelParams, mode: GameMode, role: str,
                          opponent: FeedbackPolicy, grid: GridSpec,
                          seed_policy: Optional[FeedbackPolicy]) -> BestResponse:
    H = grid.states()
    n = H.size
    actions = grid.actions(role)
    Hc = H[:, None]
    own = actions[None, :]
    opp = opponent.effort(H)[:, None]

    def efforts(mine, theirs):
        return (mine, theirs) if role == "farmer" else (theirs, mine)

    x = None
    if mode is GameMode.STACKELBERG:
        x = np.asarray(opponent.subsidy(H), dtype=float)
        if (opponent.n1, opponent.n0, opponent.d1, opponent.d0) == (0.0,) * 4:
            x = np.zeros_like(H)  # all-zero rule is 0/0 everywhere: shares nothing
        if not np.all(np.isfinite(x)):
            raise OracleError("subsidy rule is undefined (0/0) on the state grid")
        if np.any(1.0 - x <= 0.0):
            bad = H[1.0 - x <= 0.0][0]
            raise OracleError(
                f"subsidy rule leaves a non-positive effective cost share at "
                f"H = {bad:.6g}; the follower problem is unbounded there")
        x = x[:, None]
    rates = profits.payoff_rates(mode, Hc, *efforts(own, opp), x, params)
    rate = rates.net_f if role == "farmer" else rates.net_r
    gamma = float(np.exp(-params.rho * grid.dt))
    # one outer action: the opponent's frozen effort goes into the base
    base = Hc + grid.dt * reduction_drift(Hc, *efforts(0.0, opp), params)
    shift = grid.dt * reduction_drift(0.0, *efforts(own, 0.0), params)
    if seed_policy is None:
        seed = np.zeros(n, dtype=np.int64)
    else:
        seed = _seed_indices(actions, seed_policy.effort(H))
    value, _, policy, sweeps, change = _howard(
        H, gamma, grid.max_sweeps, base, shift, np.zeros((n, 1)),
        rate * ((1.0 - gamma) / params.rho), np.zeros(n, dtype=np.int64), seed)
    return BestResponse(mode=mode, role=role, grid=grid, H=H, value=value,
                        actions={role: actions[policy]}, sweeps=sweeps,
                        value_change=change)


def _joint_response(params: ModelParams, grid: GridSpec,
                    seeds: Optional[dict]) -> BestResponse:
    H = grid.states()
    n = H.size
    af = grid.actions("farmer")
    ar = grid.actions("retailer")
    gamma = float(np.exp(-params.rho * grid.dt))
    step = (1.0 - gamma) / params.rho
    if seeds is None:
        pol_f = np.zeros(n, dtype=np.int64)
        pol_r = np.zeros(n, dtype=np.int64)
    else:
        pol_f = _seed_indices(af, seeds["farmer"].effort(H))
        pol_r = _seed_indices(ar, seeds["retailer"].effort(H))
    rates = profits.payoff_rates(GameMode.CENTRALIZED, H[:, None], af[None, :],
                                 ar[None, :], None, params)
    base = (H + grid.dt * reduction_drift(H, 0.0, 0.0, params))[:, None]
    shift = grid.dt * reduction_drift(0.0, af[:, None], ar[None, :], params)
    value, pol_f, pol_r, sweeps, change = _howard(
        H, gamma, grid.max_sweeps, base, shift, rates.net_f * step,
        rates.net_r * step, pol_f, pol_r)
    return BestResponse(mode=GameMode.CENTRALIZED, role="joint", grid=grid,
                        H=H, value=value,
                        actions={"farmer": af[pol_f], "retailer": ar[pol_r]},
                        sweeps=sweeps, value_change=change)


def grid_best_response(params: ModelParams, mode, role: str,
                       opponent_policy: Optional[FeedbackPolicy],
                       grid: GridSpec,
                       seed_policy=None) -> BestResponse:
    """Grid-optimal reply of ``role`` against a frozen opponent rule.

    Decentralized mode accepts role "farmer" or "retailer" with the other
    side's affine policy as the opponent. Stackelberg mode accepts only the
    follower ("farmer"); the opponent must be the leader policy carrying the
    subsidy rule. Centralized mode accepts role "joint" with no opponent.
    seed_policy optionally warm-starts the iteration (a FeedbackPolicy, or a
    dict of two for the joint problem); the fixed point does not depend on it.
    """
    mode = GameMode.from_string(mode) if isinstance(mode, str) else mode
    if mode is GameMode.CENTRALIZED:
        if role != "joint":
            raise ValueError(
                f"centralized verification controls both efforts; role must be "
                f"'joint', got {role!r}")
        if opponent_policy is not None:
            raise ValueError("joint control has no opponent_policy")
        return _joint_response(params, grid, seed_policy)
    if role == "joint":
        raise ValueError(f"role 'joint' only applies to the centralized mode, "
                         f"not {mode.value}")
    if role not in ("farmer", "retailer"):
        raise ValueError(f"unknown role {role!r}")
    if mode is GameMode.STACKELBERG:
        if role != "farmer":
            raise ValueError(
                "the leader's announcement is not a plain control problem; "
                "use leader_improvement_sample for the retailer side")
        if opponent_policy is None or not opponent_policy.has_subsidy:
            raise ValueError(
                "opponent_policy must be the leader rule carrying the subsidy "
                "coefficients (n1, n0, d1, d0)")
    elif opponent_policy is None:
        raise ValueError(f"opponent_policy is required for role {role!r} in "
                         f"mode {mode.value}")
    return _single_role_response(params, mode, role, opponent_policy, grid,
                                 seed_policy)


def leader_improvement_sample(solution: GameSolution,
                              params: Optional[ModelParams] = None,
                              samples: int = 200,
                              seed: int = 20260814) -> dict:
    """Sampled stationarity check of the Stackelberg announcement.

    Perturbs the leader's six rule coefficients (effort slope/intercept and
    the four subsidy-rule coefficients) multiplicatively by up to
    LEADER_SPREAD, lets the follower react through its first-order rule with
    the follower value slope frozen at the solved equilibrium, re-simulates
    the closed loop, and reports the largest relative gain over the
    unperturbed rule. Each path is priced by ``profits.payoff_rates`` and
    discounted by ``profits.discount_weights``, the rule
    ``profits.discounted_profit`` uses. This samples a neighborhood; it is
    evidence of stationarity, not a proof of global optimality.
    """
    if solution.mode is not GameMode.STACKELBERG:
        raise ValueError(f"leader sampling applies to the Stackelberg mode, "
                         f"not {solution.mode.value}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    params = solution.params if params is None else params
    lead = solution.policies["retailer"]
    base = np.array([lead.g1, lead.g0, lead.n1, lead.n0, lead.d1, lead.d0],
                    dtype=float)
    rng = np.random.default_rng(seed)
    factors = 1.0 + LEADER_SPREAD * rng.uniform(-1.0, 1.0, size=(samples, 6))
    coefs = np.vstack([base, base * factors])  # row 0 is the baseline
    c = derive_constants(params)
    g1, g0, n1, n0, d1, d0 = coefs.T
    value_f = solution.values["farmer"]
    # follower numerator eta*H + mu_f*V_f'(H), as one affine map of H
    f1 = c.eta + params.mu_f * 2.0 * value_f.A
    f0 = params.mu_f * value_f.B

    def stage(Hv):
        # (E_f, E_r, x) under every rule, by the sampler's own follower
        # reaction: the oracle does not use the solver's policy map
        num = n1 * Hv
        num += n0
        den = d1 * Hv
        den += d0
        x = num / den
        if not den.all():  # 0/0 needs a zero denominator
            x[(num == 0.0) & (den == 0.0)] = 0.0
        share = 1.0 - x
        np.maximum(share, 1e-6, out=share)
        share *= params.lambda_f
        E_f = f1 * Hv
        E_f += f0
        E_f /= share
        E_r = g1 * Hv
        E_r += g0
        return E_f, E_r, x

    def drift(Hv):
        E_f, E_r, _ = stage(Hv)
        return reduction_drift(Hv, E_f, E_r, params)

    h = LEADER_STEP
    half_h = 0.5 * h
    steps = int(round(LEADER_HORIZON / h))
    # a row per time sample, a column per rule: the state, then its rate
    path = np.empty((steps + 1, coefs.shape[0]))
    path[0] = params.H0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(steps):
            H = path[i]
            k1 = drift(H)
            k2 = drift(H + half_h * k1)
            k3 = drift(H + half_h * k2)
            k4 = drift(H + h * k3)
            k2 *= 2.0
            k3 *= 2.0
            k1 += k2
            k1 += k3
            k1 += k4
            k1 *= h
            k1 /= 6.0
            np.add(H, k1, out=path[i + 1])
        for lo in range(0, steps + 1, LEADER_BLOCK_ROWS):
            block = path[lo:lo + LEADER_BLOCK_ROWS]
            block[...] = profits.payoff_rates(
                GameMode.STACKELBERG, block, *stage(block), params).net_r
    path *= profits.discount_weights(np.arange(steps + 1) * h,
                                     params.rho)[:, None]
    payoff = path.sum(axis=0)
    baseline = payoff[0]
    gains = (payoff[1:] - baseline) / max(abs(baseline), 1e-12)
    return {
        "samples": samples,
        "spread": LEADER_SPREAD,
        "seed": seed,
        "baseline_payoff": float(baseline),
        "max_improvement": float(np.max(gains)),
        "improving_samples": int(np.sum(gains > 0.0)),
        "note": "sampled neighborhood stationarity, not exhaustive optimality",
    }


@dataclass
class CertificationReport:
    """Comparison of grid best responses against the analytic solution."""

    mode: GameMode
    window: tuple
    policy_gaps: dict
    value_gaps: dict
    policy_tolerance: float
    value_tolerance: float
    leader_sample: Optional[dict]
    leader_tolerance: float
    passed: bool
    notes: list

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "mode": self.mode.value,
                "window": list(self.window)}


def _window_gaps(br: BestResponse, solution: GameSolution, window_mask,
                 value_role: str) -> tuple:
    policy_gaps = {}
    for role, chosen in br.actions.items():
        analytic = solution.policies[role].effort(br.H)
        scale = max(float(np.max(np.abs(analytic[window_mask]))), 1e-12)
        gap = float(np.max(np.abs(chosen - analytic)[window_mask])) / scale
        policy_gaps[role] = gap
    analytic_v = solution.values[value_role].value(br.H)
    scale = max(float(np.max(np.abs(analytic_v[window_mask]))), 1e-12)
    value_gap = float(np.max(np.abs(br.value - analytic_v)[window_mask])) / scale
    return policy_gaps, {value_role: value_gap}


def equilibrium_check(solution: GameSolution,
                      params: Optional[ModelParams] = None,
                      grid: Optional[GridSpec] = None, samples: int = 200,
                      seed: int = 20260814) -> CertificationReport:
    """Certify a solution against grid best responses.

    Policy and value gaps are relative sup norms over the window
    [0.5*H_d, 1.5*H_d], held to POLICY_TOLERANCE and VALUE_TOLERANCE.
    Decentralized solutions are checked role by role against the other
    side's frozen rule; Stackelberg solutions check the follower's reply to
    the announced rule plus a sampled leader perturbation, whose best gain
    is held to LEADER_TOLERANCE; centralized solutions check the joint
    controller.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    params = solution.params if params is None else params
    if not solution.alpha < 0:
        raise OracleError(
            f"certification needs an attracting steady state; "
            f"alpha = {solution.alpha:.6g}")
    if grid is None:
        grid = default_grid(solution)
    H = grid.states()
    window = (0.5 * solution.H_d, 1.5 * solution.H_d)
    if window[1] > grid.H_max:
        raise OracleError(
            f"grid H_max = {grid.H_max:.6g} does not cover the comparison "
            f"window up to {window[1]:.6g}")
    mask = (H >= window[0]) & (H <= window[1])
    leader_sample = None
    mode = solution.mode
    # (grid reply, the role whose value it is compared with, its note label)
    if mode is GameMode.DECENTRALIZED:
        replies = [(grid_best_response(params, mode, role,
                                       solution.policies[other], grid,
                                       seed_policy=solution.policies[role]),
                    role, f"{role} reply")
                   for role, other in (("farmer", "retailer"),
                                       ("retailer", "farmer"))]
    elif mode is GameMode.STACKELBERG:
        replies = [(grid_best_response(params, mode, "farmer",
                                       solution.policies["retailer"], grid,
                                       seed_policy=solution.policies["farmer"]),
                    "farmer", "follower reply")]
        leader_sample = leader_improvement_sample(solution, params,
                                                  samples=samples, seed=seed)
    else:
        replies = [(grid_best_response(params, mode, "joint", None, grid,
                                       seed_policy=solution.policies),
                    "joint", "joint control")]
    notes, policy_gaps, value_gaps = [], {}, {}
    for br, value_role, label in replies:
        pg, vg = _window_gaps(br, solution, mask, value_role)
        policy_gaps.update(pg)
        value_gaps.update(vg)
        notes.append(f"{label} converged in {br.sweeps} sweeps")
    passed = (all(g <= POLICY_TOLERANCE for g in policy_gaps.values())
              and all(g <= VALUE_TOLERANCE for g in value_gaps.values()))
    if leader_sample is not None:
        passed = passed and leader_sample["max_improvement"] <= LEADER_TOLERANCE
    return CertificationReport(mode=mode, window=window,
                               policy_gaps=policy_gaps, value_gaps=value_gaps,
                               policy_tolerance=POLICY_TOLERANCE,
                               value_tolerance=VALUE_TOLERANCE,
                               leader_sample=leader_sample,
                               leader_tolerance=LEADER_TOLERANCE,
                               passed=passed, notes=notes)

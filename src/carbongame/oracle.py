"""Grid-based dynamic-programming verification of solved equilibria.

This module re-derives strategies without the coefficient solver: each role's
control problem is discretized on a finite state/action grid and solved by
Howard policy iteration (greedy improvement plus exact policy evaluation on
the induced sparse chain). The resulting best responses and values are then
compared against the analytic feedback rules. The Stackelberg leader, whose
problem is not a plain control problem, is instead stress-tested by sampling
perturbed announcement rules and re-simulating the follower's reaction.

Discretization notes: transitions use an explicit Euler step of the drift,
and the per-step reward is rate * (1 - gamma) / rho with gamma = exp(-rho*dt),
which is exact for constant rates (a plain rate*dt reward carries an O(dt)
bias of about rho*dt/2 that would not fit inside the value tolerance).
The continuation value at an off-grid next state is the linear interpolation
between its two neighbouring grid states, clamped to the end values outside
[0, H_max]. The joint greedy step computes it with ``np.interp``, the same
clamped interpolation that ``_positions`` sets up for policy evaluation, and
tabulates the per-role rewards and the effort part of the drift once per
solve, since neither depends on the value. Every (a_f, a_r) pair is still
scored at every state on every sweep.

The joint greedy step splits the farmer actions into contiguous ascending
blocks, one per thread, because ``np.interp`` and the array arithmetic on
each block run with the interpreter lock released. Each block keeps its own
best pair per state under a strict improvement test; the blocks are then
merged in ascending order with the same strict test, which reproduces a
single farmer-major scan exactly: a tie goes to the first farmer index, then
the first retailer index. The thread count is the number of CPUs the process
may use, capped by MAX_GREEDY_THREADS; with one CPU the single block runs
without a pool.

Policy evaluation is the only code in the package that uses scipy (its
sparse direct solver); it imports scipy.sparse on first use, so importing
carbongame, solving and simulating never load scipy.
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
# The joint greedy step runs on at most this many threads; each holds two
# (state, a_r) temporaries, about 2 MB on the default grid.
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
        for name in ("n_states", "n_actions"):
            if getattr(self, name) < 3:
                raise ValueError(f"{name} must be >= 3, got {getattr(self, name)}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")

    def states(self) -> np.ndarray:
        return np.linspace(0.0, self.H_max, self.n_states)

    def actions(self, role: str) -> np.ndarray:
        if role == "farmer":
            return np.linspace(0.0, self.a_max_f, self.n_actions)
        if role == "retailer":
            return np.linspace(0.0, self.a_max_r, self.n_actions)
        raise ValueError(f"unknown action role {role!r}")

    def refined(self, factor: int = 2) -> "GridSpec":
        """A grid with factor-times the resolution in states, actions and time."""
        return dataclasses.replace(
            self, n_states=factor * self.n_states,
            n_actions=factor * self.n_actions, dt=self.dt / factor)


def default_grid(solution: GameSolution, span: float = 2.5,
                 action_span: float = 3.0, **overrides) -> GridSpec:
    """Grid sized from a solution: states to span*H_d, actions to
    action_span times the largest analytic effort over that range."""
    if not solution.alpha < 0:
        raise OracleError(
            f"grid sizing needs an attracting steady state; alpha = {solution.alpha:.6g}")
    H_max = float(span * solution.H_d)
    probe = np.linspace(0.0, H_max, 64)
    a_f = float(np.max(np.abs(solution.policies["farmer"].effort(probe))))
    a_r = float(np.max(np.abs(solution.policies["retailer"].effort(probe))))
    return GridSpec(H_max=H_max, a_max_f=action_span * max(a_f, 1.0),
                    a_max_r=action_span * max(a_r, 1.0), **overrides)


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
    # scipy loads here, not at import: only the certifier pays its import
    # time (a dense np.linalg.solve of this banded system is 10-20x slower)
    from scipy import sparse
    from scipy.sparse.linalg import spsolve
    rows = np.arange(n)
    data = np.concatenate([np.ones(n), -gamma * (1.0 - w), -gamma * w])
    rc = (np.concatenate([rows, rows, rows]),
          np.concatenate([rows, j, np.minimum(j + 1, n - 1)]))
    system = sparse.csr_matrix((data, rc), shape=(n, n))
    return spsolve(system, reward)


def _positions(H: np.ndarray, Hnext: np.ndarray):
    dx = H[1] - H[0]
    pos = np.clip(Hnext, H[0], H[-1]) / dx
    j = np.minimum(pos.astype(np.int64), H.size - 2)
    return j, pos - j


def _howard_single(H: np.ndarray, reward: np.ndarray, Hnext: np.ndarray,
                   gamma: float, max_sweeps: int, seed_policy: np.ndarray):
    n = H.size
    j, w = _positions(H, Hnext)
    rows = np.arange(n)
    policy = seed_policy
    value = np.zeros(n)
    change = np.inf
    for sweep in range(1, max_sweeps + 1):
        new_value = _evaluate_policy(n, j[rows, policy], w[rows, policy],
                                     reward[rows, policy], gamma)
        change = float(np.max(np.abs(new_value - value)))
        value = new_value
        q = reward + gamma * (value[j] * (1.0 - w) + value[np.minimum(j + 1, n - 1)] * w)
        improved = np.argmax(q, axis=1)
        if np.array_equal(improved, policy):
            _check_interior(H, Hnext[rows, policy])
            return value, policy, sweep, change
        policy = improved
    raise OracleError(
        f"policy iteration did not converge within {max_sweeps} sweeps; "
        f"last value change {change:.3e}")


def _seed_indices(actions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    da = actions[1] - actions[0]
    idx = np.rint(targets / da).astype(np.int64)
    return np.clip(idx, 0, actions.size - 1)


def _single_role_response(params: ModelParams, mode: GameMode, role: str,
                          opponent: FeedbackPolicy, grid: GridSpec,
                          seed_policy: Optional[FeedbackPolicy]) -> BestResponse:
    H = grid.states()
    actions = grid.actions(role)
    Hc = H[:, None]
    a_row = actions[None, :]
    opp = opponent.effort(H)[:, None]
    if role == "farmer":
        E_f, E_r = a_row, opp
    else:
        E_f, E_r = opp, a_row
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
        breakdown = profits.payoff_rates(mode, Hc, E_f, E_r, x[:, None], params)
    else:
        breakdown = profits.payoff_rates(mode, Hc, E_f, E_r, None, params)
    rate = breakdown.net_f if role == "farmer" else breakdown.net_r
    gamma = float(np.exp(-params.rho * grid.dt))
    reward = rate * ((1.0 - gamma) / params.rho)
    Hnext = Hc + grid.dt * reduction_drift(Hc, E_f, E_r, params)
    if seed_policy is None:
        seed = np.zeros(H.size, dtype=np.int64)
    else:
        seed = _seed_indices(actions, seed_policy.effort(H))
    value, policy, sweeps, change = _howard_single(
        H, np.broadcast_to(reward, (H.size, actions.size)),
        np.broadcast_to(Hnext, (H.size, actions.size)),
        gamma, grid.max_sweeps, seed)
    return BestResponse(mode=mode, role=role, grid=grid, H=H, value=value,
                        actions={role: actions[policy]}, sweeps=sweeps,
                        value_change=change)


def _greedy_threads() -> int:
    """Threads for the joint greedy step: the CPUs this process may use,
    capped by MAX_GREEDY_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_GREEDY_THREADS)


def _greedy_block(farmer_actions, base, shift, H, continuation, reward_f,
                  reward_r):
    """Best (a_f, a_r) pair per state over the given farmer action indices.

    q = continuation interpolated at base + shift[kf], plus reward_f[:, kf]
    and reward_r. Pairs are scanned farmer-major with a strict improvement
    test, so a tie in q goes to the first farmer index, then the first
    retailer index. Returns the best q and its farmer and retailer indices.
    """
    n = H.size
    rows = np.arange(n)
    best_q = np.full(n, -np.inf)
    best_f = np.zeros(n, dtype=np.int64)
    best_r = np.zeros(n, dtype=np.int64)
    for kf in farmer_actions:
        q = np.interp(base + shift[kf], H, continuation)
        q += reward_f[:, kf, None]
        q += reward_r
        kr = np.argmax(q, axis=1)
        qk = q[rows, kr]
        upgrade = qk > best_q
        best_q[upgrade] = qk[upgrade]
        best_f[upgrade] = kf
        best_r[upgrade] = kr[upgrade]
    return best_q, best_f, best_r


def _greedy_step(blocks, tables, pool) -> tuple:
    """Greedy (farmer, retailer) indices over ascending farmer-action blocks.

    Each block is scanned by ``_greedy_block`` (on ``pool`` when given) and
    the results are merged in block order with the same strict test, which
    reproduces one farmer-major scan over all blocks, ties included.
    """
    if pool is None:
        parts = [_greedy_block(kfs, *tables) for kfs in blocks]
    else:
        parts = list(pool.map(lambda kfs: _greedy_block(kfs, *tables), blocks))
    best_q, best_f, best_r = parts[0]
    for q, kf, kr in parts[1:]:
        upgrade = q > best_q
        best_q[upgrade] = q[upgrade]
        best_f[upgrade] = kf[upgrade]
        best_r[upgrade] = kr[upgrade]
    return best_f, best_r


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

    def policy_step(pf, pr):
        e_f, e_r = af[pf], ar[pr]
        rate = profits.payoff_rates(GameMode.CENTRALIZED, H, e_f, e_r,
                                    None, params).total
        return rate * step, H + grid.dt * reduction_drift(H, e_f, e_r, params)

    # The greedy step's rewards and transitions do not depend on the value,
    # so they are tabulated once per solve. Each role's net rate depends on
    # its own effort only, and the drift is affine in the efforts, so the
    # next state is a per-state base plus a per-action-pair shift.
    rates = profits.payoff_rates(GameMode.CENTRALIZED, H[:, None], af[None, :],
                                 ar[None, :], None, params)
    reward_f = rates.net_f * step  # (state, a_f)
    reward_r = rates.net_r * step  # (state, a_r)
    base = (H + grid.dt * reduction_drift(H, 0.0, 0.0, params))[:, None]
    shift = grid.dt * reduction_drift(0.0, af[:, None], ar[None, :], params)

    threads = min(_greedy_threads(), af.size)
    bounds = [k * af.size // threads for k in range(threads + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    value = np.zeros(n)
    change = np.inf
    with (ThreadPoolExecutor(threads) if threads > 1 else nullcontext()) as pool:
        for sweep in range(1, grid.max_sweeps + 1):
            reward_pol, next_pol = policy_step(pol_f, pol_r)
            j, w = _positions(H, next_pol)
            new_value = _evaluate_policy(n, j, w, reward_pol, gamma)
            change = float(np.max(np.abs(new_value - value)))
            value = new_value
            best_f, best_r = _greedy_step(
                blocks, (base, shift, H, gamma * value, reward_f, reward_r),
                pool)
            if np.array_equal(best_f, pol_f) and np.array_equal(best_r, pol_r):
                _check_interior(H, next_pol)
                return BestResponse(mode=GameMode.CENTRALIZED, role="joint",
                                    grid=grid, H=H, value=value,
                                    actions={"farmer": af[pol_f],
                                             "retailer": ar[pol_r]},
                                    sweeps=sweep, value_change=change)
            pol_f, pol_r = best_f, best_r
    raise OracleError(
        f"policy iteration did not converge within {grid.max_sweeps} sweeps; "
        f"last value change {change:.3e}")


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
                              samples: int = 200, spread: float = 0.1,
                              seed: int = 20260814, T: float = 40.0,
                              h: float = 0.01) -> dict:
    """Sampled stationarity check of the Stackelberg announcement.

    Perturbs the leader's six rule coefficients (effort slope/intercept and
    the four subsidy-rule coefficients) multiplicatively by up to ``spread``,
    lets the follower react through its first-order rule with the follower
    value slope frozen at the solved equilibrium, re-simulates the closed
    loop, and reports the largest relative gain over the unperturbed rule.
    This samples a neighborhood; it is evidence of stationarity, not a proof
    of global optimality.
    """
    if solution.mode is not GameMode.STACKELBERG:
        raise ValueError(f"leader sampling applies to the Stackelberg mode, "
                         f"not {solution.mode.value}")
    params = solution.params if params is None else params
    lead = solution.policies["retailer"]
    base = np.array([lead.g1, lead.g0, lead.n1, lead.n0, lead.d1, lead.d0],
                    dtype=float)
    rng = np.random.default_rng(seed)
    factors = 1.0 + spread * rng.uniform(-1.0, 1.0, size=(samples, 6))
    coefs = np.vstack([base, base * factors])  # row 0 is the baseline
    c = derive_constants(params)
    g1, g0, n1, n0, d1, d0 = coefs.T
    value_f = solution.values["farmer"]
    # follower numerator eta*H + mu_f*V_f'(H), as one affine map of H
    f1 = c.eta + params.mu_f * 2.0 * value_f.A
    f0 = params.mu_f * value_f.B

    mu_f, mu_r, delta = params.mu_f, params.mu_r, params.delta
    lambda_f = params.lambda_f
    # Scalar products of the leader rate p_r*k2*H - 0.5*lambda_r*E_r**2
    # - x*0.5*lambda_f*E_f**2, taken once. The in-place arithmetic below keeps
    # each expression's operation order (halving is exact, so x*half_lf
    # rounds as (x*0.5)*lambda_f), so the samples are bit-identical to it.
    pk2 = params.p_r * c.k2
    half_lr = 0.5 * params.lambda_r
    half_lf = 0.5 * lambda_f
    half_h = 0.5 * h

    def stage(Hv):
        num = n1 * Hv
        num += n0
        den = d1 * Hv
        den += d0
        x = num / den
        if not den.all():  # 0/0 needs a zero denominator
            x[(num == 0.0) & (den == 0.0)] = 0.0
        share = 1.0 - x
        np.maximum(share, 1e-6, out=share)
        share *= lambda_f
        E_f = f1 * Hv
        E_f += f0
        E_f /= share
        E_r = g1 * Hv
        E_r += g0
        return E_f, E_r, x

    def velocity(Hv, E_f, E_r):
        # mu_f*E_f + mu_r*E_r - delta*H, overwriting E_f and E_r
        E_f *= mu_f
        E_r *= mu_r
        E_f += E_r
        E_f -= delta * Hv
        return E_f

    def drift(Hv):
        E_f, E_r, _ = stage(Hv)
        return velocity(Hv, E_f, E_r)

    def leader_rate(Hv, E_f, E_r, x):
        rate = pk2 * Hv
        rate -= half_lr * E_r ** 2
        rate -= x * half_lf * E_f ** 2
        return rate

    steps = int(round(T / h))
    weights = np.exp(-params.rho * np.arange(1, steps + 1) * h)
    H = np.full(coefs.shape[0], float(params.H0))
    payoff = np.zeros(coefs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stage at the end of one step is the first RK4 stage of the
        # next; weighted_prev is weight_prev * rate_prev, weight_prev = 1
        E_f, E_r, x = stage(H)
        weighted_prev = leader_rate(H, E_f, E_r, x)
        for i in range(steps):
            k1 = velocity(H, E_f, E_r)
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
            H = H + k1
            E_f, E_r, x = stage(H)
            weighted = leader_rate(H, E_f, E_r, x)
            weighted *= weights[i]
            weighted_prev += weighted
            weighted_prev *= half_h
            payoff += weighted_prev
            weighted_prev = weighted
    payoff += weighted_prev / params.rho  # frozen-state tail
    baseline = payoff[0]
    gains = (payoff[1:] - baseline) / max(abs(baseline), 1e-12)
    return {
        "samples": samples,
        "spread": spread,
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
        return {
            "mode": self.mode.value,
            "window": list(self.window),
            "policy_gaps": dict(self.policy_gaps),
            "value_gaps": dict(self.value_gaps),
            "policy_tolerance": self.policy_tolerance,
            "value_tolerance": self.value_tolerance,
            "leader_sample": None if self.leader_sample is None
            else dict(self.leader_sample),
            "leader_tolerance": self.leader_tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }


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
                      grid: Optional[GridSpec] = None,
                      policy_tol: float = 0.02, value_tol: float = 0.005,
                      leader_tol: float = 0.005, samples: int = 200,
                      seed: int = 20260814) -> CertificationReport:
    """Certify a solution against grid best responses.

    Policy and value gaps are relative sup norms over the window
    [0.5*H_d, 1.5*H_d]. Decentralized solutions are checked role by role
    against the other side's frozen rule; Stackelberg solutions check the
    follower's reply to the announced rule plus a sampled leader
    perturbation; centralized solutions check the joint controller.
    """
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
    notes = []
    policy_gaps = {}
    value_gaps = {}
    leader_sample = None
    mode = solution.mode
    if mode is GameMode.DECENTRALIZED:
        for role, other in (("farmer", "retailer"), ("retailer", "farmer")):
            br = grid_best_response(params, mode, role,
                                    solution.policies[other], grid,
                                    seed_policy=solution.policies[role])
            pg, vg = _window_gaps(br, solution, mask, role)
            policy_gaps.update(pg)
            value_gaps.update(vg)
            notes.append(f"{role} reply converged in {br.sweeps} sweeps")
    elif mode is GameMode.STACKELBERG:
        br = grid_best_response(params, mode, "farmer",
                                solution.policies["retailer"], grid,
                                seed_policy=solution.policies["farmer"])
        pg, vg = _window_gaps(br, solution, mask, "farmer")
        policy_gaps.update(pg)
        value_gaps.update(vg)
        notes.append(f"follower reply converged in {br.sweeps} sweeps")
        leader_sample = leader_improvement_sample(solution, params,
                                                  samples=samples, seed=seed)
    else:
        br = grid_best_response(params, mode, "joint", None, grid,
                                seed_policy=solution.policies)
        pg, vg = _window_gaps(br, solution, mask, "joint")
        policy_gaps.update(pg)
        value_gaps.update(vg)
        notes.append(f"joint control converged in {br.sweeps} sweeps")
    passed = (all(g <= policy_tol for g in policy_gaps.values())
              and all(g <= value_tol for g in value_gaps.values()))
    if leader_sample is not None:
        passed = passed and leader_sample["max_improvement"] <= leader_tol
    return CertificationReport(mode=mode, window=window,
                               policy_gaps=policy_gaps, value_gaps=value_gaps,
                               policy_tolerance=policy_tol,
                               value_tolerance=value_tol,
                               leader_sample=leader_sample,
                               leader_tolerance=leader_tol,
                               passed=passed, notes=notes)

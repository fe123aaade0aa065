"""Grid-based dynamic-programming verification of solved equilibria.

This module re-derives strategies without the coefficient solver: each role's
control problem is discretized on a finite state/action grid and solved by
Howard policy iteration (greedy improvement plus exact policy evaluation on
the induced banded chain). The resulting best responses and values are then
compared against the analytic feedback rules. The Stackelberg leader, whose
problem is not a plain control problem, is instead stress-tested by sampling
perturbed announcement rules and pricing the follower's reaction. Under
each rule the closed loop is a scalar ODE dH/dt = P(H)/L(H), P quadratic
and L affine, whose coefficients ``model.reduction_drift`` forms once per
rule: the drift is linear in (H, E_f, E_r), and the follower's effort
E_f = (f1*H + f0)/(lambda_f*share) has the cost share L/D, a ratio of
affine maps. The ODE is separable, so the discounted payoff is an integral
over the state from H0 to the steady state the path approaches, priced by
``profits.payoff_rates`` at Gauss-Legendre nodes; the sampler steps no time
grid, so it holds no integrator and no time quadrature of its own.

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
do not depend on the value, and one function, ``grid_best_response``, builds
them once per reply, for every reply. The joint reply pairs the farmer's
(outer) and retailer's (inner) efforts; a single-role reply is the one-block
case, with one zero-reward outer action and the opponent's frozen effort in
the rates and the base.

The greedy step scores only the actions that can win, a form of action
elimination (MacQueen, J. Math. Anal. Appl., 1967; Puterman, Markov
Decision Processes, 1994, section 6.7). With c = gamma*value, state i's
current pair has q = floor[i], formed by the greedy step's own operations,
so it is that pair's computed q exactly. Pair (ko, ki) is scored unless
V[i, ko, ki] < floor[i], where V is at least its computed q
(``_pair_bound``). Per state, with b = base[i, 0]:

- Every computed next state fl(b + s) lies in the window
  [fl(b + min shift), fl(b + max shift)], since rounding is monotone.
- alpha + beta*y is the continuation's segment holding the current next
  state (beta its slope as np.interp forms it). Let P be the clamped
  piecewise-linear continuation. P - (alpha + beta*y) is linear between
  knots, so over the window it is at most e, its largest value at the
  knots that enclose the window; a clamped end counts as a knot, placed at
  the farthest window end beyond it.
- shift[ko, ki] = sf[ko] + sr[ki] + r, with sf = shift[:, 0],
  sr = shift[0] - shift[0, 0] and r a residual, |r| <= R.
- V[i, ko, ki] = alpha + e + beta*(b + sf[ko]) + reward_outer[i, ko]
  + g[i, ki] + |beta|*R + margin, with g = beta*sr[ki] + reward_inner[i, ki].

The test is taken as g[i, ki] < theta[i, ko], with theta = floor - (alpha +
e + |beta|*R + margin) - beta*(b + sf[ko]) - reward_outer[i, ko]. A pair
(i, ko) is live unless its largest g, the pair bound, falls short of
theta, and state i scores one run of inner actions, from the first to the
last whose g reaches the loosest theta of its live pairs, and its current
pair's.

The margin covers the rounding of q and of the test. Take the standard
model, fl(a op b) = (a op b)(1 + d) with |d| <= u = 2^-53, and
g_k = k*u/(1 - k*u). Let C = max|c|, D the largest |slope| of a segment, Y
the window ends' largest magnitude plus max|b| plus 4 max|shift| (at least
every |y|, knot, |b + sf|, |sr| and |r|), and M = C + |alpha| + D*Y
+ max|reward_outer[i]| + max|reward_inner[i]|. Operation by operation, in
units of u*M to first order:

1. q = fl(fl(I + reward_outer) + reward_inner): two sums, 2.
2. np.interp returns I = fl(fl(slope*fl(y - H[k])) + c[k]), slope =
   fl(fl(c[k+1] - c[k]) / fl(H[k+1] - H[k])), on the segment
   H[k] <= y < H[k+1]; at a knot or past an end it returns a value of c
   exactly. With |c[k+1] - c[k]| <= 2C and y - H[k] <= H[k+1] - H[k],
   |I - P(y)| <= 2C*g_5*(1 + u) + u*C: 11. A fused multiply-add only drops
   a rounding.
3. P(y) <= alpha + beta*y + e, exactly.
4. y = fl(b + s): beta*y <= beta*(b + s) + u*|beta|*Y: 1.
5. e from its computed value: three operations per knot, 3.
6. R from its computed value: two subtractions, times |beta|: 2.
7. g from its computed value, a product and a sum: 2.
8. The products beta*fl(b + sf) and |beta|*R: 3.
9. theta sums floor and six terms; with |floor| <= C + max|reward_outer[i]|
   + max|reward_inner[i]|, their magnitudes add up to at most 4M + margin,
   and any order errs by at most g_6 times that: 24. The comparison with g
   and the minimum over live pairs are exact.

That is 48*u*M plus O(u^2*M), and the margin is 64*u*M, formed as
(8M)*2^-50 so that a state whose 8M overflows gets an infinite margin.
Below that no intermediate of q or of the test overflows. A product or
quotient that underflows errs by up to 2^-1075 more. Six can: the slope
and slope*fl(y - H[k]), and beta times a knot, sr, fl(b + sf) and R. The
slope's error is scaled by y - H[k] <= h, the widest segment, so the
margin adds 2^-1022*(1 + h), which also covers the margin's own products.
A non-finite continuation, reward or floor makes g or theta nan or theta
-inf, and g < theta is then false: every such state keeps all its actions.

Ties: a pruned action's q is below floor[i], which is at most the state's
best q, so it neither wins nor ties, and widening a window only adds
actions that are scored as a full scan scores them. The live pairs are
scored in (state, outer) order, each takes its first maximum, and each
state takes the first pair that reaches its best q: a tie goes to the
first outer index, then the first inner index, as in a full outer-major
scan. A single-role reply prunes the same way, with its one outer action.

The certifier reads the model parameters from the solution it checks. Its
pass tolerances, the default grid's spans and the leader sampler's sample
count, seed, spread, node count and exponent are module constants, not
arguments; only the grid can be passed in.

A check is planned, run and assembled in three steps. The plan checks every
precondition (an attracting steady state, the grid, the comparison window)
and lists the check's independent parts: gd's farmer and retailer replies,
gs's follower reply and leader sample, gc's joint reply. Each part runs on
its own and returns its result or its error, and the report is assembled
from the results in that order, so a failed check gives the error a serial
run meets first. One function, equilibrium_checks, does all three for any
number of solutions: it plans every check, hands all their parts, longest
first (``_PART_ORDER``), to one map that its caller chooses, and assembles
every report. equilibrium_check is its one-solution case with the builtin
map; ``experiments.run_verify`` passes a map onto worker processes.

Policy evaluation solves the banded system (I - gamma*P) v = r by Gaussian
elimination without pivoting. Each row's diagonal exceeds the sum of its
off-diagonal magnitudes by 1 - gamma, and on such strictly diagonally
dominant systems elimination without pivoting is stable (Golub & Van Loan,
Matrix Computations, section 4.3).
"""

from __future__ import annotations

import dataclasses
import functools
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
    "equilibrium_checks",
]

INTERIOR_MARGIN = 0.05
# equilibrium_check's bounds on the relative policy and value gaps and on
# the best sampled leader gain
POLICY_TOLERANCE = 0.02
VALUE_TOLERANCE = 0.005
LEADER_TOLERANCE = 0.005
# default_grid: states up to STATE_SPAN*H_d, actions up to ACTION_SPAN times
# the largest analytic effort there.
STATE_SPAN = 2.5
ACTION_SPAN = 3.0
# leader_improvement_sample: LEADER_SAMPLES rules drawn from a generator
# seeded with LEADER_SEED, their coefficients perturbed by up to
# LEADER_SPREAD (relative), each priced in closed form over the state on
# LEADER_NODES Gauss-Legendre nodes in s, with H - r1 proportional to
# s^(LEADER_EXPONENT/kappa). Exponent 3 keeps the integrand smooth for every
# convergence rate kappa: with exponent 1, rules with kappa < 1 were 9e-5 off
# at 48 nodes. At 32 nodes every priced rule is within 1e-8 (relative) of
# RK4 at h = 0.005, and the (201, 32) temporaries take 50 kB each.
LEADER_SAMPLES = 200
LEADER_SEED = 20260814
LEADER_SPREAD = 0.1
LEADER_NODES = 32
LEADER_EXPONENT = 3.0

# The greedy step scores at most this many actions at a time, 512 pairs of
# full windows on the default grid; its two temporaries take about 2 MB.
GREEDY_CHUNK_POINTS = 512 * 257


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
    """Grid-optimal reply of one role, or "joint" for the joint controller.

    value is the reply's value at each grid state H; actions maps role name
    to the chosen effort per state, one key for a single role and both for
    the joint controller; sweeps counts the policy-iteration sweeps.
    """

    role: str
    H: np.ndarray
    value: np.ndarray
    actions: dict
    sweeps: int


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


def _pair_bound(H: np.ndarray, base: np.ndarray, shift: np.ndarray,
                reward_outer: np.ndarray, reward_inner: np.ndarray):
    """The per-action test of the module docstring, as
    upper(continuation, j, floor) -> (theta, g), for the continuation values
    on H, j[i] the segment holding state i's current next state and floor[i]
    its current q: the greedy step's q of pair (ko, ki) at state i can reach
    floor[i] only if g[i, ki] < theta[i, ko] is false.

    Returns None where nothing is pruned: transitions so large that 8 times
    their reach overflows.
    """
    b = base[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        lo = b + shift.min()
        hi = b + shift.max()
        # the knots: H, widened by a clamped knot at each end that a window
        # reaches
        X = np.concatenate(([min(lo.min(), H[0])], H, [max(hi.max(), H[-1])]))
        reach = (max(abs(X[0]), abs(X[-1])) + np.max(np.abs(b))
                 + 4.0 * np.max(np.abs(shift)))
        if not np.isfinite(8.0 * reach):
            return None
    sf = shift[:, 0]
    sr = shift[0] - shift[0, 0]
    residual = np.max(np.abs(shift - sf[:, None] - sr))
    b_sf = b[:, None] + sf
    # state i's candidate knots run from the last one at or below its
    # window's low end to the first one at or above its high end
    first = np.searchsorted(X, lo, side="right") - 1
    last = np.maximum(np.searchsorted(X, hi, side="left"), first)
    knots = np.minimum(first[:, None] + np.arange(np.max(last - first) + 1),
                       last[:, None])
    knot_x = X[knots]
    knot_value = np.clip(knots - 1, 0, H.size - 1)   # index into continuation
    rewards = (np.max(np.abs(reward_outer), axis=1)
               + np.max(np.abs(reward_inner), axis=1))
    tiny = np.finfo(float).tiny * (1.0 + np.max(np.diff(H)))

    def upper(continuation: np.ndarray, j: np.ndarray,
              floor: np.ndarray) -> tuple:
        # a non-finite continuation, reward or floor leaves theta or g nan,
        # or theta -inf, which keeps every action of the state
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(continuation) / np.diff(H)
            beta = slopes[j]
            alpha = continuation[j] - beta * H[j]
            excess = np.max(continuation[knot_value]
                            - (alpha[:, None] + beta[:, None] * knot_x), axis=1)
            scale = (np.max(np.abs(continuation)) + np.abs(alpha)
                     + np.max(np.abs(slopes)) * reach + rewards)
            margin = (8.0 * scale) * 2.0 ** -50 + tiny
            terms = floor - (alpha + excess + np.abs(beta) * residual + margin)
            return (terms[:, None] - beta[:, None] * b_sf - reward_outer,
                    beta[:, None] * sr + reward_inner)

    return upper


def _windows(theta, g, pol_outer, pol_inner) -> tuple:
    """(live, start, stop) from upper's (theta, g): the (state, outer) pairs
    whose largest g reaches theta (every pair of a single outer action),
    and for each state i the run start[i] <= ki < stop[i] from the first to
    the last inner action whose g reaches the loosest theta of i's live
    pairs. The current pair is always kept."""
    rows = np.arange(g.shape[0])
    live = np.ones(theta.shape, dtype=bool)
    if theta.shape[1] > 1:
        live = ~(np.max(g, axis=1)[:, None] < theta)
        live[rows, pol_outer] = True
    pruned = g < np.min(theta, axis=1, where=live, initial=np.inf)[:, None]
    pruned[rows, pol_inner] = False
    return (live, np.argmin(pruned, axis=1),
            pruned.shape[1] - np.argmin(pruned[:, ::-1], axis=1))


def _greedy_step(live, start, stop, base, shift, H, continuation,
                 reward_outer, reward_inner) -> tuple:
    """Greedy (outer, inner) indices per state over the pairs live marks and
    the inner actions start[i] <= ki < stop[i] of each state i.

    live is an (n, n_outer) mask with at least one pair per state. Every
    window is widened to the widest one, moved back inside the inner
    actions where it would pass their end, and the live (state, outer)
    pairs are scored in that order, at most GREEDY_CHUNK_POINTS actions at a
    time: q = continuation interpolated at base + shift[ko, ki], plus
    reward_outer[i, ko] and reward_inner[i, ki]. Each pair takes its first
    maximum in its widened window and each state the first pair that
    reaches its largest q, so a tie goes to the first outer index, then the
    first inner index, as in an outer-major scan with a strict improvement
    test. As in that scan, a pair whose best inner q is nan never wins, and
    a state whose pairs are all nan or -inf keeps (0, 0).
    """
    state, outer = np.divmod(np.flatnonzero(live), live.shape[1])
    width = int(np.max((stop - start)[state]))
    first = np.minimum(start, shift.shape[1] - width)[state]
    shifts, inner = (np.lib.stride_tricks.sliding_window_view(a, width, axis=1)
                     for a in (shift, reward_inner))
    chunk = max(1, GREEDY_CHUNK_POINTS // width)
    best_q = np.empty(state.size)
    best_i = np.empty(state.size, dtype=np.int64)
    for lo in range(0, state.size, chunk):
        s, o, f = (a[lo:lo + chunk] for a in (state, outer, first))
        q = shifts[o, f]
        q += base[s]
        q = np.interp(q, H, continuation)
        q += reward_outer[s, o, None]
        q += inner[s, f]
        ki = np.argmax(q, axis=1)
        best_i[lo:lo + ki.size] = f + ki
        best_q[lo:lo + ki.size] = q[np.arange(ki.size), ki]
    best_q[np.isnan(best_q)] = -np.inf
    top = np.maximum.reduceat(best_q, np.searchsorted(state, np.arange(H.size)))
    hits = np.flatnonzero(best_q == top[state])
    first = hits[np.r_[True, state[hits[1:]] != state[hits[:-1]]]]
    won = best_q[first] > -np.inf
    return np.where(won, outer[first], 0), np.where(won, best_i[first], 0)


def _howard(H: np.ndarray, gamma: float, max_sweeps: int, base: np.ndarray,
            shift: np.ndarray, reward_outer: np.ndarray,
            reward_inner: np.ndarray, pol_outer: np.ndarray,
            pol_inner: np.ndarray):
    """Howard policy iteration over (outer, inner) action pairs: pair
    (ko, ki) at state i earns reward_outer[i, ko] + reward_inner[i, ki] and
    moves to base[i, 0] + shift[ko, ki]. Each greedy step scores, per state,
    only the outer actions and the run of inner actions whose bounds reach
    the q of the state's current pair (see the module docstring). Stops when
    the greedy policy repeats; returns the value, both policies and the
    sweeps."""
    n = H.size
    rows = np.arange(n)
    upper = _pair_bound(H, base, shift, reward_outer, reward_inner)
    kept = (np.ones((n, reward_outer.shape[1]), dtype=bool),
            np.zeros(n, dtype=np.int64), np.full(n, shift.shape[1]))
    value = np.zeros(n)
    change = np.inf
    for sweep in range(1, max_sweeps + 1):
        reward_pol = (reward_outer[rows, pol_outer]
                      + reward_inner[rows, pol_inner])
        next_pol = base[:, 0] + shift[pol_outer, pol_inner]
        j, w = _positions(H, next_pol)
        new_value = _evaluate_policy(n, j, w, reward_pol, gamma)
        change = float(np.max(np.abs(new_value - value)))
        value = new_value
        continuation = gamma * value
        if upper is not None:
            # the current pair's q, by the greedy step's own operations
            floor = (np.interp(next_pol, H, continuation)
                     + reward_outer[rows, pol_outer]
                     + reward_inner[rows, pol_inner])
            kept = _windows(*upper(continuation, j, floor), pol_outer,
                            pol_inner)
        best_outer, best_inner = _greedy_step(
            *kept, base, shift, H, continuation, reward_outer, reward_inner)
        if (np.array_equal(best_outer, pol_outer)
                and np.array_equal(best_inner, pol_inner)):
            _check_interior(H, next_pol)
            return value, pol_outer, pol_inner, sweep
        pol_outer, pol_inner = best_outer, best_inner
    raise OracleError(
        f"policy iteration did not converge within {max_sweeps} sweeps; "
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

    Every reply is built here, as one ``_howard`` problem over (outer,
    inner) action pairs: the joint reply pairs the farmer's efforts (outer)
    with the retailer's (inner), and a single role's efforts are the inner
    axis under one zero-reward outer action.
    """
    mode = GameMode.from_string(mode)
    if mode is GameMode.CENTRALIZED:
        if role != "joint":
            raise ValueError(
                f"centralized verification controls both efforts; role must be "
                f"'joint', got {role!r}")
        if opponent_policy is not None:
            raise ValueError("joint control has no opponent_policy")
    elif role == "joint":
        raise ValueError(f"role 'joint' only applies to the centralized mode, "
                         f"not {mode.value}")
    elif role not in ("farmer", "retailer"):
        raise ValueError(f"unknown role {role!r}")
    elif mode is GameMode.STACKELBERG:
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
    # the acting roles, each with the axis its efforts take in a pair's shift
    if role == "joint":
        axes = {"farmer": np.s_[:, None], "retailer": np.s_[None, :]}
        seeds = seed_policy
    else:
        axes = {role: np.s_[None, :]}
        seeds = None if seed_policy is None else {role: seed_policy}
    roles = ("farmer", "retailer")
    H = grid.states()
    n = H.size
    Hc = H[:, None]
    actions = {r: grid.actions(r) for r in axes}
    # a role that does not act plays the opponent's frozen effort
    frozen = {r: 0.0 if r in axes else opponent_policy.effort(H)[:, None]
              for r in roles}
    x = None
    if mode is GameMode.STACKELBERG:
        x = np.asarray(opponent_policy.subsidy(H), dtype=float)
        if (opponent_policy.n1, opponent_policy.n0, opponent_policy.d1,
                opponent_policy.d0) == (0.0,) * 4:
            x = np.zeros_like(H)  # all-zero rule is 0/0 everywhere: shares nothing
        if not np.all(np.isfinite(x)):
            raise OracleError("subsidy rule is undefined (0/0) on the state grid")
        if np.any(1.0 - x <= 0.0):
            bad = H[1.0 - x <= 0.0][0]
            raise OracleError(
                f"subsidy rule leaves a non-positive effective cost share at "
                f"H = {bad:.6g}; the follower problem is unbounded there")
        x = x[:, None]
    efforts = [actions[r][None, :] if r in axes else frozen[r] for r in roles]
    rates = profits.payoff_rates(mode, Hc, *efforts, x, params)
    gamma = float(np.exp(-params.rho * grid.dt))
    step = (1.0 - gamma) / params.rho
    rewards = [rate * step for r, rate in zip(roles, (rates.net_f, rates.net_r))
               if r in axes]
    base = Hc + grid.dt * reduction_drift(Hc, *frozen.values(), params)
    shift = grid.dt * reduction_drift(
        0.0, *(actions[r][axes[r]] if r in axes else 0.0 for r in roles), params)
    if seeds is None:
        policies = [np.zeros(n, dtype=np.int64) for _ in axes]
    else:
        policies = [_seed_indices(actions[r], seeds[r].effort(H)) for r in axes]
    if len(axes) == 1:  # a single role's one zero-reward outer action
        rewards.insert(0, np.zeros((n, 1)))
        policies.insert(0, np.zeros(n, dtype=np.int64))
    value, *policies, sweeps = _howard(H, gamma, grid.max_sweeps, base, shift,
                                       *rewards, *policies)
    return BestResponse(role=role, H=H, value=value,
                        actions={r: actions[r][policy] for r, policy
                                 in zip(axes, policies[-len(axes):])},
                        sweeps=sweeps)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [0, 1], by Golub and
    Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Legendre polynomials' Jacobi matrix, and the weights are the squared
    first components of its unit eigenvectors. Formed on the first call, so
    importing the module runs no eigensolver."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _leader_payoffs(solution: GameSolution) -> np.ndarray:
    """The leader's discounted payoff from H0 under each sampled rule, the
    unperturbed rule first (see leader_improvement_sample).

    The reaction forms x_f = N/D, N = n1*H + n0 and D = d1*H + d0, in place
    rather than through ``model._subsidy_ratio``, and takes the all-zero
    rule, 0/0 everywhere, as L = D = 1 (x_f = 0), where that helper gives
    nan. A rule's drift, ``reduction_drift`` of the follower's reaction, is
    then P(H)/L(H): the cost share 1 - x_f is L/D with L = D - N, and P is
    quadratic, or affine when n1 = d1 = 0. Let r1 be the root of P that the
    path approaches from H0, r2 the other and A_i = L(r_i)/P'(r_i) (A2 = 0
    for an affine P). Time along the path is
    A1*ln((H - r1)/(H0 - r1)) + A2*ln((H - r2)/(H0 - r2)), so the payoff is
    an integral over the state, and H = r1 + (H0 - r1)*s^(3/kappa), with
    kappa = -rho*A1 and 3 = LEADER_EXPONENT, makes it smooth on [0, 1]:

        (1/rho) int_0^1 3 s^2 r(H) ((H - r2)/(H0 - r2))^(-rho*A2)
                        (1 + (A2/A1) (H - r1)/(H - r2)) ds,

    taken on LEADER_NODES Gauss-Legendre nodes (Davis & Rabinowitz, Methods
    of Numerical Integration, 2nd ed., 1984), with r(H) the leader's rate
    from ``profits.payoff_rates``.

    A rule this cannot price raises OracleError: roots of P that are not
    real and distinct, no root ahead of H0, a root of L or of D on
    [H0, r1], a cost share L/D at or below the 1e-6 floor there, A1 >= 0,
    or a payoff that is not finite.
    """
    params = solution.params
    lead = solution.policies["retailer"]
    base = np.array([lead.g1, lead.g0, lead.n1, lead.n0, lead.d1, lead.d0],
                    dtype=float)
    rng = np.random.default_rng(LEADER_SEED)
    factors = 1.0 + LEADER_SPREAD * rng.uniform(-1.0, 1.0,
                                                size=(LEADER_SAMPLES, 6))
    coefs = np.vstack([base, base * factors])  # row 0 is the baseline
    # a row per rule; the quadrature's nodes add a column each
    g1, g0, n1, n0, d1, d0 = coefs.T[:, :, None]
    value_f = solution.values["farmer"]
    lf, rho, H0 = params.lambda_f, params.rho, float(params.H0)
    # follower numerator eta*H + mu_f*V_f'(H), as one affine map of H
    f1 = derive_constants(params).eta + params.mu_f * 2.0 * value_f.A
    f0 = params.mu_f * value_f.B
    d0 = np.where((n1 == 0.0) & (n0 == 0.0) & (d1 == 0.0) & (d0 == 0.0),
                  1.0, d0)  # the all-zero rule: L = D = 1
    l1, l0 = d1 - n1, d0 - n0
    affine = (n1 == 0.0) & (d1 == 0.0)
    # reduction_drift is linear in (H, E_f, E_r), with
    # E_f = (f1*H + f0)*D/(lambda_f*L) and E_r = g1*H + g0, so
    # P = (e1*H + e0)*D + (a1*H + a0)*L
    e1 = reduction_drift(0.0, f1 / lf, 0.0, params)
    e0 = reduction_drift(0.0, f0 / lf, 0.0, params)
    a1 = reduction_drift(1.0, 0.0, g1, params)
    a0 = reduction_drift(0.0, 0.0, g0, params)
    p2 = e1 * d1 + a1 * l1
    p1 = e1 * d0 + e0 * d1 + a1 * l0 + a0 * l1
    p0 = e0 * d0 + a0 * l0
    # a refused rule's numbers may be inf or nan; its refusal below names it
    with np.errstate(all="ignore"):
        disc = p1 * p1 - 4.0 * p2 * p0
        q = -0.5 * (p1 + np.copysign(np.sqrt(disc), p1))
        lo = np.where(affine, -p0 / p1, np.minimum(q / p2, p0 / q))
        hi = np.where(affine, lo, np.maximum(q / p2, p0 / q))
        # the path runs the way the drift points at H0, to the nearest root
        # that way; a path that starts on a root stays there
        heading = np.sign(((p2 * H0 + p1) * H0 + p0) * (l1 * H0 + l0))
        r1 = np.select([heading > 0, heading < 0],
                       [np.where(lo > H0, lo, hi), np.where(hi < H0, hi, lo)],
                       np.where(abs(lo - H0) <= abs(hi - H0), lo, hi))
        r1[(r1 - H0) * heading < 0.0] = np.nan
        r2 = np.where(r1 == lo, hi, lo)
        A1 = (l1 * r1 + l0) / (2.0 * p2 * r1 + p1)
        A2 = np.where(affine, 0.0, (l1 * r2 + l0) / (2.0 * p2 * r2 + p1))
        # L, D and L/D are monotone between their poles, so on a path that
        # holds no pole their ends bound them
        L = (l1 * H0 + l0, l1 * r1 + l0)
        D = (d1 * H0 + d0, d1 * r1 + d0)
        share = np.minimum(L[0] / D[0], L[1] / D[1])
        refusals = [
            ("drift numerator without two distinct real roots",
             ~np.where(affine, p1 != 0.0, disc > 0.0)),
            ("no root of the drift numerator ahead of H0", np.isnan(r1)),
            ("a zero of the cost share or the subsidy denominator on the "
             "path", ~(L[0] * L[1] > 0.0) | ~(D[0] * D[1] > 0.0)),
            ("a cost share at or below the 1e-6 floor on the path",
             ~(share > 1e-6)),
            ("a limit that does not attract (A1 >= 0)", ~(A1 < 0.0)),
        ]
        s, w = _gauss_legendre(LEADER_NODES)
        H = r1 + (H0 - r1) * s ** (LEADER_EXPONENT / (-rho * A1))
        D_H = d1 * H + d0
        E_f = (f1 * H + f0) * D_H / (lf * (l1 * H + l0))
        rate = profits.payoff_rates(GameMode.STACKELBERG, H, E_f, g1 * H + g0,
                                    (n1 * H + n0) / D_H, params).net_r
        rate *= np.where(affine, 1.0,
                         ((H - r2) / (H0 - r2)) ** (-rho * A2))
        rate *= np.where(affine, 1.0,
                         1.0 + (A2 / A1) * (H - r1) / (H - r2))
        rate *= w * LEADER_EXPONENT * s ** (LEADER_EXPONENT - 1.0)
        payoff = np.sum(rate, axis=1, keepdims=True) / rho
    refusals.append(("a payoff that is not finite", ~np.isfinite(payoff)))
    refused, counts = np.zeros(payoff.shape, dtype=bool), []
    for reason, mask in refusals:
        count = np.count_nonzero(mask & ~refused)
        if count:
            counts.append(f"{count} with {reason}")
        refused |= mask
    if counts:
        raise OracleError(
            f"{np.count_nonzero(refused)} of {payoff.size} sampled leader "
            f"rules cannot be priced: {'; '.join(counts)}")
    return payoff[:, 0]


def leader_improvement_sample(solution: GameSolution) -> dict:
    """Sampled stationarity check of the Stackelberg announcement.

    Perturbs the leader's six rule coefficients (effort slope/intercept and
    the four subsidy-rule coefficients) multiplicatively by up to
    LEADER_SPREAD in LEADER_SAMPLES draws seeded with LEADER_SEED, lets the
    follower react through its first-order rule with the follower value
    slope frozen at the solved equilibrium, prices each rule's closed loop
    from H0 in closed form over the state (``_leader_payoffs``: no time
    grid, horizon or tail), and reports the largest relative gain over the
    unperturbed rule. A sampled rule that the closed form cannot price (a
    pole or a floored cost share on its path, no attracting limit, a payoff
    that is not finite) raises OracleError, as the grid reply does for a
    non-positive cost share. This samples a neighborhood; it is evidence of
    stationarity, not a proof of global optimality.
    """
    if solution.mode is not GameMode.STACKELBERG:
        raise ValueError(f"leader sampling applies to the Stackelberg mode, "
                         f"not {solution.mode.value}")
    payoff = _leader_payoffs(solution)
    baseline = payoff[0]
    gains = (payoff[1:] - baseline) / max(abs(baseline), 1e-12)
    return {
        "samples": LEADER_SAMPLES,
        "spread": LEADER_SPREAD,
        "seed": LEADER_SEED,
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


def _window_gaps(br: BestResponse, solution: GameSolution,
                 window: tuple) -> tuple:
    window_mask = (br.H >= window[0]) & (br.H <= window[1])
    policy_gaps = {}
    for role, chosen in br.actions.items():
        analytic = solution.policies[role].effort(br.H)
        scale = max(float(np.max(np.abs(analytic[window_mask]))), 1e-12)
        gap = float(np.max(np.abs(chosen - analytic)[window_mask])) / scale
        policy_gaps[role] = gap
    analytic_v = solution.values[br.role].value(br.H)
    scale = max(float(np.max(np.abs(analytic_v[window_mask]))), 1e-12)
    value_gap = float(np.max(np.abs(br.value - analytic_v)[window_mask])) / scale
    return policy_gaps, {br.role: value_gap}


# A certification's parts, longest first. Their serial cost on the default
# grid, median over the 24 scenarios of bench verify seeds 1-3 (5 runs each),
# is 13 ms for the joint reply, 7.0 ms for the follower reply, 6.3 ms for a
# gd farmer reply, 3.3 ms for the gd retailer reply and 0.8 ms (0.6-1.0) for
# the leader sample (2-vCPU VM, Python 3.11, numpy 2.4). Run on a pool in
# this order, they balance the workers by Graham's longest-processing-time
# rule (SIAM J. Appl. Math. 17(2), 1969).
_PART_ORDER = ("joint control", "follower reply", "farmer reply",
               "retailer reply", "leader sample")


def _certification_plan(solution: GameSolution,
                        grid: Optional[GridSpec] = None) -> tuple:
    """A check's preconditions, then its independent parts.

    Returns (window, parts). Each part is a (label, args) pair for
    _run_part, labelled as in _PART_ORDER, listed in the order a serial
    check runs them: gd the farmer reply then the retailer reply, gs the
    follower reply then the leader sample, gc the joint reply.
    """
    if not solution.alpha < 0:
        raise OracleError(
            f"certification needs an attracting steady state; "
            f"alpha = {solution.alpha:.6g}")
    if grid is None:
        grid = default_grid(solution)
    window = (0.5 * solution.H_d, 1.5 * solution.H_d)
    if window[1] > grid.H_max:
        raise OracleError(
            f"grid H_max = {grid.H_max:.6g} does not cover the comparison "
            f"window up to {window[1]:.6g}")
    params, mode, policies = solution.params, solution.mode, solution.policies
    if mode is GameMode.DECENTRALIZED:
        parts = [(f"{role} reply", (params, mode, role, policies[other], grid,
                                    policies[role]))
                 for role, other in (("farmer", "retailer"),
                                     ("retailer", "farmer"))]
    elif mode is GameMode.STACKELBERG:
        parts = [("follower reply", (params, mode, "farmer",
                                     policies["retailer"], grid,
                                     policies["farmer"])),
                 ("leader sample", (solution,))]
    else:
        parts = [("joint control", (params, mode, "joint", None, grid,
                                    policies))]
    return window, parts


def _run_part(part: tuple):
    """One certification part's result: a BestResponse, or the leader
    sample's mapping, or the OracleError or ValueError that stopped it,
    returned as run_compare's cells return theirs. The functions are looked
    up when the part runs, so a worker calls what this module held at the
    worker's own fork, which may precede the call that sent the part."""
    label, args = part
    try:
        if label == "leader sample":
            return leader_improvement_sample(*args)
        return grid_best_response(*args)
    except (OracleError, ValueError) as exc:
        return exc


def _certification_report(solution: GameSolution, window: tuple, parts,
                          results):
    """The report from the plan's parts and their results, in plan order, or
    the first result that is an error, which is the error a serial check
    meets first."""
    leader_sample = None
    notes, policy_gaps, value_gaps = [], {}, {}
    for (label, _), result in zip(parts, results):
        if isinstance(result, Exception):
            return result
        if label == "leader sample":
            leader_sample = result
            continue
        pg, vg = _window_gaps(result, solution, window)
        policy_gaps.update(pg)
        value_gaps.update(vg)
        notes.append(f"{label} converged in {result.sweeps} sweeps")
    passed = (all(g <= POLICY_TOLERANCE for g in policy_gaps.values())
              and all(g <= VALUE_TOLERANCE for g in value_gaps.values()))
    if leader_sample is not None:
        passed = passed and leader_sample["max_improvement"] <= LEADER_TOLERANCE
    return CertificationReport(mode=solution.mode, window=window,
                               policy_gaps=policy_gaps, value_gaps=value_gaps,
                               policy_tolerance=POLICY_TOLERANCE,
                               value_tolerance=VALUE_TOLERANCE,
                               leader_sample=leader_sample,
                               leader_tolerance=LEADER_TOLERANCE,
                               passed=passed, notes=notes)


def equilibrium_checks(solutions: dict, *, grid: Optional[GridSpec] = None,
                       run=map) -> dict:
    """Each solution's certification, keyed as solutions: its
    CertificationReport, or the OracleError or ValueError that a serial
    check of it meets first.

    Every check is planned first, so a failed precondition costs no grid
    reply. The planned parts of all checks then go to run(_run_part, parts)
    as one list, the longest first (_PART_ORDER); run is map, or a map onto
    worker processes that keeps the parts' order, as experiments.run_verify
    passes. Each report is assembled from its own parts' results in plan
    order.
    """
    outcomes, tasks = {}, []
    for key, solution in solutions.items():
        try:
            outcomes[key] = _certification_plan(solution, grid)
        except (OracleError, ValueError) as exc:
            outcomes[key] = exc
            continue
        tasks += [(key, index, part)
                  for index, part in enumerate(outcomes[key][1])]
    tasks.sort(key=lambda task: _PART_ORDER.index(task[2][0]))
    results = run(_run_part, [part for _, _, part in tasks])
    done = dict(zip([(key, index) for key, index, _ in tasks], results))
    for key, outcome in outcomes.items():
        if not isinstance(outcome, Exception):
            window, parts = outcome
            outcomes[key] = _certification_report(
                solutions[key], window, parts,
                [done[key, index] for index in range(len(parts))])
    return outcomes


def equilibrium_check(solution: GameSolution, *,
                      grid: Optional[GridSpec] = None) -> CertificationReport:
    """Certify a solution against grid best responses, at the solution's
    own parameters, on grid (default_grid(solution) if None).

    Policy and value gaps are relative sup norms over the window
    [0.5*H_d, 1.5*H_d], held to POLICY_TOLERANCE and VALUE_TOLERANCE.
    Decentralized solutions are checked role by role against the other
    side's frozen rule; Stackelberg solutions check the follower's reply to
    the announced rule plus a sampled leader perturbation, whose best gain
    is held to LEADER_TOLERANCE; centralized solutions check the joint
    controller.

    This is equilibrium_checks on the one solution, in this process: every
    part runs, and the error a serial check meets first is raised.
    """
    (report,) = equilibrium_checks({solution.mode: solution},
                                   grid=grid).values()
    if isinstance(report, Exception):
        raise report
    return report

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
on its own effort only, and the drift is affine in the efforts. The base and
shift do not depend on the value, and one function, ``grid_best_response``,
builds them once per reply, for every reply. The joint reply pairs the
farmer's (outer) and retailer's (inner) efforts; a single-role reply is the
one-block case, with one zero-reward outer action and the opponent's frozen
effort in the rates and the base. No reward table is built: the rewards are
priced by ``profits.payoff_rates`` at the gathered (state, action) points
where they are needed, with the same elementwise operations as on a full
mesh, so every reward and q has the bits a full table gives.

The greedy step scores only the actions that can win, a form of action
elimination (MacQueen, J. Math. Anal. Appl., 1967; Puterman, Markov
Decision Processes, 1994, section 6.7). With c = gamma*value, state i's
current pair has q = floor[i], formed by the greedy step's own operations,
so it is that pair's computed q exactly. Per state, with b = base[i, 0]:

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
- So q of pair (ko, ki) is at most alpha + e + beta*b + |beta|*R + margin
  + h[i, ko] + g[i, ki], in exact arithmetic on computed terms, with
  h = beta*sf + reward_outer and g = beta*sr + reward_inner.

Neither h nor g is formed. Three facts of the model bound them with a few
numbers per state:

(a) The drift is affine in the efforts (``model.reduction_drift``), so sf
    and sr are linear in the action index k up to rounding: for either
    axis s, |s[k] - m*k| <= d with m = s[K]/K, K the last index, and d
    measured once per reply (``_line``).
(b) Each component of a payoff rate (``profits.payoff_rates``: the margin,
    the carbon sink p_c*(1 + omega*E)*Q, the effort cost lambda*E^2/2 and
    the subsidy x_f times that cost) is constant, affine or a multiple of
    E^2 in the acting effort E >= 0. So a role's net rate is quadratic in
    its own effort, and each component's magnitude on [0, a_max] peaks at
    an end.
(c) The rate's E^2 coefficient is -lambda/2 times the cost share, 1 - x_f
    for the follower in gs and 1 otherwise; lambda > 0, and
    ``grid_best_response`` refuses a share 1 - x_f <= 0. So the rate is
    concave in the effort.

``grid_best_response`` reads each acting role's reward off payoff_rates at
the effort indices 0, K//4, K//2 and K, in one (n, 4) call per role
(``_reward_curve``): c2*k^2 + c1*k + c0 through the rewards at 0, K//2 and
K, checked at K//4, and S[i], the step times the largest sum of the six
components' magnitudes there, which bounds every reward of state i and
every intermediate of its rate. Each sweep, a curve per state and axis,

    B = c1 + beta*m,  C = c0 + |beta|*d + 2^-40*(2*S + |beta|*max|s|),
    c2*k^2 + B*k + C >= h or g at every action k,

gives the test: pair (ko, ki) is pruned where Go(ko) + Gi(ki) < theta,
with theta = floor - (alpha + e + |beta|*R + margin) - beta*b, Gi the
inner curve and Go the outer one (Go = 0 for a single role's one outer
action). An outer action is scored unless Go(ko) plus Gi's largest value
on [0, K] falls short of theta, and an inner one unless Gi(ki) plus Go's
largest value does: each is the run of k around the curve's vertex
v = -B/(2*c2) within the square root of (top - level)/(-c2), top = C +
B*v/2 the curve's value at v (``_run``). That is a few operations per
state each sweep; no (state, action) reward, g, h, theta or comparison
array is formed (``_windows``). A state whose curve is not concave, misses
its check node or is not finite, or whose theta is nan, keeps every
action, as where the model facts fail; theta = -inf keeps every action
too.

The margin covers the rounding of q and of theta. Take the standard model,
fl(a op b) = (a op b)(1 + d) with |d| <= u = 2^-53, and g_k = k*u/(1 - k*u).
Let C0 = max|c|, D the largest |slope| of a segment, Y the window ends'
largest magnitude plus max|b| plus 4 max|shift| (at least every |y|, knot,
|b|, |sf|, |sr| and |r|), and M = C0 + |alpha| + D*Y + S_outer[i]
+ S_inner[i] (S_outer = 0 for one outer action). Operation by operation,
in units of u*M to first order:

1. q = fl(fl(I + reward_outer) + reward_inner): two sums, 2.
2. np.interp returns I = fl(fl(slope*fl(y - H[k])) + c[k]), slope =
   fl(fl(c[k+1] - c[k]) / fl(H[k+1] - H[k])), on the segment
   H[k] <= y < H[k+1]; at a knot or past an end it returns a value of c
   exactly. With |c[k+1] - c[k]| <= 2*C0 and y - H[k] <= H[k+1] - H[k],
   |I - P(y)| <= 2*C0*g_5*(1 + u) + u*C0: 11. A fused multiply-add only
   drops a rounding.
3. P(y) <= alpha + beta*y + e, exactly.
4. y = fl(b + s): beta*y <= beta*(b + s) + u*|beta|*Y: 1.
5. e from its computed value: three operations per knot, 3.
6. R from its computed value: two subtractions, times |beta|: 2.
7. The products beta*b and |beta|*R: 2.
8. theta sums floor and five terms; with |floor| <= C0 + S_outer[i]
   + S_inner[i], their magnitudes add up to at most 4M + margin, and any
   order errs by at most g_6 times that: 24.

That is 45*u*M plus O(u^2*M), and the margin is 64*u*M, formed as
(8M)*2^-50 so that a state whose 8M overflows gets an infinite margin.
Below that no intermediate of q or of theta overflows. A product or
quotient that underflows errs by up to 2^-1075 more. Five can: the slope
and slope*fl(y - H[k]), and beta times a knot, b and R. The slope's error
is scaled by y - H[k] <= h, the widest segment, so the margin adds
2^-1022*(1 + h), which also covers the margin's own products.

The curves take their own slack, 2^-40 (REWARD_SLACK, 8192u), per unit of
N = S + |beta|*max|s|; in units of u*N to first order:

9. A computed reward: payoff_rates forms each component with at most four
   roundings relative to itself (its one sum, 1 + omega*E, adds
   nonnegative terms), the net rate with at most three sums and the reward
   with one product: 8. The grid effort fl(k*fl(a_max/K)) is within 2u of
   k*a_max/K, and E*|d rate/dE| <= 2S: 4. So every reward is within 12 of
   an exact quadratic in k.
10. The curve: the exact quadratic through the three computed node rewards
    is within 5/3 of 12 of that quadratic on [0, K] (5/3 bounds the
    Lebesgue constant of the nodes 0, K//2, K). The coefficients' rounding
    moves the curve at a node by at most 50, as each divided difference
    carries at most three roundings on differences of at most twice the
    largest reward, so by at most 5/3 of 50 on [0, K]: with item 9, 120.
11. d adds 3 relative to max|s|; B = fl(c1 + fl(beta*m)), times k <= K,
    errs by 2u*(|c1|*K + |beta|*max|s|), and |c1|*K is at most 10 times
    the largest reward: 20; C's sums: 4.

So each curve is within 150*u*N of a bound of h or g, and its slack,
2^-40*(2S + |beta|*max|s|), is more than 50 times that. A reward rate
that is quadratic passes the check node by the same margin, and one that
is not fails it unless it agrees with a quadratic there. The run and the
largest value add their own slack:

12. The vertex takes one rounding and the top three, so top gets
    2^-40*(|C| + |B*v|) added; a level, theta minus the other curve's
    largest value, is lowered by 2^-40 of |level| plus twice that value's
    magnitude, keeping an infinite level's sign; the square root of
    (top - level)/(-c2) carries three relative roundings, and the run's
    ends are padded by 2^-40*(|v| + half-width) before they are rounded
    to integers. The largest value is the curve at v clipped to [0, K]
    plus 2^-40 of its terms' magnitudes; a clipped vertex that is off by u
    relative costs at most u^2*|B*v|. Each of these covers an error of a
    few u, and an added 2^-1022 covers up to four underflows.

Ties: a pruned action's q is below floor[i], which is at most the state's
best q, so it neither wins nor ties, and widening a window only adds
actions that are scored as a full scan scores them. The scored pairs are
taken in (state, outer) order, each takes its first maximum, and each
state takes the first pair that reaches its best q: a tie goes to the
first outer index, then the first inner index, as in a full outer-major
scan. A single-role reply prunes the same way, with its one outer action.

The certifier reads the model parameters from the solution it checks. Its
pass tolerances, the default grid's spans and the leader sampler's sample
count, seed, spread, node count and exponent are module constants, not
arguments; only the grid can be passed in.

One function, ``equilibrium_check``, certifies a solution. It checks every
precondition first (an attracting steady state, a grid that covers the
comparison window and holds a state in it), so a refused check costs no
grid reply. Then it runs the check's parts in order: gd's farmer and
retailer replies, gs's follower reply and leader sample, gc's joint
reply. The first error propagates, and no later part runs.
``experiments.run_verify`` calls it in each mode's worker task.

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
# The relative slack of the reward curves' bounds, 8192 times the unit
# roundoff; the module docstring derives what it covers.
REWARD_SLACK = 2.0 ** -40
_TINY = np.finfo(float).tiny


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
            # a bool is an int to Python, but not a count
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
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

    Row i holds nothing left of column min(j[i], i) to begin with, and
    eliminating with pivot row k only fills columns right of k, so row i
    starts its elimination at column j[i], and a row with j[i] >= i has
    nothing to eliminate: the multipliers skipped are exactly zero.
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
    upper = range(lo + 1, lo + 1 + hi)   # a row's places right of its diagonal
    for i, first in enumerate(j.tolist()):
        if first < i:
            row = rows[i]
            for k in range(first, i):
                # pivot row k's place c is row i's place c + k - i
                at = k - i
                m = row[at + lo]
                if m:
                    pivot = rows[k]
                    m /= pivot[lo]
                    for c in upper:
                        row[at + c] -= m * pivot[c]
                    b[i] -= m * b[k]
    # columns past n - 1 stay zero, so back substitution reads v padded
    v = [0.0] * (n + hi)
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = b[i]
        at = i - lo
        for c in upper:
            s -= row[c] * v[at + c]
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


def _curve_nodes(n_actions: int) -> np.ndarray:
    """The effort indices a reward curve is read at: the first, the check
    node a quarter of the way, the middle and the last."""
    last = n_actions - 1
    return np.array([0, last // 4, last // 2, last])


def _reward_curve(nodes: np.ndarray, rewards: np.ndarray,
                  scale: np.ndarray) -> tuple:
    """Each state's reward as a concave quadratic in the acting effort's
    index k, (c2, c1, c0, scale): every computed reward of state i is within
    REWARD_SLACK*scale[i] of c2*k^2 + c1*k + c0 (see the module docstring).

    rewards[i, j] is state i's reward at effort index nodes[j], the
    _curve_nodes; the curve runs through the first, middle and last, and is
    checked at the quarter. scale[i] bounds the magnitude of every reward of
    state i and of every intermediate of its rate. c2 is nan where the curve
    is not concave or misses the check node, so the state keeps every
    action.
    """
    _, kc, km, kl = nodes.astype(float)
    r0, rc, rm, rl = rewards.T
    with np.errstate(all="ignore"):
        d0 = (rm - r0) / km
        c2 = ((rl - rm) / (kl - km) - d0) / kl
        c1 = d0 - c2 * km
        miss = np.abs((c2 * kc + c1) * kc + r0 - rc)
        concave = (c2 < 0.0) & (miss <= REWARD_SLACK * scale)
    return np.where(concave, c2, np.nan), c1, r0, scale


def _line(shifts: np.ndarray) -> tuple:
    """(m, size, miss) of one axis of shift: shifts[k] = m*k up to miss,
    its largest deviation plus the slack of forming it, and size the
    largest |shifts|."""
    k = np.arange(shifts.size)
    m = shifts[-1] / k[-1]
    size = np.max(np.abs(shifts))
    return m, size, np.max(np.abs(shifts - m * k)) + REWARD_SLACK * size


def _pair_bound(H: np.ndarray, base: np.ndarray, shift: np.ndarray,
                outer: Optional[tuple], inner: tuple):
    """The per-action test of the module docstring, as
    upper(continuation, j, floor) -> (theta, inner_curve, outer_curve), for
    the continuation values on H, j[i] the segment holding state i's current
    next state and floor[i] its current q: the greedy step's q of pair
    (ko, ki) at state i can reach floor[i] only if
    outer_curve(ko) + inner_curve(ki) < theta[i] is false, each curve
    (a, b, c) meaning a*k^2 + b*k + c per state. inner and outer are the
    rewards' _reward_curve, outer None for a single role's one zero-reward
    outer action, whose bound is 0 exactly and whose curve upper returns as
    None.

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
    # state i's candidate knots run from the last one at or below its
    # window's low end to the first one at or above its high end
    first = np.searchsorted(X, lo, side="right") - 1
    last = np.maximum(np.searchsorted(X, hi, side="left"), first)
    knots = np.minimum(first[:, None] + np.arange(np.max(last - first) + 1),
                       last[:, None])
    knot_x = X[knots]
    knot_value = np.clip(knots - 1, 0, H.size - 1)   # index into continuation
    curves = [(inner, _line(sr))]
    if outer is not None:
        curves.append((outer, _line(sf)))
    rewards = sum(curve[3] for curve, _ in curves)
    tiny = np.finfo(float).tiny * (1.0 + np.max(np.diff(H)))

    def upper(continuation: np.ndarray, j: np.ndarray,
              floor: np.ndarray) -> tuple:
        # a non-finite continuation, reward or floor leaves theta or a
        # curve nan, or theta -inf, which keeps every action of the state
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(continuation) / np.diff(H)
            beta = slopes[j]
            alpha = continuation[j] - beta * H[j]
            excess = np.max(continuation[knot_value]
                            - (alpha[:, None] + beta[:, None] * knot_x), axis=1)
            scale = (np.max(np.abs(continuation)) + np.abs(alpha)
                     + np.max(np.abs(slopes)) * reach + rewards)
            margin = (8.0 * scale) * 2.0 ** -50 + tiny
            theta = (floor - (alpha + excess + np.abs(beta) * residual + margin)
                     - beta * b)
            size_beta = np.abs(beta)
            bounds = [(c2, c1 + beta * m,
                       c0 + size_beta * miss
                       + REWARD_SLACK * (2.0 * bound + size_beta * span))
                      for (c2, c1, c0, bound), (m, span, miss) in curves]
        return theta, bounds[0], bounds[1] if outer is not None else None

    return upper


def _top(curve: tuple, n: int) -> np.ndarray:
    """Per state, an upper bound of a*k^2 + b*k + c over 0 <= k <= n - 1:
    its value at the vertex clipped to that range, plus the slack of
    forming it; nan where the curve is."""
    a, b, c = curve
    with np.errstate(all="ignore"):
        k = np.clip(-b / (2.0 * a), 0.0, n - 1.0)
        return ((a * k + b) * k + c
                + (REWARD_SLACK * (np.abs(a) * k * k + np.abs(b) * k
                                   + np.abs(c)) + _TINY))


def _below(theta: np.ndarray, top) -> np.ndarray:
    """theta - top, lowered by the slack of forming it; an infinite
    difference keeps its sign."""
    with np.errstate(all="ignore"):
        level = theta - top
        return (level * np.where(level > 0.0, 1.0 - REWARD_SLACK,
                                 1.0 + REWARD_SLACK)
                - (2.0 * REWARD_SLACK) * np.abs(top))


def _run(curve: tuple, level: np.ndarray, n: int, current: np.ndarray):
    """(start, stop) per state: the run of 0 <= k < n where
    a*k^2 + b*k + c reaches level, around the vertex, joined with the
    current action; every k where the curve or the level is nan."""
    a, b, c = curve
    with np.errstate(all="ignore"):
        vertex = -b / (2.0 * a)
        top = c + 0.5 * (b * vertex)
        squared = ((top + (REWARD_SLACK * (np.abs(c) + np.abs(b * vertex))
                           + _TINY) - level) / -a)
        empty = squared < 0.0
        half = np.sqrt(np.where(empty, 0.0, squared))
        pad = REWARD_SLACK * (np.abs(vertex) + half)
        lo = np.ceil(vertex - half - pad)
        hi = np.floor(vertex + half + pad) + 1.0
        unbounded = np.isnan(lo) | np.isnan(hi)
        start = np.clip(np.where(unbounded, 0.0, lo), 0, n)
        stop = np.clip(np.where(unbounded, n, hi), 0, n)
    empty = ~unbounded & (empty | (start >= stop))
    start = np.where(empty, current, np.minimum(start, current))
    stop = np.where(empty, current + 1, np.maximum(stop, current + 1))
    return start.astype(np.int64), stop.astype(np.int64)


def _windows(theta, inner, outer, n_outer: int, n_inner: int, pol_outer,
             pol_inner) -> tuple:
    """(outer_start, outer_stop, start, stop) from upper's (theta, inner,
    outer): per state i, the run of outer actions whose curve plus the inner
    curve's largest value reaches theta[i] (the one outer action of a
    single role), and the run of inner actions whose curve plus the outer
    curve's largest value does. The current pair is always kept, and a
    state with a nan curve or theta keeps every action. Each step is a few
    operations per state (see the module docstring for the slack)."""
    if outer is None:
        level = _below(theta, 0.0)
        outer_run = np.zeros_like(pol_outer), pol_outer + 1
    else:
        level = _below(theta, _top(outer, n_outer))
        outer_run = _run(outer, _below(theta, _top(inner, n_inner)), n_outer,
                         pol_outer)
    return (*outer_run, *_run(inner, level, n_inner, pol_inner))


def _greedy_step(outer_start, outer_stop, start, stop, base, shift, H,
                 continuation, reward_outer, reward_inner) -> tuple:
    """Greedy (outer, inner) indices per state over the outer actions
    outer_start[i] <= ko < outer_stop[i] and the inner actions
    start[i] <= ki < stop[i] of each state i.

    reward_outer(states, index) and reward_inner(states, index) price the
    rewards at gathered states and action indices. Every inner window is
    widened to the widest one and moved back inside the inner actions where
    it would pass their end, and the (state, outer) pairs are scored in
    that order, at most GREEDY_CHUNK_POINTS actions at a time:
    q = continuation interpolated at base + shift[ko, ki], plus the outer
    and the inner reward. Each pair takes its first maximum in its widened
    window and each state the first pair that reaches its largest q, so a
    tie goes to the first outer index, then the first inner index, as in an
    outer-major scan with a strict improvement test. As in that scan, a
    pair whose best inner q is nan never wins, and a state whose pairs are
    all nan or -inf keeps (0, 0).
    """
    counts = outer_stop - outer_start
    state = np.repeat(np.arange(H.size), counts)
    outer = np.arange(state.size) - np.repeat(
        np.cumsum(counts) - counts - outer_start, counts)
    width = int(np.max(stop - start))
    first = np.minimum(start, shift.shape[1] - width)
    # the rewards, priced once: every pair's outer, every state's window
    paid = reward_outer(state, outer)
    inner = reward_inner(np.arange(H.size)[:, None],
                         first[:, None] + np.arange(width))
    first = first[state]
    shifts = np.lib.stride_tricks.sliding_window_view(shift, width, axis=1)
    chunk = max(1, GREEDY_CHUNK_POINTS // width)
    best_q = np.empty(state.size)
    best_i = np.empty(state.size, dtype=np.int64)
    for lo in range(0, state.size, chunk):
        s, o, f, p = (a[lo:lo + chunk] for a in (state, outer, first, paid))
        q = shifts[o, f]
        q += base[s]
        q = np.interp(q, H, continuation)
        q += p[:, None]
        q += inner[s]
        ki = np.argmax(q, axis=1)
        best_i[lo:lo + ki.size] = f + ki
        best_q[lo:lo + ki.size] = q[np.arange(ki.size), ki]
    best_q[np.isnan(best_q)] = -np.inf
    top = np.maximum.reduceat(best_q, np.searchsorted(state, np.arange(H.size)))
    hits = np.flatnonzero(best_q == top[state])
    first = hits[np.r_[True, state[hits[1:]] != state[hits[:-1]]]]
    won = best_q[first] > -np.inf
    return np.where(won, outer[first], 0), np.where(won, best_i[first], 0)


def _zero_reward(states, index) -> np.ndarray:
    """A single role's one zero-reward outer action, at gathered points."""
    return np.zeros(np.broadcast_shapes(np.shape(states), np.shape(index)))


def _howard(H: np.ndarray, gamma: float, max_sweeps: int, base: np.ndarray,
            shift: np.ndarray, outer: Optional[tuple], inner: tuple,
            pol_outer: np.ndarray, pol_inner: np.ndarray):
    """Howard policy iteration over (outer, inner) action pairs: pair
    (ko, ki) at state i earns reward_outer(i, ko) + reward_inner(i, ki) and
    moves to base[i, 0] + shift[ko, ki]. inner is (reward_inner, curve),
    the reward priced at gathered points and its _reward_curve, and so is
    outer, or None for a single role's one zero-reward outer action. Each
    greedy step scores, per state, only the runs of outer and inner actions
    whose bounds reach the q of the state's current pair (see the module
    docstring). Stops when the greedy policy repeats; returns the value,
    both policies and the sweeps."""
    n = H.size
    rows = np.arange(n)
    n_outer, n_inner = shift.shape
    reward_outer, curve_outer = (_zero_reward, None) if outer is None else outer
    reward_inner, curve_inner = inner
    upper = _pair_bound(H, base, shift, curve_outer, curve_inner)
    kept = (np.zeros(n, dtype=np.int64), np.full(n, n_outer),
            np.zeros(n, dtype=np.int64), np.full(n, n_inner))
    value = np.zeros(n)
    change = np.inf
    for sweep in range(1, max_sweeps + 1):
        outer_pol = reward_outer(rows, pol_outer)
        inner_pol = reward_inner(rows, pol_inner)
        next_pol = base[:, 0] + shift[pol_outer, pol_inner]
        j, w = _positions(H, next_pol)
        new_value = _evaluate_policy(n, j, w, outer_pol + inner_pol, gamma)
        change = float(np.max(np.abs(new_value - value)))
        value = new_value
        continuation = gamma * value
        if upper is not None:
            # the current pair's q, by the greedy step's own operations
            floor = np.interp(next_pol, H, continuation) + outer_pol + inner_pol
            kept = _windows(*upper(continuation, j, floor), n_outer, n_inner,
                            pol_outer, pol_inner)
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


# the components of a payoff rate, whose magnitudes bound its rounding
_COMPONENTS = ("margin_f", "sink_f", "cost_f", "margin_r", "cost_r", "subsidy")


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
    axis under one zero-reward outer action. The outer rewards are one
    (state, outer action) table; the inner rewards are priced by
    ``profits.payoff_rates`` only where the greedy step scores them, and
    read off it at four efforts per state for their curve.
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
    rows = np.arange(n)
    actions = {r: grid.actions(r) for r in axes}
    # a role that does not act plays the opponent's frozen effort
    frozen = {r: 0.0 if r in axes else opponent_policy.effort(H)
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
    gamma = float(np.exp(-params.rho * grid.dt))
    step = (1.0 - gamma) / params.rho

    def rates(acting: str, states, index):
        # payoff_rates at the states, acting playing its index-th effort
        efforts = (actions[r][index] if r == acting
                   else frozen[r] if r in axes else frozen[r][states]
                   for r in roles)
        return profits.payoff_rates(mode, H[states], *efforts,
                                    None if x is None else x[states], params)

    def priced(acting: str) -> tuple:
        # acting's reward at gathered points, and its curve, read off its
        # rates at the curve nodes
        net = "net_f" if acting == "farmer" else "net_r"

        def reward(states, index):
            return getattr(rates(acting, states, index), net) * step

        nodes = _curve_nodes(actions[acting].size)
        at_nodes = rates(acting, rows[:, None], nodes)
        with np.errstate(over="ignore"):  # an infinite scale prunes nothing
            scale = step * np.max(sum(np.abs(getattr(at_nodes, name))
                                      for name in _COMPONENTS), axis=1)
        return reward, _reward_curve(nodes, getattr(at_nodes, net) * step,
                                     scale)

    *outer, inner = axes
    base = (H + grid.dt * reduction_drift(H, *frozen.values(), params))[:, None]
    shift = grid.dt * reduction_drift(
        0.0, *(actions[r][axes[r]] if r in axes else 0.0 for r in roles), params)
    if seeds is None:
        policies = [np.zeros(n, dtype=np.int64) for _ in axes]
    else:
        policies = [_seed_indices(actions[r], seeds[r].effort(H)) for r in axes]
    if not outer:  # a single role's one zero-reward outer action
        policies.insert(0, np.zeros(n, dtype=np.int64))
    value, *policies, sweeps = _howard(
        H, gamma, grid.max_sweeps, base, shift,
        priced(*outer) if outer else None, priced(inner), *policies)
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
                 inside: np.ndarray) -> tuple:
    policy_gaps = {}
    for role, chosen in br.actions.items():
        analytic = solution.policies[role].effort(br.H)
        scale = max(float(np.max(np.abs(analytic[inside]))), 1e-12)
        gap = float(np.max(np.abs(chosen - analytic)[inside])) / scale
        policy_gaps[role] = gap
    analytic_v = solution.values[br.role].value(br.H)
    scale = max(float(np.max(np.abs(analytic_v[inside]))), 1e-12)
    value_gap = float(np.max(np.abs(br.value - analytic_v)[inside])) / scale
    return policy_gaps, {br.role: value_gap}


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

    The preconditions (an attracting steady state, a grid that covers the
    window and holds a state in it) are checked before any reply runs. The
    parts then run in order: gd the farmer reply then the retailer reply,
    gs the follower reply then the leader sample, gc the joint reply. The
    first OracleError or ValueError propagates, and no later part runs.
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
    H = grid.states()
    inside = (H >= window[0]) & (H <= window[1])
    if not np.any(inside):
        raise OracleError(
            f"grid of {grid.n_states} states holds no state in the comparison "
            f"window [{window[0]:.6g}, {window[1]:.6g}]")
    params, mode, policies = solution.params, solution.mode, solution.policies
    leader_sample = None
    if mode is GameMode.DECENTRALIZED:
        replies = {f"{role} reply": grid_best_response(
            params, mode, role, policies[other], grid, policies[role])
            for role, other in (("farmer", "retailer"),
                                ("retailer", "farmer"))}
    elif mode is GameMode.STACKELBERG:
        replies = {"follower reply": grid_best_response(
            params, mode, "farmer", policies["retailer"], grid,
            policies["farmer"])}
        leader_sample = leader_improvement_sample(solution)
    else:
        replies = {"joint control": grid_best_response(
            params, mode, "joint", None, grid, policies)}
    notes, policy_gaps, value_gaps = [], {}, {}
    for label, reply in replies.items():
        pg, vg = _window_gaps(reply, solution, inside)
        policy_gaps.update(pg)
        value_gaps.update(vg)
        notes.append(f"{label} converged in {reply.sweeps} sweeps")
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

"""Grid dynamic-programming verification layer.

These tests certify the analytic solutions against an independent numeric
route (policy iteration on a state/action grid) and pin down the error
handling that keeps that route honest.
"""

import ast
import dataclasses
import importlib.util
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import carbongame
from carbongame import (
    FeedbackPolicy,
    GameMode,
    GridSpec,
    ModelParams,
    OracleError,
    ParameterError,
    default_grid,
    equilibrium_check,
    grid_best_response,
    leader_improvement_sample,
    solve,
)
from carbongame import oracle, solver
from carbongame.model import (
    SolutionDiagnostics,
    derive_constants,
    reduction_drift,
)
from carbongame.oracle import (
    _evaluate_policy,
    _greedy_step,
    _positions,
    _seed_indices,
)
from carbongame.profits import payoff_rates, value_at

from reference_values import CASES, CERTIFICATIONS


@pytest.fixture(scope="module")
def baseline_gd():
    return solve("gd", ModelParams())


@pytest.fixture(scope="module")
def baseline_gs():
    return solve("gs", ModelParams())


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="H_max must be > 0, got 0"):
        GridSpec(H_max=0, a_max_f=1.0, a_max_r=1.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="n_states must be >= 3"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, n_states=2)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, max_sweeps=0)
    for name in ("H_max", "a_max_f", "a_max_r", "dt"):
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            GridSpec(**{"H_max": 1.0, "a_max_f": 1.0, "a_max_r": 1.0,
                        name: math.inf})
        with pytest.raises(ValueError, match=f"{name} must be > 0, got nan"):
            GridSpec(**{"H_max": 1.0, "a_max_f": 1.0, "a_max_r": 1.0,
                        name: math.nan})
    for name in ("n_states", "n_actions", "max_sweeps"):
        with pytest.raises(ValueError,
                           match=f"{name} must be an integer, got 100.0"):
            GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, **{name: 100.0})
    assert GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0,
                    n_states=np.int64(64)).states().size == 64
    grid = GridSpec(H_max=2.0, a_max_f=4.0, a_max_r=2.0, n_states=5,
                    n_actions=3)
    assert grid.states() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.actions("farmer") == pytest.approx([0.0, 2.0, 4.0])
    assert grid.actions("retailer") == pytest.approx([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="unknown action role"):
        grid.actions("joint")


@pytest.mark.parametrize("name", ["n_states", "n_actions", "max_sweeps"])
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_grid_spec_refuses_a_bool_count(name, flag):
    # a bool is an int to Python; max_sweeps=True was stored as True, and
    # n_states=True was refused only by the >= 3 bound
    with pytest.raises(ValueError,
                       match=f"{name} must be an integer, got {flag!r}"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, **{name: flag})


def test_default_grid_sized_from_the_solution(baseline_gd):
    grid = default_grid(baseline_gd)
    assert grid.H_max == pytest.approx(2.5 * baseline_gd.H_d)
    top_f = baseline_gd.policies["farmer"].effort(grid.H_max)
    assert grid.a_max_f == pytest.approx(3.0 * top_f)
    unstable = dataclasses.replace(baseline_gd, alpha=0.1)
    with pytest.raises(OracleError, match="attracting steady state"):
        default_grid(unstable)


def test_decentralized_certification_passes(baseline_gd):
    report = equilibrium_check(baseline_gd)
    assert report.passed
    assert set(report.policy_gaps) == {"farmer", "retailer"}
    assert set(report.value_gaps) == {"farmer", "retailer"}
    assert all(g < 0.02 for g in report.policy_gaps.values())
    assert all(g < 0.005 for g in report.value_gaps.values())
    assert report.leader_sample is None
    assert report.window == pytest.approx((0.5 * baseline_gd.H_d,
                                           1.5 * baseline_gd.H_d))
    assert any("converged in" in n for n in report.notes)
    d = report.to_dict()
    assert d["mode"] == "gd" and d["passed"] is True


def test_stackelberg_certification_passes(baseline_gs):
    report = equilibrium_check(baseline_gs)
    assert report.passed
    assert set(report.policy_gaps) == {"farmer"}
    assert report.policy_gaps["farmer"] < 0.02
    assert report.value_gaps["farmer"] < 0.005
    sample = report.leader_sample
    assert sample["improving_samples"] == 0
    assert sample["max_improvement"] < 0.0
    assert sample["baseline_payoff"] == pytest.approx(
        CASES["baseline"]["gs"]["V_r_H0"], rel=1e-3)
    # pinned from the sampler's closed-form pricing (seed 20260814, 200
    # samples, 32 Gauss-Legendre nodes over the state); a faster sampler
    # must reproduce them, not just pass the tolerance
    assert sample["baseline_payoff"] == pytest.approx(9042.136390885238,
                                                      rel=0, abs=1e-9)
    assert sample["max_improvement"] == pytest.approx(-5.42966727456874e-05,
                                                      rel=0, abs=1e-9)


def test_centralized_certification_passes():
    sol = solve("gc", ModelParams())
    report = equilibrium_check(sol)
    assert report.passed
    assert set(report.policy_gaps) == {"farmer", "retailer"}
    assert set(report.value_gaps) == {"joint"}


def _reference_joint_response(params, grid, seeds):
    """Joint Howard iteration whose greedy step rebuilds the reward, the
    drift and the interpolation weights for every (a_f, a_r) pair. Pairs are
    scanned farmer-major with a strict improvement test, so ties go to the
    first farmer index, then the first retailer index."""
    H = grid.states()
    n = H.size
    af, ar = grid.actions("farmer"), grid.actions("retailer")
    gamma = float(np.exp(-params.rho * grid.dt))
    step = (1.0 - gamma) / params.rho
    gc = GameMode.CENTRALIZED

    def reward_and_next(e_f, e_r):
        rate = payoff_rates(gc, H, e_f, e_r, None, params).total
        return rate * step, H + grid.dt * reduction_drift(H, e_f, e_r, params)

    def continuation(value, nxt):
        j, w = _positions(H, nxt)
        return gamma * (value[j] * (1.0 - w)
                        + value[np.minimum(j + 1, n - 1)] * w)

    if seeds is None:
        pol_f = np.zeros(n, dtype=np.int64)
        pol_r = np.zeros(n, dtype=np.int64)
    else:
        pol_f = _seed_indices(af, seeds["farmer"].effort(H))
        pol_r = _seed_indices(ar, seeds["retailer"].effort(H))
    value = np.zeros(n)
    for sweep in range(1, grid.max_sweeps + 1):
        reward, nxt = reward_and_next(af[pol_f], ar[pol_r])
        j, w = _positions(H, nxt)
        value = _evaluate_policy(n, j, w, reward, gamma)
        best_q = np.full(n, -np.inf)
        best_f = np.zeros(n, dtype=np.int64)
        best_r = np.zeros(n, dtype=np.int64)
        for kf in range(af.size):
            for kr in range(ar.size):
                reward, nxt = reward_and_next(af[kf], ar[kr])
                q = reward + continuation(value, nxt)
                upgrade = q > best_q
                best_q[upgrade] = q[upgrade]
                best_f[upgrade] = kf
                best_r[upgrade] = kr
        if np.array_equal(best_f, pol_f) and np.array_equal(best_r, pol_r):
            return af[pol_f], ar[pol_r], value, sweep
        pol_f, pol_r = best_f, best_r
    raise AssertionError("reference policy iteration did not converge")


@pytest.mark.parametrize("params, warm", [
    (ModelParams(), True),
    (ModelParams(lambda_f=540.0, mu_r=0.465, rho=0.735), False),
], ids=["baseline-warm", "perturbed-cold"])
def test_joint_greedy_step_matches_the_pairwise_reference(params, warm):
    sol = solve("gc", params)
    grid = default_grid(sol, n_states=64, n_actions=33)
    seeds = sol.policies if warm else None
    br = grid_best_response(params, "gc", "joint", None, grid,
                            seed_policy=seeds)
    ref_f, ref_r, ref_value, ref_sweeps = _reference_joint_response(
        params, grid, seeds)
    assert np.array_equal(br.actions["farmer"], ref_f)
    assert np.array_equal(br.actions["retailer"], ref_r)
    assert br.sweeps == ref_sweeps
    assert br.value == pytest.approx(ref_value, rel=1e-12)


# the nine parameters the e^+-1 draws scale
DRAWN = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "p_c", "delta",
         "rho", "theta")


def _solvable_draw(mode, seed):
    """A solution of mode at ModelParams scaled by e^U(-1, 1) in each DRAWN
    field, redrawn until the solver and default_grid accept it."""
    rng = np.random.default_rng(seed)
    base = ModelParams()
    for _ in range(100):
        factors = np.exp(rng.uniform(-1.0, 1.0, len(DRAWN)))
        params = dataclasses.replace(base, **{
            name: getattr(base, name) * float(f) for name, f in zip(DRAWN, factors)})
        try:
            sol = solve(mode, params)
            return params, sol, default_grid(sol, n_states=64, n_actions=33)
        except (solver.SolverError, ParameterError, OracleError):
            continue
    raise AssertionError(f"no solvable {mode} draw")


def _full_mesh(params, mode, role, opponent, grid) -> dict:
    """The brute-force reward tables of a reply: payoff_rates on the whole
    (state, effort) mesh times the reward step, for each acting role, with
    a role that does not act at the opponent's effort."""
    H = grid.states()
    gamma = float(np.exp(-params.rho * grid.dt))
    acting = ("farmer", "retailer") if role == "joint" else (role,)
    efforts = [grid.actions(r)[None, :] if r in acting
               else opponent.effort(H)[:, None] for r in ("farmer", "retailer")]
    x = (opponent.subsidy(H)[:, None] if mode is GameMode.STACKELBERG
         else None)
    rates = payoff_rates(mode, H[:, None], *efforts, x, params)
    return {r: getattr(rates, "net_f" if r == "farmer" else "net_r")
            * ((1.0 - gamma) / params.rho) for r in acting}


def _howard_args(monkeypatch, params, mode, role, opponent, grid, seed):
    """The arguments grid_best_response hands _howard: (H, gamma,
    max_sweeps, base, shift, outer, inner, pol_outer, pol_inner)."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_howard", lambda *args: calls.append(args)
                      or (np.zeros(grid.n_states), *args[-2:], 1))
        grid_best_response(params, mode, role, opponent, grid,
                           seed_policy=seed)
    (args,) = calls
    return args


def _curve_values(curve, n_states, n_actions):
    """A curve (a, b, c) at every action index, per state; 0 for the None
    curve of a single role's one outer action, and +inf where a state has
    no curve (it keeps every action)."""
    if curve is None:
        return np.zeros((n_states, 1))
    a, b, c = (x[:, None] for x in curve)
    k = np.arange(n_actions)
    values = (a * k + b) * k + c
    return np.where(np.isnan(values), np.inf, values)


def _live(outer_start, outer_stop, n_outer):
    """The (state, outer) pairs in the outer runs, as a mask."""
    k = np.arange(n_outer)
    return (outer_start[:, None] <= k) & (k < outer_stop[:, None])


def _check_bounds_along_howard(H, gamma, max_sweeps, base, shift, outer,
                               inner, pol_outer, pol_inner, reward_outer,
                               reward_inner):
    """Howard iteration on brute-force q tables, reward_outer and
    reward_inner, with the curves of the (reward, curve) pairs outer and
    inner that grid_best_response hands _howard (outer None for a single
    role). Every sweep checks that the curves' per-action bound is at least
    the computed q of every (state, outer, inner) triple, that the kept
    runs hold every action whose q reaches the state's current q and the
    current pair, then moves to the brute-force greedy policy. Returns the
    fixed point's live mask and inner windows."""
    n = H.size
    rows = np.arange(n)
    n_outer, n_inner = shift.shape
    upper = oracle._pair_bound(H, base, shift,
                               None if outer is None else outer[1], inner[1])
    for _ in range(max_sweeps):
        next_pol = base[:, 0] + shift[pol_outer, pol_inner]
        j, w = _positions(H, next_pol)
        value = _evaluate_policy(n, j, w, reward_outer[rows, pol_outer]
                                 + reward_inner[rows, pol_inner], gamma)
        continuation = gamma * value
        # q as the greedy step forms it, for every (state, outer, inner)
        q = np.interp(shift + base[:, :, None], H, continuation)
        q += reward_outer[:, :, None]
        q += reward_inner[:, None, :]
        # the current pair's q, as _howard forms it, is the greedy step's
        floor = (np.interp(next_pol, H, continuation)
                 + reward_outer[rows, pol_outer] + reward_inner[rows, pol_inner])
        assert np.array_equal(floor, q[rows, pol_outer, pol_inner])
        # at floor = 0, the curves' sum minus theta is the per-action bound
        theta, inner_curve, outer_curve = upper(continuation, j, np.zeros(n))
        bound = (_curve_values(outer_curve, n, n_outer)[:, :, None]
                 + _curve_values(inner_curve, n, n_inner)[:, None, :]
                 - theta[:, None, None])
        assert np.all(bound >= q)
        outer_start, outer_stop, start, stop = oracle._windows(
            *upper(continuation, j, floor), n_outer, n_inner, pol_outer,
            pol_inner)
        live = _live(outer_start, outer_stop, n_outer)
        inner_k = np.arange(n_inner)
        window = (start[:, None] <= inner_k) & (inner_k < stop[:, None])
        reach = q >= floor[:, None, None]
        assert np.all(live[:, :, None] & window[:, None, :] | ~reach)
        assert np.all((start <= pol_inner) & (pol_inner < stop))
        assert np.all(live[rows, pol_outer])
        flat = q.reshape(n, -1).argmax(axis=1)
        best_outer, best_inner = np.divmod(flat, n_inner)
        if (np.array_equal(best_outer, pol_outer)
                and np.array_equal(best_inner, pol_inner)):
            return live, start, stop
        pol_outer, pol_inner = best_outer, best_inner
    raise AssertionError("policy iteration did not converge")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_pair_bound_is_at_least_every_inner_maximum(monkeypatch, seed, warm):
    # the joint reply's tables, built as the parent built them, against the
    # curves grid_best_response hands _howard
    params, sol, grid = _solvable_draw("gc", seed)
    H = grid.states()
    n = H.size
    af, ar = grid.actions("farmer"), grid.actions("retailer")
    gamma = float(np.exp(-params.rho * grid.dt))
    rates = payoff_rates(GameMode.CENTRALIZED, H[:, None], af[None, :],
                         ar[None, :], None, params)
    reward_f = rates.net_f * ((1.0 - gamma) / params.rho)
    reward_r = rates.net_r * ((1.0 - gamma) / params.rho)
    base = (H + grid.dt * reduction_drift(H, 0.0, 0.0, params))[:, None]
    shift = grid.dt * reduction_drift(0.0, af[:, None], ar[None, :], params)
    if warm:
        pol_f = _seed_indices(af, sol.policies["farmer"].effort(H))
        pol_r = _seed_indices(ar, sol.policies["retailer"].effort(H))
    else:
        pol_f = np.zeros(n, dtype=np.int64)
        pol_r = np.zeros(n, dtype=np.int64)
    args = _howard_args(monkeypatch, params, "gc", "joint", None, grid,
                        sol.policies if warm else None)
    for handed, built in zip(args[3:5] + args[7:], (base, shift, pol_f, pol_r)):
        assert np.array_equal(handed, built)
    live, start, stop = _check_bounds_along_howard(
        H, gamma, grid.max_sweeps, base, shift, *args[5:7], pol_f, pol_r,
        reward_f, reward_r)
    # at the fixed point the bounds rule out most (state, farmer, retailer)
    # actions
    assert np.mean(live) < 0.5
    assert np.sum(live.sum(axis=1) * (stop - start)) < 0.1 * live.size * ar.size


@pytest.mark.parametrize("mode, role, other", [
    (GameMode.DECENTRALIZED, "farmer", "retailer"),
    (GameMode.DECENTRALIZED, "retailer", "farmer"),
    (GameMode.STACKELBERG, "farmer", "retailer"),
], ids=["gd-farmer", "gd-retailer", "gs-follower"])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_per_action_bound_holds_on_the_single_role_tables(monkeypatch, mode,
                                                          role, other, seed,
                                                          warm):
    # the curves grid_best_response hands _howard, checked along the
    # brute-force iteration on the full-mesh tables
    params, sol, grid = _solvable_draw(mode, seed)
    H, gamma, max_sweeps, base, shift, outer, *rest = _howard_args(
        monkeypatch, params, mode, role, sol.policies[other], grid,
        sol.policies[role] if warm else None)
    assert shift.shape[0] == 1 and outer is None  # one zero-reward action
    table = _full_mesh(params, mode, role, sol.policies[other], grid)[role]
    live, start, stop = _check_bounds_along_howard(
        H, gamma, max_sweeps, base, shift, outer, *rest,
        np.zeros((grid.n_states, 1)), table)
    # at the fixed point the windows rule out most actions
    assert np.mean(stop - start) < 0.1 * shift.shape[1]


def test_pair_bound_gives_up_once_eight_times_its_reach_overflows():
    # the margin is formed from 8 times the reach; where that overflows
    # there is no bound, and every pair stays live
    H = np.linspace(0.0, 1.0, 5)
    shift = np.array([[0.0, 0.1], [0.2, 0.3]])
    curve = (np.full(H.size, -1.0), np.zeros(H.size), np.zeros(H.size),
             np.ones(H.size))
    for level, bounded in ((1e307, True), (5e307, False)):
        base = np.full((H.size, 1), level)
        upper = oracle._pair_bound(H, base, shift, curve, curve)
        assert (upper is not None) is bounded


REPLIES = [(GameMode.DECENTRALIZED, "farmer", "retailer"),
           (GameMode.DECENTRALIZED, "retailer", "farmer"),
           (GameMode.STACKELBERG, "farmer", "retailer"),
           (GameMode.CENTRALIZED, "joint", None)]
REPLY_IDS = ["gd-farmer", "gd-retailer", "gs-follower", "gc-joint"]


def _reply_args(mode, role, other, draw):
    """(params, opponent, grid, seed_policy) of a certification's reply: at
    the baseline (draw None) or at _solvable_draw(mode, draw), on a 64 x 33
    grid, warm-started from the solution as certification starts it."""
    if draw is None:
        params = ModelParams()
        sol = solve(mode, params)
        grid = default_grid(sol, n_states=64, n_actions=33)
    else:
        params, sol, grid = _solvable_draw(mode, draw)
    if other is None:
        return params, None, grid, sol.policies
    return params, sol.policies[other], grid, sol.policies[role]


@pytest.mark.parametrize("mode, role, other", REPLIES, ids=REPLY_IDS)
@pytest.mark.parametrize("draw", [None, 0, 1],
                         ids=["baseline", "draw-0", "draw-1"])
def test_priced_rewards_are_the_full_mesh_at_every_scored_point(
        monkeypatch, mode, role, other, draw):
    # every reward a reply prices at gathered points, the greedy step's and
    # the current policy's, has the bits of payoff_rates' full mesh times
    # the step at those points
    params, opponent, grid, seed = _reply_args(mode, role, other, draw)
    tables = _full_mesh(params, mode, role, opponent, grid)
    if role == "joint":
        outer_table, inner_table = tables["farmer"], tables["retailer"]
    else:
        outer_table, inner_table = np.zeros((grid.n_states, 1)), tables[role]
    priced, howard = [], oracle._howard

    def recorded(reward, table):
        def price(states, index):
            out = reward(states, index)
            priced.append((table, states, index, out))
            return out
        return price

    def recording(H, gamma, max_sweeps, base, shift, outer, inner, *pols):
        if outer is not None:
            outer = (recorded(outer[0], outer_table), outer[1])
        inner = (recorded(inner[0], inner_table), inner[1])
        return howard(H, gamma, max_sweeps, base, shift, outer, inner, *pols)

    monkeypatch.setattr(oracle, "_howard", recording)
    br = grid_best_response(params, mode, role, opponent, grid,
                            seed_policy=seed)
    # the inner rewards at the current policy and in the greedy step, every
    # sweep, and the joint reply's outer rewards as well
    assert len(priced) == 2 * br.sweeps * (2 if role == "joint" else 1)
    for table, states, index, out in priced:
        assert np.array_equal(out, table[states, index])


@pytest.mark.parametrize("mode, role, other", REPLIES, ids=REPLY_IDS)
def test_no_reply_prices_a_state_by_effort_mesh(monkeypatch, mode, role,
                                                other):
    # on the default grid no reply calls payoff_rates on an (n_states,
    # n_actions) argument, nor on a quarter as many points in any shape: the
    # curves read four efforts per state and the greedy step prices windows
    # a few efforts wide
    sol = solve(mode, ModelParams())
    grid = default_grid(sol)
    shapes, rates = [], oracle.profits.payoff_rates

    def recording(mode, H, E_f, E_r, x_f, params):
        shapes.append([np.shape(a) for a in (H, E_f, E_r, x_f)
                       if a is not None])
        return rates(mode, H, E_f, E_r, x_f, params)

    monkeypatch.setattr(oracle.profits, "payoff_rates", recording)
    seed = sol.policies if role == "joint" else sol.policies[role]
    grid_best_response(ModelParams(), mode, role,
                       None if other is None else sol.policies[other], grid,
                       seed_policy=seed)
    mesh = (grid.n_states, grid.n_actions)
    assert shapes
    assert not any(mesh in call for call in shapes)
    largest = max(math.prod(np.broadcast_shapes(*call)) for call in shapes)
    assert largest < mesh[0] * mesh[1] // 4


def _reference_single_response(params, mode, role, opponent, grid, seed):
    """Single-role Howard iteration on the full (state, action) q table: the
    reward and the next state of every action at every state, and the
    continuation blended from the two neighbouring grid values. Ties go to
    the first action index."""
    H = grid.states()
    n = H.size
    actions = grid.actions(role)
    Hc = H[:, None]
    opp = opponent.effort(H)[:, None]
    E_f, E_r = ((actions[None, :], opp) if role == "farmer"
                else (opp, actions[None, :]))
    x = (opponent.subsidy(H)[:, None] if mode is GameMode.STACKELBERG
         else None)
    rates = payoff_rates(mode, Hc, E_f, E_r, x, params)
    rate = rates.net_f if role == "farmer" else rates.net_r
    gamma = float(np.exp(-params.rho * grid.dt))
    reward = rate * ((1.0 - gamma) / params.rho)
    j, w = _positions(H, Hc + grid.dt * reduction_drift(Hc, E_f, E_r, params))
    rows = np.arange(n)
    if seed is None:
        policy = np.zeros(n, dtype=np.int64)
    else:
        policy = _seed_indices(actions, seed.effort(H))
    for sweep in range(1, grid.max_sweeps + 1):
        value = _evaluate_policy(n, j[rows, policy], w[rows, policy],
                                 reward[rows, policy], gamma)
        q = reward + gamma * (value[j] * (1.0 - w)
                              + value[np.minimum(j + 1, n - 1)] * w)
        improved = np.argmax(q, axis=1)
        if np.array_equal(improved, policy):
            return actions[policy], value, sweep
        policy = improved
    raise AssertionError("reference policy iteration did not converge")


@pytest.mark.parametrize("mode, role, other", [
    (GameMode.DECENTRALIZED, "farmer", "retailer"),
    (GameMode.DECENTRALIZED, "retailer", "farmer"),
    (GameMode.STACKELBERG, "farmer", "retailer"),
], ids=["gd-farmer", "gd-retailer", "gs-follower"])
@pytest.mark.parametrize("params, warm", [
    (ModelParams(), True),
    (ModelParams(lambda_f=540.0, mu_r=0.465, rho=0.735), False),
], ids=["baseline-warm", "perturbed-cold"])
def test_single_role_reply_matches_the_q_table_reference(mode, role, other,
                                                         params, warm):
    sol = solver.solve(mode, params)
    grid = default_grid(sol, n_states=64, n_actions=33)
    seed = sol.policies[role] if warm else None
    br = grid_best_response(params, mode, role, sol.policies[other], grid,
                            seed_policy=seed)
    ref_actions, ref_value, ref_sweeps = _reference_single_response(
        params, mode, role, sol.policies[other], grid, seed)
    assert list(br.actions) == [role]
    assert np.array_equal(br.actions[role], ref_actions)
    assert br.sweeps == ref_sweeps
    assert br.value == pytest.approx(ref_value, rel=1e-12)


def _tied_tables():
    """Greedy-step tables over 3 states, 4 farmer and 4 retailer actions,
    with a constant continuation so that q = 0.5 + reward_f + reward_r.

    State 0 ties at farmer 1, 2 and 3 (retailer 2 and 3); state 1 ties at
    farmer 0 and 1 (retailer 1 and 2); state 2 has one best pair, (3, 0).
    """
    H = np.array([0.0, 1.0, 2.0])
    reward_f = np.array([[0.0, 1.0, 1.0, 1.0],
                         [1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    reward_r = np.array([[0.0, 0.0, 1.0, 1.0],
                         [0.0, 1.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
    return (np.zeros((3, 1)), np.zeros((4, 4)), H, np.full(3, 0.5),
            reward_f, reward_r)


def _priced(table):
    """A reward table as the greedy step prices rewards: at gathered
    (state, action index) points."""
    return lambda states, index: table[states, index]


# every action; then only the pairs and the inner runs that reach their
# state's best q (state 2's window is widened to the widest, two actions),
# as (outer_start, outer_stop, start, stop)
TIED_WINDOWS = [(np.zeros(3, dtype=np.int64), np.full(3, 4),
                 np.zeros(3, dtype=np.int64), np.full(3, 4)),
                (np.array([1, 0, 3]), np.array([4, 2, 4]),
                 np.array([2, 1, 0]), np.array([4, 3, 1]))]


@pytest.mark.parametrize("windows", TIED_WINDOWS, ids=["all-live", "pruned"])
def test_greedy_ties_go_to_the_first_farmer_then_retailer(windows):
    *tables, reward_f, reward_r = _tied_tables()
    best_f, best_r = _greedy_step(*windows, *tables, _priced(reward_f),
                                  _priced(reward_r))
    assert best_f.tolist() == [1, 0, 3]
    assert best_r.tolist() == [2, 1, 0]


def _tied_bound(continuation, reward_f, reward_r):
    """The tied tables' (theta, inner, outer) at the current pairs (0, 0),
    whose next states are all H[0], on the first segment, with each table's
    curve read off it at the curve nodes. Every window is that one point, a
    knot."""
    base, shift, H, _, *_ = _tied_tables()
    nodes = oracle._curve_nodes(4)
    outer, inner = (oracle._reward_curve(nodes, table[:, nodes],
                                         np.max(np.abs(table), axis=1))
                    for table in (reward_f, reward_r))
    upper = oracle._pair_bound(H, base, shift, outer, inner)
    zeros = np.zeros(3, dtype=np.int64)
    floor = continuation[0] + reward_f[:, 0] + reward_r[:, 0]
    return upper(continuation, zeros, floor), zeros


def test_a_nan_continuation_keeps_every_action():
    _, _, _, _, reward_f, reward_r = _tied_tables()
    (theta, inner, outer), zeros = _tied_bound(np.array([0.5, np.nan, 0.5]),
                                               reward_f, reward_r)
    outer_start, outer_stop, start, stop = oracle._windows(
        theta, inner, outer, 4, 4, zeros, zeros)
    assert _live(outer_start, outer_stop, 4).all()
    assert start.tolist() == [0, 0, 0] and stop.tolist() == [4, 4, 4]


def test_the_current_pair_is_kept_whatever_the_bound_says():
    # a threshold no curve reaches prunes every action but the current
    # pair's
    theta, curve = np.full(3, np.inf), (np.full(3, -1.0), np.zeros(3),
                                        np.zeros(3))
    outer_start, outer_stop, start, stop = oracle._windows(
        theta, curve, curve, 4, 5, np.array([0, 3, 1]), np.array([4, 2, 0]))
    assert _live(outer_start, outer_stop, 4).tolist() == [
        [True, False, False, False],
        [False, False, False, True],
        [False, True, False, False]]
    assert start.tolist() == [4, 2, 0] and stop.tolist() == [5, 3, 1]


def test_a_state_whose_every_q_is_minus_inf_keeps_the_first_pair():
    base, shift, H, continuation, reward_f, reward_r = _tied_tables()
    reward_r = reward_r.copy()
    reward_r[1] = -np.inf   # every q of state 1 is -inf
    (theta, inner, outer), zeros = _tied_bound(continuation, reward_f,
                                               reward_r)
    windows = oracle._windows(theta, inner, outer, 4, 4, zeros, zeros)
    assert _live(*windows[:2], 4)[1].all()
    assert windows[2][1] == 0 and windows[3][1] == 4
    best_f, best_r = _greedy_step(*windows, base, shift, H, continuation,
                                  _priced(reward_f), _priced(reward_r))
    assert best_f.tolist() == [1, 0, 3]
    assert best_r.tolist() == [2, 0, 0]


def _e1_draw(index, seed=7):
    """Draw index of the e^+-1 scalings of the DRAWN fields that a
    default_rng(seed) stream makes, one uniform vector per draw."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        factors = np.exp(rng.uniform(-1.0, 1.0, len(DRAWN)))
    base = ModelParams()
    return dataclasses.replace(base, **{
        name: getattr(base, name) * float(f) for name, f in zip(DRAWN, factors)})


def test_a_joint_reply_whose_windows_span_every_retailer_action(monkeypatch):
    # draw 48 (mu_r = 0.199): most states keep every retailer action, so the
    # widened windows are the whole retailer axis in every sweep
    params = _e1_draw(48)
    assert params.mu_r == pytest.approx(0.199, abs=5e-4)
    sol = solve("gc", params)
    grid = default_grid(sol, n_states=64, n_actions=33)
    widths, greedy = [], oracle._greedy_step
    monkeypatch.setattr(oracle, "_greedy_step", lambda *a:
                        widths.append(a[3] - a[2]) or greedy(*a))
    br = grid_best_response(params, "gc", "joint", None, grid,
                            seed_policy=sol.policies)
    assert len(widths) == br.sweeps
    assert all(w.max() == 33 and np.mean(w == 33) > 0.5 for w in widths)
    ref_f, ref_r, ref_value, ref_sweeps = _reference_joint_response(
        params, grid, sol.policies)
    assert np.array_equal(br.actions["farmer"], ref_f)
    assert np.array_equal(br.actions["retailer"], ref_r)
    assert br.sweeps == ref_sweeps
    assert br.value == pytest.approx(ref_value, rel=1e-12)


def test_stressed_stackelberg_certifies_despite_negative_share():
    params = ModelParams(lambda_f=350.0, p_c=1.2)
    sol = solve("gs", params)
    assert sol.subsidy(sol.H_d) < 0.0
    report = equilibrium_check(sol)
    assert report.passed


def test_grid_value_matches_the_stationary_rate(baseline_gd):
    # at the steady state the value equals rate / rho; interpolate the grid
    # value there and compare against the analytic identity
    grid = default_grid(baseline_gd)
    br = grid_best_response(ModelParams(), "gd", "farmer",
                            baseline_gd.policies["retailer"], grid,
                            seed_policy=baseline_gd.policies["farmer"])
    H_d = baseline_gd.H_d
    grid_value = float(np.interp(H_d, br.H, br.value))
    analytic = baseline_gd.values["farmer"].value(H_d)
    assert grid_value == pytest.approx(analytic, rel=5e-3)


def test_seeding_does_not_change_the_fixed_point(baseline_gd):
    grid = default_grid(baseline_gd, n_states=256, n_actions=129)
    kwargs = dict(params=ModelParams(), mode="gd", role="farmer",
                  opponent_policy=baseline_gd.policies["retailer"], grid=grid)
    cold = grid_best_response(**kwargs)
    warm = grid_best_response(**kwargs,
                              seed_policy=baseline_gd.policies["farmer"])
    assert np.array_equal(cold.actions["farmer"], warm.actions["farmer"])
    assert cold.value == pytest.approx(warm.value, rel=1e-10)
    assert warm.sweeps <= cold.sweeps


def test_refinement_tightens_the_gaps(baseline_gd):
    params = ModelParams()
    base = default_grid(baseline_gd, n_states=256, n_actions=129)
    H_d = baseline_gd.H_d

    def gaps(grid):
        br = grid_best_response(params, "gd", "farmer",
                                baseline_gd.policies["retailer"], grid,
                                seed_policy=baseline_gd.policies["farmer"])
        mask = (br.H >= 0.5 * H_d) & (br.H <= 1.5 * H_d)
        analytic_e = baseline_gd.policies["farmer"].effort(br.H)
        analytic_v = baseline_gd.values["farmer"].value(br.H)
        pe = np.max(np.abs(br.actions["farmer"] - analytic_e)[mask]) \
            / np.max(np.abs(analytic_e[mask]))
        pv = np.max(np.abs(br.value - analytic_v)[mask]) \
            / np.max(np.abs(analytic_v[mask]))
        return pe, pv

    pe0, pv0 = gaps(base)
    pe1, pv1 = gaps(dataclasses.replace(base, n_states=2 * base.n_states,
                                        n_actions=2 * base.n_actions,
                                        dt=base.dt / 2))
    assert pe1 <= pe0
    assert pv1 <= pv0


def test_role_and_opponent_validation(baseline_gd, baseline_gs):
    params = ModelParams()
    grid = GridSpec(H_max=10.0, a_max_f=10.0, a_max_r=5.0, n_states=32,
                    n_actions=9)
    with pytest.raises(ValueError, match="use leader_improvement_sample"):
        grid_best_response(params, "gs", "retailer",
                           baseline_gs.policies["retailer"], grid)
    with pytest.raises(ValueError, match="role must be 'joint'"):
        grid_best_response(params, "gc", "farmer", None, grid)
    with pytest.raises(ValueError, match="joint control has no opponent_policy"):
        grid_best_response(params, "gc", "joint",
                           baseline_gd.policies["farmer"], grid)
    with pytest.raises(ValueError, match="only applies to the centralized mode"):
        grid_best_response(params, "gd", "joint", None, grid)
    with pytest.raises(ValueError,
                       match="opponent_policy is required for role 'farmer'"):
        grid_best_response(params, "gd", "farmer", None, grid)
    with pytest.raises(ValueError, match="carrying the subsidy"):
        grid_best_response(params, "gs", "farmer",
                           baseline_gs.policies["farmer"], grid)
    with pytest.raises(ValueError, match="unknown role 'broker'"):
        grid_best_response(params, "gd", "broker",
                           baseline_gd.policies["farmer"], grid)


def test_undefined_and_unbounded_subsidy_rules(baseline_gd):
    params = ModelParams()
    grid = GridSpec(H_max=10.0, a_max_f=10.0, a_max_r=5.0, n_states=32,
                    n_actions=9)
    isolated = FeedbackPolicy(g1=0.0, g0=1.0, n1=1.0, n0=0.0, d1=1.0, d0=0.0)
    with pytest.raises(OracleError, match=r"undefined \(0/0\) on the state grid"):
        grid_best_response(params, "gs", "farmer", isolated, grid)
    confiscatory = FeedbackPolicy(g1=0.0, g0=1.0, n1=0.0, n0=2.0, d1=0.0, d0=1.0)
    with pytest.raises(OracleError, match="non-positive effective cost share"):
        grid_best_response(params, "gs", "farmer", confiscatory, grid)


def test_an_all_zero_subsidy_rule_is_the_decentralized_farmer_reply(
        baseline_gd):
    # the all-zero rule is 0/0 at every state and shares nothing, so the
    # follower faces the gd farmer's problem bit for bit
    params = ModelParams()
    grid = default_grid(baseline_gd)
    leader, seed = baseline_gd.policies["retailer"], baseline_gd.policies["farmer"]
    follower = grid_best_response(
        params, "gs", "farmer",
        FeedbackPolicy(leader.g1, leader.g0, 0.0, 0.0, 0.0, 0.0), grid, seed)
    farmer = grid_best_response(params, "gd", "farmer",
                                FeedbackPolicy(leader.g1, leader.g0), grid, seed)
    assert follower.value.tobytes() == farmer.value.tobytes()
    assert list(follower.actions) == list(farmer.actions) == ["farmer"]
    assert (follower.actions["farmer"].tobytes()
            == farmer.actions["farmer"].tobytes())
    assert follower.sweeps == farmer.sweeps


def test_non_convergence_is_reported(baseline_gd):
    grid = default_grid(baseline_gd, max_sweeps=1)
    with pytest.raises(OracleError,
                       match="policy iteration did not converge within 1 sweeps"):
        grid_best_response(ModelParams(), "gd", "farmer",
                           baseline_gd.policies["retailer"], grid)


def test_grid_escape_is_reported(baseline_gd):
    grid = default_grid(baseline_gd)
    coarse = dataclasses.replace(grid, H_max=2.0, dt=0.5)
    with pytest.raises(OracleError, match="enlarge H_max or shorten dt"):
        grid_best_response(ModelParams(), "gd", "farmer",
                           baseline_gd.policies["retailer"], coarse,
                           seed_policy=baseline_gd.policies["farmer"])


def test_window_coverage_is_checked(baseline_gd):
    small = GridSpec(H_max=0.5 * baseline_gd.H_d, a_max_f=20.0, a_max_r=10.0,
                     n_states=32, n_actions=9)
    with pytest.raises(OracleError, match="does not cover the comparison window"):
        equilibrium_check(baseline_gd, grid=small)


def test_leader_sampler_is_deterministic_and_mode_checked(baseline_gd,
                                                          baseline_gs):
    a = leader_improvement_sample(baseline_gs)
    b = leader_improvement_sample(baseline_gs)
    assert a == b
    assert (a["samples"], a["seed"]) == (200, 20260814)
    assert a["note"].startswith("sampled neighborhood stationarity")
    with pytest.raises(ValueError, match="applies to the Stackelberg mode"):
        leader_improvement_sample(baseline_gd)


def _stackelberg_at(params, coeffs):
    """The standard-convention gs solution at fixed (A, B, C, M, N, F), so a
    pinned sample depends on the sampler and the policy map, not on the last
    bit the root finder lands on."""
    diag = SolutionDiagnostics(backend=solver.BACKEND_RESIDUAL,
                               convention=solver.CONVENTION_STANDARD)
    return solver._assemble(params, GameMode.STACKELBERG,
                            solver.CONVENTION_STANDARD, coeffs, diag)


def _with_rule(sol, **rule):
    """sol with the leader's subsidy-rule coefficients replaced."""
    lead = dataclasses.replace(sol.policies["retailer"], **rule)
    return dataclasses.replace(sol, policies={**sol.policies, "retailer": lead})


def _perturbed_pin():
    base = ModelParams()
    params = base.replace(lambda_f=base.lambda_f * math.exp(0.08),
                          mu_r=base.mu_r * math.exp(-0.06),
                          delta=base.delta * math.exp(0.05),
                          rho=base.rho * math.exp(-0.09),
                          p_c=base.p_c * math.exp(0.1))
    # solve("gs", params) coefficients when the samples were recorded
    coeffs = (0.8268323735369904, 1109.03674318964, 7739.577413638972,
              0.4287267448925029, 1039.9287522397312, 9190.725450015574)
    return _stackelberg_at(params, coeffs)


def _zero_denominator_pin():
    # x_f = (0.5*H - 0.25)/(2*H - 1) is 0/0 at the initial state H0 = 0.5;
    # the perturbed rules move the pole
    # solve("gs", ModelParams()) coefficients when the samples were
    # recorded
    coeffs = (0.7444379187163269, 1089.944733842334, 7530.93034376331,
              0.3859305095776347, 1031.552768624556, 8938.97725471772)
    sol = _with_rule(_stackelberg_at(ModelParams(H0=0.5), coeffs),
                     n1=0.5, n0=-0.25, d1=2.0, d0=-1.0)
    lead = sol.policies["retailer"]
    assert lead.d1 * 0.5 + lead.d0 == 0.0
    return sol


def test_perturbed_leader_sample_is_pinned():
    # recorded from the sampler that prices each rule in closed form over
    # the state; the same numpy build reproduces it bit for bit
    sample = leader_improvement_sample(_perturbed_pin())
    assert sample["baseline_payoff"] == 9294.72261250699
    assert sample["max_improvement"] == -5.228371725344644e-05
    assert sample["improving_samples"] == 0


def _refused(solution, match):
    """leader_improvement_sample(solution) raises an OracleError that
    matches, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleError, match=match):
            leader_improvement_sample(solution)


def test_leader_sample_with_a_zero_subsidy_denominator():
    # the unperturbed rule's share and denominator vanish at H0, and the
    # perturbed rules' poles lie near it: no closed form prices them, and
    # the stepped sampler's numbers failed LEADER_TOLERANCE at every step
    _refused(_zero_denominator_pin(),
             "zero of the cost share or the subsidy denominator")


def test_leader_sample_whose_paths_overflow_is_an_oracle_error(baseline_gs):
    # x_f = 3 - H floors the follower's cost share below H = 2, where the
    # paths start (H0 = 0.1), which drove the stepped sampler's paths to
    # overflow; a retailer cost rate beyond float64 overflows every payoff
    _refused(_with_rule(baseline_gs, n1=-1.0, n0=3.0, d1=0.0, d0=1.0),
             "201 with a cost share at or below the 1e-6 floor")
    params = baseline_gs.params.replace(lambda_r=1e308)
    _refused(dataclasses.replace(baseline_gs, params=params),
             "201 with a payoff that is not finite")


def test_leader_sample_with_a_floored_share_is_an_oracle_error(baseline_gs):
    # x_f = 1 at every state: the unperturbed rule's share 1 - x_f is 0, and
    # the perturbed rules whose n0 grew more than d0 have a negative share
    sol = _with_rule(baseline_gs, n1=0.0, n0=1.0, d1=0.0, d0=1.0)
    _refused(sol, "1 with a zero of the cost share")
    _refused(sol, "with a cost share at or below the 1e-6 floor")


def _stepped_leader_payoffs(solution, h=0.005, T=120.0) -> np.ndarray:
    """The sampled rules' payoffs by time stepping, the reference for the
    closed form: the sampler's draws, 0/0 rule and share floor, the
    follower's efforts formed at every RK4 stage and passed to
    reduction_drift, the rates priced by payoff_rates and discounted by
    composite Simpson on [0, T] plus the frozen-state tail."""
    params = solution.params
    lead = solution.policies["retailer"]
    base = np.array([lead.g1, lead.g0, lead.n1, lead.n0, lead.d1, lead.d0])
    rng = np.random.default_rng(oracle.LEADER_SEED)
    factors = 1.0 + oracle.LEADER_SPREAD * rng.uniform(
        -1.0, 1.0, size=(oracle.LEADER_SAMPLES, 6))
    g1, g0, n1, n0, d1, d0 = np.vstack([base, base * factors]).T
    value_f = solution.values["farmer"]
    f1 = derive_constants(params).eta + params.mu_f * 2.0 * value_f.A
    f0 = params.mu_f * value_f.B

    def stage(H):
        num = n1 * H + n0
        den = d1 * H + d0
        x = num / den
        if not den.all():  # 0/0 needs a zero denominator
            x[(num == 0.0) & (den == 0.0)] = 0.0
        share = np.maximum(1.0 - x, 1e-6) * params.lambda_f
        return (f1 * H + f0) / share, g1 * H + g0, x

    def drift(H):
        E_f, E_r, _ = stage(H)
        return reduction_drift(H, E_f, E_r, params)

    steps = int(round(T / h))
    assert steps % 2 == 0
    y = np.full(g1.size, float(params.H0))
    path = np.empty((steps + 1, y.size))
    path[0] = y
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            k1 = drift(y)
            k2 = drift(y + 0.5 * h * k1)
            k3 = drift(y + 0.5 * h * k2)
            k4 = drift(y + h * k3)
            y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            path[i] = y
        weights = np.full(steps + 1, 2.0)
        weights[1::2] = 4.0
        weights[[0, -1]] = 1.0
        weights *= h / 3.0 * np.exp(-params.rho * h * np.arange(steps + 1))
        payoff = 0.0
        for lo in range(0, steps + 1, 4000):
            block = path[lo:lo + 4000]
            rates = payoff_rates(GameMode.STACKELBERG, block, *stage(block),
                                 params).net_r
            payoff = payoff + weights[lo:lo + 4000] @ rates
    return payoff + np.exp(-params.rho * T) / params.rho * rates[-1]


@pytest.mark.parametrize("case", [
    lambda: solve("gs", ModelParams()),
    _perturbed_pin,
    lambda: solve("gs", ModelParams(H0=3.0)),
    lambda: solve("gs", ModelParams(H0=20.0)),
    lambda: solve("gs", ModelParams(p_c=0.8, rho=0.9)),
    lambda: solve("gs", ModelParams().without_sink_trading()),
], ids=["baseline", "perturbed-pin", "H0", "H0-above-the-steady-state",
        "p_c-rho", "no-sink-trading"])
def test_folded_leader_drift_matches_the_stepped_reference(case):
    # every rule's closed-form payoff against RK4 at h = 0.005; the paths
    # rise to the steady state from H0 = 0.1 and 3 and fall to it from 20,
    # and without sink trading every rule's drift is affine
    sol = case()
    payoff = oracle._leader_payoffs(sol)
    reference = _stepped_leader_payoffs(sol)
    assert np.max(np.abs(payoff / reference - 1.0)) <= 1e-8
    sample = leader_improvement_sample(sol)
    gains = (reference[1:] - reference[0]) / abs(reference[0])
    assert sample["improving_samples"] == np.sum(gains > 0.0)
    assert sample["baseline_payoff"] == payoff[0]


@pytest.mark.parametrize("retired", [
    {"samples": -5, "seed": -1}, {"samples": 0}, {"seed": -1},
], ids=["both-negative", "no-samples", "negative-seed"])
@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_certification_arguments_are_checked_before_any_grid_reply(
        monkeypatch, mode, retired):
    # the sample count and the seed are module constants and the parameters
    # come from the solution, so neither certifier entry point takes them,
    # and the old positional parameters are refused rather than read as a
    # grid
    sol = solve(mode, ModelParams())

    def no_reply(*args, **kwargs):
        raise AssertionError("a grid reply ran before the arguments were checked")

    monkeypatch.setattr(oracle, "grid_best_response", no_reply)
    for name, value in retired.items():
        message = f"unexpected keyword argument '{name}'"
        with pytest.raises(TypeError, match=message):
            equilibrium_check(sol, **{name: value})
        with pytest.raises(TypeError, match=message):
            leader_improvement_sample(sol, **{name: value})
    with pytest.raises(TypeError, match="positional argument"):
        equilibrium_check(sol, ModelParams())


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_certification_preconditions_are_checked_before_any_part(
        monkeypatch, mode):
    # alpha, the window's cover and a grid state inside the window are
    # checked before any grid reply or leader sample runs
    sol = solve(mode, ModelParams())
    unstable = dataclasses.replace(sol, alpha=0.0)

    def no_part(*args, **kwargs):
        raise AssertionError("a certification part ran before the checks")

    monkeypatch.setattr(oracle, "grid_best_response", no_part)
    monkeypatch.setattr(oracle, "leader_improvement_sample", no_part)
    with pytest.raises(OracleError, match="attracting steady state"):
        equilibrium_check(unstable)
    small = GridSpec(H_max=sol.H_d, a_max_f=20.0, a_max_r=10.0)
    with pytest.raises(OracleError, match="does not cover the comparison window"):
        equilibrium_check(sol, grid=small)
    # states 0, 5*H_d and 10*H_d: none in [0.5*H_d, 1.5*H_d]
    sparse = GridSpec(H_max=10 * sol.H_d, a_max_f=20.0, a_max_r=10.0,
                      n_states=3, n_actions=9)
    with pytest.raises(OracleError,
                       match=r"holds no state in the comparison window \["):
        equilibrium_check(sol, grid=sparse)


@pytest.mark.parametrize("mode", ["gd", "gs"])
def test_a_failing_follower_reply_stops_the_check(monkeypatch, mode):
    # the check raises the error of its first part, the farmer's reply, and
    # runs no later part: not gd's retailer reply, not gs's leader sample
    sol = solve(mode, ModelParams())
    ran = []

    def failing_reply(params, mode, role, *args):
        ran.append(f"{mode.value} {role} reply")
        raise OracleError(f"{role} reply failed")

    def failing_sample(*args, **kwargs):
        ran.append("leader sample")
        raise OracleError("leader sample failed")

    monkeypatch.setattr(oracle, "grid_best_response", failing_reply)
    monkeypatch.setattr(oracle, "leader_improvement_sample", failing_sample)
    with pytest.raises(OracleError, match="farmer reply failed"):
        equilibrium_check(sol)
    assert ran == [f"{mode} farmer reply"]


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
@pytest.mark.parametrize("case", ["baseline", "no_sink"])
def test_certification_report_matches_the_frozen_report(case, mode):
    # the window, the notes (sweep counts), the verdict and the tolerances
    # exactly; the gaps and the leader sample's numbers to 1e-12 relative,
    # as the reply reference tests hold the replies' values
    report = equilibrium_check(
        solve(mode, ModelParams(**CASES[case]["overrides"]))).to_dict()
    expected = CERTIFICATIONS[case][mode]
    close = ("policy_gaps", "value_gaps", "leader_sample")
    assert ({k: v for k, v in report.items() if k not in close}
            == {k: v for k, v in expected.items() if k not in close})
    for name in close:
        assert report[name] == pytest.approx(expected[name], rel=1e-12)


def _certification_systems(monkeypatch, sol, grid):
    """The (n, j, w, reward, gamma) policy-evaluation systems that
    certifying sol on grid solves; the leader sampler solves none."""
    systems = []

    def record(*system):
        systems.append(system)
        return _evaluate_policy(*system)

    monkeypatch.setattr(oracle, "_evaluate_policy", record)
    monkeypatch.setattr(oracle, "leader_improvement_sample",
                        lambda *args, **kwargs: {"max_improvement": 0.0})
    equilibrium_check(sol, grid=grid)
    return systems


def _band_reference(n, j, w, reward, gamma):
    """The band solve as first written, the bit-for-bit reference of
    _evaluate_policy: every row eliminates every column of its band left of
    the diagonal, skipping zero multipliers."""
    states = np.arange(n)
    reach = j - states
    lo = max(0, -int(reach.min()))
    hi = max(0, int(reach.max()) + 1)
    band = np.zeros((n, lo + 1 + hi))
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
    v = [0.0] * (n + hi)
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = b[i]
        for c in range(1, hi + 1):
            s -= row[lo + c] * v[i + c]
        v[i] = s / row[lo]
    return np.array(v[:n])


def _random_chains(reach, n=512, count=4):
    """Seeded (n, j, w, reward, gamma) systems whose jumps j - i are drawn
    from reach, clipped to the grid as _positions clips them; a tenth of the
    rows has w = 0 and a tenth w = 1, so a row whose jump lies below its
    diagonal with w = 1 has a zero multiplier there."""
    rng = np.random.default_rng([r + n for r in reach])
    rows = np.arange(n)
    systems = []
    for _ in range(count):
        j = np.clip(rows + rng.integers(reach[0], reach[1] + 1, n), 0, n - 2)
        w = rng.random(n)
        ends = rng.permutation(n)[:n // 5]
        w[ends[:n // 10]], w[ends[n // 10:]] = 0.0, 1.0
        systems.append((n, j, w, rng.normal(size=n), rng.uniform(0.9, 0.9999)))
    return systems


@pytest.mark.parametrize("case, reach", [
    (("gd", None), 2), (("gs", None), 2), (("gc", None), 2),
    (("gd", 0.05), 13), (("gd", 0.5), 120),
    ((-2, 0), 2), ((-13, 8), 13), ((511, 511), 1),
], ids=["gd", "gs", "gc", "gd-dt0.05", "gd-dt0.5", "random-2..0",
        "random-13..8", "random-escaping"])
def test_band_solve_matches_a_dense_solve(monkeypatch, case, reach):
    # the default grid's systems, then coarser steps whose next states lie
    # many grid states away, which widens the band; then seeded random
    # chains, the last one a grid every state escapes upward, so every jump
    # is clipped to n - 2 and the band reaches (1, 511). Every solve has the
    # reference's bits
    if isinstance(case[0], str):
        mode, dt = case
        sol = solve(mode, ModelParams())
        grid = default_grid(sol)
        if dt is not None:
            grid = dataclasses.replace(grid, dt=dt)
        systems = _certification_systems(monkeypatch, sol, grid)
    else:
        systems = _random_chains(case)
        for n, j, w, _, _ in systems:
            assert np.any(w == 0.0) and np.any(w == 1.0)
            assert case[0] > 0 or np.any((w == 1.0) & (j < np.arange(n)))
    assert systems
    for n, j, w, reward, gamma in systems:
        rows = np.arange(n)
        assert np.max(rows - j) >= reach
        dense = np.eye(n)
        dense[rows, j] -= gamma * (1.0 - w)
        dense[rows, j + 1] -= gamma * w
        expected = np.linalg.solve(dense, reward)
        value = _evaluate_policy(n, j, w, reward, gamma)
        assert (np.max(np.abs(value - expected))
                <= 1e-12 * np.max(np.abs(expected)))
        assert (value.tobytes()
                == _band_reference(n, j, w, reward, gamma).tobytes())


@pytest.mark.parametrize("changes", [{}, {"p_c": 0.8, "rho": 0.9},
                                     {"H0": 3.0}],
                         ids=["baseline", "p_c-rho", "H0"])
def test_unperturbed_leader_row_is_the_discounted_profit(changes):
    # the unperturbed rule's closed loop is the solution's, so its payoff
    # is the retailer's analytic value at H0
    params = ModelParams().replace(**changes)
    sol = solve("gs", params)
    sample = leader_improvement_sample(sol)
    expected = value_at(sol, "retailer", params.H0)
    assert abs(sample["baseline_payoff"] - expected) <= 1e-10 * abs(expected)


PACKAGE_MODULES = ["carbongame"] + [
    f"carbongame.{info.name}"
    for info in pkgutil.iter_modules(carbongame.__path__)]


def _imported_names(module: str) -> set:
    """Every dotted part and name an import in the module's source names;
    read from source, so an import inside a function counts as well."""
    path = importlib.util.find_spec(module).origin
    tree = ast.parse(Path(path).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                named.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
            named.update(alias.name for alias in node.names)
    return named


def test_oracle_imports_neither_the_solver_nor_the_closed_forms():
    assert not _imported_names("carbongame.oracle") & {"solver", "closed_form"}


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_no_package_module_imports_scipy(module):
    assert "scipy" not in _imported_names(module)


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__
               if not hasattr(namespace, name)]
    assert not missing


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_default_grid_needs_a_positive_steady_state(mode):
    sol = solver.solve(mode, ModelParams(p_f=0.0, p_r=0.0, p_c=0.0))
    assert sol.H_d == 0.0 and sol.alpha < 0
    message = "positive steady state; H_d = -?0$"  # gc's H_d is -0.0
    with pytest.raises(OracleError, match=message):
        default_grid(sol)
    with pytest.raises(OracleError, match=message):
        equilibrium_check(sol)


def test_zero_payoff_scenario_passes_trivially():
    params = ModelParams(p_f=0.0, p_r=0.0, p_c=0.0)
    sol = solve("gs", params)
    assert sol.H_d == 0.0
    assert any("subsidy" in f for f in sol.diagnostics.flags)
    grid = GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, n_states=64,
                    n_actions=17)
    report = equilibrium_check(sol, grid=grid)
    assert report.passed
    assert report.leader_sample["baseline_payoff"] == 0.0
    assert report.leader_sample["max_improvement"] == 0.0

"""Grid dynamic-programming verification layer.

These tests certify the analytic solutions against an independent numeric
route (policy iteration on a state/action grid) and pin down the error
handling that keeps that route honest.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from carbongame import (
    FeedbackPolicy,
    GameMode,
    GridSpec,
    ModelParams,
    OracleError,
    default_grid,
    equilibrium_check,
    grid_best_response,
    leader_improvement_sample,
    solve_centralized,
    solve_decentralized,
    solve_stackelberg,
)
from carbongame import oracle, solver
from carbongame.model import SolutionDiagnostics, reduction_drift
from carbongame.oracle import (
    _evaluate_policy,
    _greedy_step,
    _positions,
    _seed_indices,
)
from carbongame.profits import payoff_rates

from reference_values import CASES


@pytest.fixture(scope="module")
def baseline_gd():
    return solve_decentralized(ModelParams())


@pytest.fixture(scope="module")
def baseline_gs():
    return solve_stackelberg(ModelParams())


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="H_max must be > 0, got 0"):
        GridSpec(H_max=0, a_max_f=1.0, a_max_r=1.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="n_states must be >= 3"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, n_states=2)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
        GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, max_sweeps=0)
    grid = GridSpec(H_max=2.0, a_max_f=4.0, a_max_r=2.0, n_states=5,
                    n_actions=3)
    assert grid.states() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.actions("farmer") == pytest.approx([0.0, 2.0, 4.0])
    assert grid.actions("retailer") == pytest.approx([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="unknown action role"):
        grid.actions("joint")
    fine = grid.refined()
    assert (fine.n_states, fine.n_actions, fine.dt) == (10, 6, grid.dt / 2)


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
    # pinned from the sampler's stepped RK4 (seed 20260814, 200 samples);
    # a faster sampler must reproduce them, not just pass the tolerance
    assert sample["baseline_payoff"] == pytest.approx(9042.009609917543,
                                                      rel=0, abs=1e-9)
    assert sample["max_improvement"] == pytest.approx(-5.4187415854658903e-05,
                                                      rel=0, abs=1e-9)


def test_centralized_certification_passes():
    sol = solve_centralized(ModelParams())
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
    sol = solve_centralized(params)
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


@pytest.mark.parametrize("threads", [1, 3, 4])
def test_block_count_does_not_change_the_joint_reply(monkeypatch, threads):
    # 3 blocks split the 33 farmer actions evenly, 4 unevenly (8, 8, 8, 9)
    monkeypatch.setattr(oracle, "_greedy_threads", lambda: threads)
    params = ModelParams(lambda_f=540.0, mu_r=0.465, rho=0.735)
    sol = solve_centralized(params)
    grid = default_grid(sol, n_states=64, n_actions=33)
    br = grid_best_response(params, "gc", "joint", None, grid)
    ref_f, ref_r, ref_value, ref_sweeps = _reference_joint_response(
        params, grid, None)
    assert np.array_equal(br.actions["farmer"], ref_f)
    assert np.array_equal(br.actions["retailer"], ref_r)
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


@pytest.mark.parametrize("blocks, threads", [
    ([range(0, 4)], 0),
    ([range(0, 2), range(2, 4)], 0),
    ([range(0, 2), range(2, 4)], 2),
    ([range(0, 1), range(1, 3), range(3, 4)], 3),
], ids=["one-block", "two-blocks", "two-threads", "three-threads"])
def test_greedy_ties_go_to_the_first_farmer_then_retailer(blocks, threads):
    tables = _tied_tables()
    if threads:
        with ThreadPoolExecutor(threads) as pool:
            best_f, best_r = _greedy_step(blocks, tables, pool)
    else:
        best_f, best_r = _greedy_step(blocks, tables, None)
    assert best_f.tolist() == [1, 0, 3]
    assert best_r.tolist() == [2, 1, 0]


def test_stressed_stackelberg_certifies_despite_negative_share():
    params = ModelParams(lambda_f=350.0, p_c=1.2)
    sol = solve_stackelberg(params)
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
    pe1, pv1 = gaps(base.refined())
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
    a = leader_improvement_sample(baseline_gs, samples=40)
    b = leader_improvement_sample(baseline_gs, samples=40)
    assert a == b
    assert a["samples"] == 40
    assert a["note"].startswith("sampled neighborhood stationarity")
    different = leader_improvement_sample(baseline_gs, samples=40, seed=7)
    assert different["max_improvement"] != a["max_improvement"]
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


def test_perturbed_leader_sample_is_pinned():
    # recorded from the stepped RK4 sampler before its loop was reworked;
    # the rework keeps every float operation, so the match is exact
    base = ModelParams()
    params = base.replace(lambda_f=base.lambda_f * math.exp(0.08),
                          mu_r=base.mu_r * math.exp(-0.06),
                          delta=base.delta * math.exp(0.05),
                          rho=base.rho * math.exp(-0.09),
                          p_c=base.p_c * math.exp(0.1))
    # solve_stackelberg(params) coefficients when the samples were recorded
    coeffs = (0.8268323735369904, 1109.03674318964, 7739.577413638972,
              0.4287267448925029, 1039.9287522397312, 9190.725450015574)
    sample = leader_improvement_sample(_stackelberg_at(params, coeffs))
    assert sample["baseline_payoff"] == 9294.606215761069
    assert sample["max_improvement"] == -5.218845249608916e-05
    assert sample["improving_samples"] == 0


def test_leader_sample_with_a_zero_subsidy_denominator():
    # x_f = (0.5*H - 0.25)/(2*H - 1) is 0/0 at the initial state H0 = 0.5,
    # where the sampler shares nothing; the perturbed rules move the pole
    # solve_stackelberg(ModelParams()) coefficients when the samples were
    # recorded
    coeffs = (0.7444379187163269, 1089.944733842334, 7530.93034376331,
              0.3859305095776347, 1031.552768624556, 8938.97725471772)
    sol = _stackelberg_at(ModelParams(H0=0.5), coeffs)
    rule = dataclasses.replace(sol.policies["retailer"], n1=0.5, n0=-0.25,
                               d1=2.0, d0=-1.0)
    assert rule.d1 * 0.5 + rule.d0 == 0.0
    posed = dataclasses.replace(sol, policies={**sol.policies,
                                               "retailer": rule})
    sample = leader_improvement_sample(posed)
    assert sample["baseline_payoff"] == 9412.603722818292
    assert sample["max_improvement"] == 0.06874130817062128
    assert sample["improving_samples"] == 36


def test_zero_payoff_scenario_passes_trivially():
    params = ModelParams(p_f=0.0, p_r=0.0, p_c=0.0)
    sol = solve_stackelberg(params)
    assert sol.H_d == 0.0
    assert any("subsidy" in f for f in sol.diagnostics.flags)
    grid = GridSpec(H_max=1.0, a_max_f=1.0, a_max_r=1.0, n_states=64,
                    n_actions=17)
    report = equilibrium_check(sol, grid=grid)
    assert report.passed
    assert report.leader_sample["baseline_payoff"] == 0.0
    assert report.leader_sample["max_improvement"] == 0.0

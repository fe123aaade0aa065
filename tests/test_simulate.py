"""Closed-loop trajectories: exact route, numeric route, and serialization."""

import numpy as np
import pytest

from carbongame import (
    FeedbackPolicy,
    GameMode,
    GameSolution,
    ModelParams,
    QuadraticValue,
    SimConfig,
    SimulationError,
    SolverConfig,
    SolverError,
    TRAJECTORY_COLUMNS,
    discounted_profit,
    exact_trajectory,
    integrate_trajectory,
    solve,
    steady_state,
    trajectory_table,
)
from carbongame.model import SolutionDiagnostics, reduction_drift
from carbongame.simulate import (
    INTEGRATOR_EXACT,
    INTEGRATOR_RK4,
    MAX_SAMPLE_COUNT,
    simulate,
)
from carbongame.solver import CONVENTION_PRINTED

from reference_values import CASES


def _solved(case: str):
    params = ModelParams().replace(**CASES[case]["overrides"])
    return solve("gd", params)


@pytest.mark.parametrize("case", ["baseline", "no_sink", "strong_farmer_impact"])
def test_exact_path_matches_reference(case):
    sol = _solved(case)
    traj = exact_trajectory(sol)
    ref = CASES[case]["gd_path"]
    i1 = int(round(1.0 / 0.01))
    i5 = int(round(5.0 / 0.01))
    assert traj.t[i1] == pytest.approx(1.0)
    assert traj.H[i1] == pytest.approx(ref["H1"], rel=1e-9)
    assert traj.H[i5] == pytest.approx(ref["H5"], rel=1e-9)


def test_initial_level_is_exact():
    sol = _solved("baseline")
    assert exact_trajectory(sol).H[0] == 0.1
    custom = exact_trajectory(sol, params=sol.params.replace(H0=2.0))
    assert custom.H[0] == 2.0
    # the initial level is the params field alone; unvalidated params reach
    # the simulator's own check
    with pytest.raises(SimulationError, match="H0 must be >= 0"):
        exact_trajectory(sol, params=ModelParams(H0=-0.5))


def test_path_approaches_the_steady_state_monotonically():
    sol = _solved("baseline")
    traj = exact_trajectory(sol)
    H_d = steady_state(sol)
    assert np.all(np.diff(traj.H) >= 0.0)
    # strictly increasing until the increments hit float resolution near H_d
    assert np.all(np.diff(traj.H[:2000]) > 0.0)
    assert np.all(traj.H <= H_d)
    assert traj.H[-1] == pytest.approx(H_d, rel=1e-12)


def test_rk4_agrees_with_exact_and_converges_at_fourth_order():
    sol = _solved("baseline")
    err = {}
    for h in (0.01, 0.005):
        cfg = SimConfig(T=40.0, h=h, integrator=INTEGRATOR_RK4)
        exact = exact_trajectory(sol, SimConfig(T=40.0, h=h))
        rk4 = integrate_trajectory(sol, cfg)
        err[h] = float(np.max(np.abs(exact.H - rk4.H)))
    assert err[0.01] <= 1e-6
    assert err[0.01] / err[0.005] >= 8.0


def test_steady_state_matches_the_reference_solutions():
    for case in ("baseline", "no_sink", "strong_farmer_impact"):
        sol = _solved(case)
        direct = steady_state(sol)
        assert direct == pytest.approx(CASES[case]["gd"]["H_d"], rel=1e-9)


def test_unstable_solution_has_no_steady_state():
    sol = _solved("baseline")
    import dataclasses
    flipped = dataclasses.replace(sol, alpha=0.3)
    with pytest.raises(SimulationError,
                       match=r"no attracting steady state: alpha = 0\.3 >= 0"):
        steady_state(flipped)


def test_sim_config_validation_messages():
    with pytest.raises(ValueError, match="T must be > 0, got -1"):
        SimConfig(T=-1)
    with pytest.raises(ValueError, match=r"h must be in \(0, T\], got h=0 T=40"):
        SimConfig(h=0)
    with pytest.raises(ValueError,
                       match="T/h must be an integer sample count, got T=1.0 h=0.3"):
        SimConfig(T=1.0, h=0.3)
    with pytest.raises(ValueError, match="integrator must be"):
        SimConfig(integrator="euler")
    with pytest.raises(ValueError, match="T must be finite, got inf"):
        SimConfig(T=float("inf"))
    # T/h overflows to inf, which the sample-count bound refuses
    with pytest.raises(ValueError, match=r"T/h = inf exceeds the sample-count "
                                         r"bound 1000000, got T=1e\+300 h=1e-300"):
        SimConfig(T=1e300, h=1e-300)
    with pytest.raises(ValueError, match="exceeds the sample-count bound"):
        SimConfig(T=MAX_SAMPLE_COUNT + 1.0, h=1.0)
    assert SimConfig(T=float(MAX_SAMPLE_COUNT), h=1.0).steps == MAX_SAMPLE_COUNT
    # the initial level is ModelParams.H0, not a sampling setting
    with pytest.raises(TypeError):
        SimConfig(H0=2.0)
    cfg = SimConfig(T=2.0, h=0.5)
    assert cfg.steps == 4
    assert cfg.times() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])


def test_simulate_dispatches_on_integrator():
    sol = _solved("baseline")
    cfg = SimConfig(T=1.0, h=0.01)
    assert simulate(sol, cfg).integrator == INTEGRATOR_EXACT
    rk = simulate(sol, SimConfig(T=1.0, h=0.01, integrator=INTEGRATOR_RK4))
    assert rk.integrator == INTEGRATOR_RK4
    assert len(rk) == 101


def test_series_are_consistent_with_the_policies():
    params = ModelParams()
    sol = solve("gs", params)
    traj = exact_trajectory(sol, SimConfig(T=2.0, h=0.1))
    assert traj.E_f == pytest.approx(sol.policies["farmer"].effort(traj.H))
    assert traj.x_f == pytest.approx(sol.subsidy(traj.H))
    assert traj.Q == pytest.approx(300.0 * traj.H)
    assert traj.D == pytest.approx(160.0 * traj.H)
    assert traj.F == pytest.approx((1.0 + 0.4 * traj.E_f) * 300.0 * traj.H)
    assert traj.disc_cum_f[0] == 0.0
    # 20 intervals: composite Simpson, weights h/3 * (1, 4, 2, ..., 2, 4, 1)
    simpson = np.ones(21)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    weight = 0.1 / 3.0 * simpson * np.exp(-params.rho * traj.t)
    assert traj.disc_cum_f[-1] == pytest.approx(np.sum(weight * traj.payoff_f))


def test_subsidy_series_is_nan_outside_stackelberg():
    traj = exact_trajectory(_solved("baseline"), SimConfig(T=1.0, h=0.1))
    assert np.isnan(traj.x_f).all()
    assert not traj.flag.any()


def test_trajectory_table_layout():
    sol = solve("gs", ModelParams())
    traj = exact_trajectory(sol, SimConfig(T=1.0, h=0.25))
    text = trajectory_table(traj)
    lines = text.splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 1 + 5
    row = lines[1].split(",")
    assert len(row) == 13
    assert float(row[1]) == traj.H[0]
    assert float(row[4]) == pytest.approx(traj.x_f[0])
    assert row[12] == "0"
    assert text.endswith("\n")


def test_trajectory_table_blank_share_outside_stackelberg():
    traj = exact_trajectory(_solved("baseline"), SimConfig(T=1.0, h=0.5))
    for line in trajectory_table(traj).splitlines()[1:]:
        assert line.split(",")[4] == ""


def test_negative_effort_sets_the_flag_column():
    params = ModelParams()
    diag = SolutionDiagnostics(backend="residual")
    fabricated = GameSolution(
        mode=GameMode.DECENTRALIZED, params=params,
        values={"farmer": QuadraticValue(0.0, 0.0, 0.0),
                "retailer": QuadraticValue(0.0, 0.0, 0.0)},
        policies={"farmer": FeedbackPolicy(g1=0.0, g0=-1.0),
                  "retailer": FeedbackPolicy(g1=0.0, g0=0.5)},
        alpha=-1.0, beta=-1.25, H_d=-1.25, diagnostics=diag)
    traj = exact_trajectory(fabricated, SimConfig(T=1.0, h=0.5))
    assert traj.flag.all()
    for line in trajectory_table(traj).splitlines()[1:]:
        assert line.split(",")[12] == "1"


def _per_cell_table(trajectory):
    """The table written cell by cell with repr(float(...))."""
    is_gs = trajectory.mode is GameMode.STACKELBERG
    lines = [",".join(TRAJECTORY_COLUMNS)]
    cols = (trajectory.t, trajectory.H, trajectory.E_f, trajectory.E_r,
            trajectory.x_f, trajectory.Q, trajectory.D, trajectory.F,
            trajectory.payoff_f, trajectory.payoff_r,
            trajectory.disc_cum_f, trajectory.disc_cum_r)
    for i in range(len(trajectory)):
        cells = ["" if j == 4 and not is_gs else repr(float(col[i]))
                 for j, col in enumerate(cols)]
        cells.append(str(int(trajectory.flag[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["gd", "gs"])
def test_trajectory_table_matches_the_per_cell_formatter(mode):
    traj = exact_trajectory(solve(mode, ModelParams()), SimConfig(T=1.0, h=0.1))
    traj.H[1] = np.nan
    traj.E_f[2] = np.inf
    traj.E_r[3] = -np.inf
    traj.x_f[4] = -0.0
    traj.payoff_r[5] = -0.0
    traj.flag[6] = True
    text = trajectory_table(traj)
    assert text == _per_cell_table(traj)
    assert {"nan", "inf", "-inf", "-0.0"} <= set(text.replace("\n", ",").split(","))
    assert text.splitlines()[7].endswith(",1")


def test_time_column_cache_follows_the_column_bytes():
    sol = solve("gs", ModelParams())
    # back to back with different steps, then each again
    coarse = exact_trajectory(sol, SimConfig(T=1.0, h=0.25))
    fine = exact_trajectory(sol, SimConfig(T=1.0, h=0.1))
    for traj in (coarse, fine, coarse, fine):
        assert trajectory_table(traj) == _per_cell_table(traj)
    # a time column changed in place after a first call
    trajectory_table(fine)
    fine.t[3] = 0.3125
    fine.t[-1] = -0.0
    assert trajectory_table(fine) == _per_cell_table(fine)
    assert trajectory_table(fine).splitlines()[4].startswith("0.3125,")
    assert trajectory_table(fine).splitlines()[-1].startswith("-0.0,")


@pytest.mark.parametrize("flag", [False, True], ids=["all-0", "all-1"])
def test_uniform_flag_columns_match_the_per_cell_formatter(flag):
    traj = exact_trajectory(solve("gd", ModelParams()),
                            SimConfig(T=1.0, h=0.1))
    traj.flag[:] = flag
    text = trajectory_table(traj)
    assert text == _per_cell_table(traj)
    assert {line[-1] for line in text.splitlines()[1:]} == {str(int(flag))}


# --- the Python-float RK4 loop reproduces the numpy-scalar one ---------------

def _numpy_scalar_rk4(solution, simcfg, params):
    """The RK4 path stepped on numpy float64 scalars, H[i] to H[i + 1]."""
    pol_f = solution.policies["farmer"]
    pol_r = solution.policies["retailer"]

    def drift(H):
        return reduction_drift(H, pol_f.effort(H), pol_r.effort(H), params)

    t = simcfg.times()
    H = np.empty_like(t)
    H[0] = params.H0
    h = simcfg.h
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(simcfg.steps):
            y = H[i]
            k1 = drift(y)
            k2 = drift(y + 0.5 * h * k1)
            k3 = drift(y + 0.5 * h * k2)
            k4 = drift(y + h * k3)
            H[i + 1] = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return H


def _reference_solutions():
    printed = SolverConfig(follower_convention=CONVENTION_PRINTED)
    for case, ref in CASES.items():
        params = ModelParams().replace(**ref["overrides"])
        for key, mode, cfg in (("gd", GameMode.DECENTRALIZED, SolverConfig()),
                               ("gs", GameMode.STACKELBERG, SolverConfig()),
                               ("gs_printed", GameMode.STACKELBERG, printed),
                               ("gc", GameMode.CENTRALIZED, SolverConfig())):
            if key in ref and "error" not in ref[key]:
                yield f"{case}-{key}", solve(mode, params, cfg)


def _rk4_solutions():
    yield from _reference_solutions()
    for mode in GameMode:
        params = ModelParams().without_sink_trading()
        yield f"baseline-no-sink-{mode.value}", solve(mode, params)
    rng = np.random.default_rng(2024)
    names = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "p_c",
             "delta", "rho", "theta")
    drawn = 0
    while drawn < 4:
        factors = np.exp(rng.uniform(-1.0, 1.0, len(names)))
        base = ModelParams()
        params = base.replace(**{name: getattr(base, name) * float(f)
                                 for name, f in zip(names, factors)})
        mode = list(GameMode)[drawn % 3]
        try:
            solution = solve(mode, params)
        except SolverError:    # no stable real root at this draw
            continue
        drawn += 1
        yield f"draw-{drawn}-{mode.value}", solution


def test_rk4_path_is_bit_identical_to_the_numpy_scalar_loop():
    seen = 0
    for name, sol in _rk4_solutions():
        # the h = 0.005 path stops at T = 10 to keep the reference loop short
        for h, T in ((0.01, 40.0), (0.005, 10.0), (0.25, 40.0)):
            cfg = SimConfig(T=T, h=h, integrator=INTEGRATOR_RK4)
            got = integrate_trajectory(sol, cfg).H
            expected = _numpy_scalar_rk4(sol, cfg, sol.params)
            assert np.array_equal(got, expected), (name, h)
        seen += 1
    assert seen == 14 + 3 + 4


def test_diverging_rk4_step_is_an_error_naming_h_and_the_first_time():
    sol = _solved("baseline")
    cfg = SimConfig(T=4000.0, h=10.0, integrator=INTEGRATOR_RK4)
    reference = _numpy_scalar_rk4(sol, cfg, sol.params)
    first = float(cfg.times()[~np.isfinite(reference)][0])
    with pytest.raises(SimulationError) as excinfo:
        integrate_trajectory(sol, cfg)
    message = str(excinfo.value)
    assert f"t = {first!r} on" in message
    assert "step h = 10.0" in message


def test_finite_unstable_rk4_path_is_flagged_not_an_error():
    sol = _solved("baseline")
    cfg = SimConfig(T=40.0, h=5.0, integrator=INTEGRATOR_RK4)
    traj = integrate_trajectory(sol, cfg)
    assert np.isfinite(traj.H).all()
    assert np.array_equal(traj.H, _numpy_scalar_rk4(sol, cfg, sol.params))
    assert traj.flag.any() and (traj.H < 0.0).any()
    assert trajectory_table(traj) == _per_cell_table(traj)


# --- the running discounted payoffs: scipy's Simpson rule, the profit --------

@pytest.mark.parametrize("sink", [True, False], ids=["sink", "no-sink"])
@pytest.mark.parametrize("integrator", [INTEGRATOR_EXACT, INTEGRATOR_RK4])
def test_discounted_payoffs_match_scipy_simpson(integrator, sink):
    # an even prefix of the running payoff is composite Simpson over it, to
    # rounding on the scale of the integrated magnitude (the gs retailer's
    # rate changes sign early, so its running payoff passes near 0)
    integrate = pytest.importorskip("scipy.integrate")
    params = ModelParams() if sink else ModelParams().without_sink_trading()
    cfg = SimConfig(integrator=integrator)
    for mode in GameMode:
        traj = simulate(solve(mode, params), cfg, params)
        assert traj.t.size == 4001
        weight = np.exp(-params.rho * traj.t)
        for cum, rate in ((traj.disc_cum_f, traj.payoff_f),
                          (traj.disc_cum_r, traj.payoff_r)):
            for k in (*range(2, 42, 2), *range(4000, 42, -100)):
                f, x = weight[:k + 1] * rate[:k + 1], traj.t[:k + 1]
                scale = integrate.simpson(np.abs(f), x=x)
                assert (abs(cum[k] - integrate.simpson(f, x=x))
                        <= 1e-14 * scale), (mode, k)


@pytest.mark.parametrize("sink", [True, False], ids=["sink", "no-sink"])
@pytest.mark.parametrize("integrator", [INTEGRATOR_EXACT, INTEGRATOR_RK4])
def test_running_payoffs_end_at_the_discounted_profit(integrator, sink):
    # a table's last running profit plus the frozen-state tail is the
    # discounted profit, so the columns and the summary tell one story
    params = ModelParams() if sink else ModelParams().without_sink_trading()
    cfg = SimConfig(integrator=integrator)
    for mode in GameMode:
        traj = simulate(solve(mode, params), cfg, params)
        tail = np.exp(-params.rho * traj.t[-1]) / params.rho
        for role, cum, rate in (("farmer", traj.disc_cum_f, traj.payoff_f),
                                ("retailer", traj.disc_cum_r, traj.payoff_r)):
            assert cum[-1] + tail * rate[-1] == pytest.approx(
                discounted_profit(traj, role, params), rel=1e-14), (mode, role)

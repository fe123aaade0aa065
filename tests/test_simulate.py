"""Closed-loop trajectories: exact route, numeric route, and serialization."""

from types import SimpleNamespace

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
    TRAJECTORY_COLUMNS,
    exact_trajectory,
    integrate_trajectory,
    solve,
    solve_decentralized,
    solve_stackelberg,
    steady_state,
    steady_state_bisect,
    trajectory_table,
)
from carbongame.model import SolutionDiagnostics
from carbongame.simulate import INTEGRATOR_EXACT, INTEGRATOR_RK4, simulate
from carbongame.solver import CONVENTION_PRINTED

from reference_values import CASES


def _solved(case: str):
    params = ModelParams().replace(**CASES[case]["overrides"])
    return solve_decentralized(params)


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
    custom = exact_trajectory(sol, SimConfig(H0=2.0))
    assert custom.H[0] == 2.0
    with pytest.raises(SimulationError, match="H0 must be >= 0"):
        exact_trajectory(sol, SimConfig(H0=-0.5))


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


def test_steady_state_bisection_agrees_with_closed_form():
    for case in ("baseline", "no_sink", "strong_farmer_impact"):
        sol = _solved(case)
        direct = steady_state(sol)
        assert direct == pytest.approx(CASES[case]["gd"]["H_d"], rel=1e-9)
        assert abs(steady_state_bisect(sol) - direct) <= 1e-10


def test_unstable_solution_has_no_steady_state():
    sol = _solved("baseline")
    import dataclasses
    flipped = dataclasses.replace(sol, alpha=0.3)
    with pytest.raises(SimulationError,
                       match=r"no attracting steady state: alpha = 0\.3 >= 0"):
        steady_state(flipped)
    with pytest.raises(SimulationError):
        steady_state_bisect(flipped)


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
    sol = solve_stackelberg(params)
    traj = exact_trajectory(sol, SimConfig(T=2.0, h=0.1))
    assert traj.E_f == pytest.approx(sol.policies["farmer"].effort(traj.H))
    assert traj.x_f == pytest.approx(sol.subsidy(traj.H))
    assert traj.Q == pytest.approx(300.0 * traj.H)
    assert traj.D == pytest.approx(160.0 * traj.H)
    assert traj.F == pytest.approx((1.0 + 0.4 * traj.E_f) * 300.0 * traj.H)
    assert traj.disc_cum_f[0] == 0.0
    weight = np.exp(-params.rho * traj.t)
    assert traj.disc_cum_f[-1] == pytest.approx(
        np.trapezoid(weight * traj.payoff_f, traj.t))


def test_subsidy_series_is_nan_outside_stackelberg():
    traj = exact_trajectory(_solved("baseline"), SimConfig(T=1.0, h=0.1))
    assert np.isnan(traj.x_f).all()
    assert not traj.flag.any()


def test_trajectory_table_layout():
    sol = solve_stackelberg(ModelParams())
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
                "retailer": QuadraticValue(0.0, 0.0, 0.0, role="retailer")},
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


@pytest.mark.parametrize("solver", [solve_decentralized, solve_stackelberg],
                         ids=["gd", "gs"])
def test_trajectory_table_matches_the_per_cell_formatter(solver):
    traj = exact_trajectory(solver(ModelParams()), SimConfig(T=1.0, h=0.1))
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


# --- the numpy replacements equal scipy's routines ---------------------------

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


def test_bisection_equals_scipy_bisect_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")
    seen = 0
    for name, sol in _reference_solutions():
        center = -sol.beta / sol.alpha
        half = 1.0 + abs(center)
        # the solved drift usually vanishes exactly at the first midpoint;
        # stand-ins with the root moved off it run the whole loop
        for shift in (0.0, 0.1, -0.37, 0.93):
            drift = (sol.closed_loop_drift if shift == 0.0 else
                     lambda H, d=shift * half: sol.closed_loop_drift(H - d))
            stand_in = SimpleNamespace(alpha=sol.alpha, beta=sol.beta,
                                       closed_loop_drift=drift)
            expected = optimize.bisect(drift, center - half, center + half,
                                       xtol=1e-12)
            got = steady_state_bisect(stand_in)
            assert float.hex(got) == float.hex(expected), (name, shift)
        seen += 1
    assert seen == 14


@pytest.mark.parametrize("sink", [True, False], ids=["sink", "no-sink"])
@pytest.mark.parametrize("integrator", [INTEGRATOR_EXACT, INTEGRATOR_RK4])
def test_discounted_payoffs_equal_scipy_cumulative_trapezoid(integrator, sink):
    integrate = pytest.importorskip("scipy.integrate")
    params = ModelParams() if sink else ModelParams().without_sink_trading()
    cfg = SimConfig(integrator=integrator)
    for mode in GameMode:
        traj = simulate(solve(mode, params), cfg, params)
        assert traj.t.size == 4001
        weight = np.exp(-params.rho * traj.t)
        for cum, rate in ((traj.disc_cum_f, traj.payoff_f),
                          (traj.disc_cum_r, traj.payoff_r)):
            expected = integrate.cumulative_trapezoid(weight * rate, traj.t,
                                                      initial=0.0)
            assert np.array_equal(cum, expected), mode

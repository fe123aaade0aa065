"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and asserts the same condition. The criteria pin solver accuracy, published
anchor values, steady-state structure, cooperation orderings, sink-trading
gains, simulation consistency, independent grid certification, sensitivity
orderings, and the sharpness of the residual gate.
"""

import dataclasses

import numpy as np
import pytest

from carbongame import (
    GameMode,
    ModelParams,
    ScenarioConfig,
    SimConfig,
    SweepSpec,
    discounted_profit,
    equilibrium_check,
    exact_trajectory,
    integrate_trajectory,
    residual_scan,
    run_sweep,
    solve,
    total_value_at,
    value_at,
)
from carbongame.closed_form import corrected_centralized
from carbongame.simulate import simulate

MODES = (GameMode.DECENTRALIZED, GameMode.STACKELBERG, GameMode.CENTRALIZED)

ANCHORS = {
    "gd": {"A": 1.5477, "M": 1062.4, "B": 1098.2, "H_d": 7.778},
    "gc": {"A": 1.5504, "B": 2163.5, "H_d": 15.51},
}


@pytest.fixture(scope="module")
def params():
    return ModelParams()


@pytest.fixture(scope="module")
def solutions(params):
    return {mode.value: solve(mode, params) for mode in MODES}


@pytest.fixture(scope="module")
def no_sink_solutions(params):
    zeroed = dataclasses.replace(params, p_c=0.0)
    return {mode.value: solve(mode, zeroed) for mode in MODES}


def _report(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"criterion {number:02d} "
              f"{'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_hjb_residuals(capsys, solutions, params):
    scans = {mode: residual_scan(sol, params)
             for mode, sol in solutions.items()}
    worst = max(scans.values())
    _report(capsys, 1, worst <= 1e-8,
            f"max normalized HJB residual over [0, 2*H_d] = {worst:.3e} "
            f"(gd {scans['gd']:.1e}, gs {scans['gs']:.1e}, "
            f"gc {scans['gc']:.1e}); tolerance 1e-8")


def test_criterion_02_published_anchors(capsys, solutions, params):
    gd, gc = solutions["gd"], solutions["gc"]
    got = {
        "gd": {"A": gd.values["farmer"].A, "B": gd.values["farmer"].B,
               "M": gd.values["retailer"].B, "H_d": gd.H_d},
        "gc": {"A": gc.values["joint"].A, "B": gc.values["joint"].B,
               "H_d": gc.H_d},
    }
    gaps = {f"{mode}.{name}": abs(got[mode][name] - ref) / abs(ref)
            for mode, anchors in ANCHORS.items()
            for name, ref in anchors.items()}
    closed = corrected_centralized(params)
    joint = gc.values["joint"]
    closed_gap = max(abs(joint.A - closed["A"]) / abs(closed["A"]),
                     abs(joint.B - closed["B"]) / abs(closed["B"]),
                     abs(joint.C - closed["C"]) / abs(closed["C"]))
    passed = max(gaps.values()) <= 1e-3 and closed_gap <= 1e-6
    _report(capsys, 2, passed,
            f"worst anchor gap {max(gaps, key=gaps.get)} = "
            f"{max(gaps.values()):.2e} (tol 1e-3); centralized closed form "
            f"gap {closed_gap:.2e} (tol 1e-6)")


def _bisect(f, lo, hi, xtol=1e-12):
    """Root of f on [lo, hi], across which f changes sign, by plain
    bisection until the bracket is narrower than xtol."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0, f"f does not change sign on [{lo}, {hi}]"
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_03_steady_states_attract(capsys, solutions):
    alphas = {m: sol.alpha for m, sol in solutions.items()}
    gaps = {}
    for m, sol in solutions.items():
        half = 1.0 + abs(sol.H_d)
        root = _bisect(sol.closed_loop_drift, sol.H_d - half, sol.H_d + half)
        gaps[m] = abs(sol.H_d - root)
    passed = all(a < 0 for a in alphas.values()) and \
        all(g <= 1e-10 for g in gaps.values())
    rounded = {m: round(float(a), 4) for m, a in alphas.items()}
    _report(capsys, 3, passed,
            f"drift slopes {rounded} all negative; "
            f"max |H_d - bisection| = {max(gaps.values()):.1e} (tol 1e-10)")


def test_criterion_04_cooperation_orderings(capsys, solutions):
    h = {m: sol.H_d for m, sol in solutions.items()}
    v = {m: total_value_at(sol, sol.H_d) for m, sol in solutions.items()}
    passed = h["gc"] > h["gs"] > h["gd"] and v["gc"] > v["gs"] > v["gd"]
    _report(capsys, 4, passed,
            f"H_d gc {h['gc']:.3f} > gs {h['gs']:.3f} > gd {h['gd']:.3f}; "
            f"steady-state chain value gc {v['gc']:.1f} > gs {v['gs']:.1f} "
            f"> gd {v['gd']:.1f}")


def test_criterion_05_sink_trading_never_hurts(capsys, solutions,
                                               no_sink_solutions):
    worst = ("", np.inf)
    passed = True
    for mode, sol in solutions.items():
        base = no_sink_solutions[mode]
        for H in (0.1, sol.H_d):
            for role in sol.roles:
                gain = value_at(sol, role, H) - value_at(base, role, H)
                if gain < worst[1]:
                    worst = (f"{mode}/{role} at H={H:.3g}", gain)
                passed &= gain > 0.0 if role == "farmer" else gain >= 0.0
    _report(capsys, 5, passed,
            f"sink trading gains are nonnegative for every role, strict for "
            f"the farmer; smallest gain {worst[1]:.4g} ({worst[0]})")


def test_criterion_06_cost_sharing_beats_decentralized(capsys, solutions):
    gd, gs = solutions["gd"], solutions["gs"]
    f_gain = value_at(gs, "farmer", gs.H_d) - value_at(gd, "farmer", gd.H_d)
    r_gain = value_at(gs, "retailer", gs.H_d) - value_at(gd, "retailer",
                                                         gd.H_d)
    x = float(gs.subsidy(gs.H_d))
    in_range = 0.0 <= x < 1.0
    flagged = any("x_f" in flag or "subsidy" in flag
                  for flag in gs.diagnostics.flags)
    passed = f_gain > 0 and r_gain > 0 and (in_range or flagged)
    _report(capsys, 6, passed,
            f"steady-state gains over gd: farmer {f_gain:.1f}, retailer "
            f"{r_gain:.1f}; x_f(H_d) = {x:.4f} "
            f"{'in [0, 1)' if in_range else 'flagged'}")


def test_criterion_07_quadrature_matches_values(capsys, solutions, params):
    cfg = SimConfig(T=40.0, h=0.01)
    worst = 0.0
    for sol in solutions.values():
        trajectory = simulate(sol, cfg, params)
        for role in sol.roles:
            quad = discounted_profit(trajectory, role, params)
            exact = value_at(sol, role, params.H0)
            worst = max(worst, abs(quad - exact) / abs(exact))
    _report(capsys, 7, worst <= 1e-3,
            f"max relative gap between discounted quadrature and analytic "
            f"value at H0 = {worst:.2e} (tol 1e-3)")


def test_criterion_08_integrator_agreement(capsys, solutions, params):
    sol = solutions["gs"]
    errors = {}
    for h in (0.01, 0.005):
        cfg = SimConfig(T=40.0, h=h, integrator="fourth-order-fixed-step")
        rk4 = integrate_trajectory(sol, cfg, params)
        exact = exact_trajectory(sol, SimConfig(T=40.0, h=h), params)
        errors[h] = float(np.max(np.abs(rk4.H - exact.H)))
    ratio = errors[0.01] / errors[0.005]
    passed = errors[0.01] <= 1e-6 and ratio >= 8.0
    _report(capsys, 8, passed,
            f"sup-norm exact vs fourth order = {errors[0.01]:.2e} at h=0.01 "
            f"(tol 1e-6); halving the step cuts it {ratio:.1f}x (>= 8x)")


def test_criterion_09_grid_certification(capsys, solutions):
    reports = {m: equilibrium_check(sol) for m, sol in solutions.items()}
    passed = all(r.passed for r in reports.values())
    gaps = {m: max(r.policy_gaps.values() or [0.0])
            for m, r in reports.items()}
    leader = reports["gs"].leader_sample
    _report(capsys, 9, passed,
            f"grid best responses within tolerance (max policy gap "
            f"{max(gaps.values()):.2%}, value gaps within 0.5%); leader "
            f"perturbations improve at most "
            f"{max(leader['max_improvement'], 0.0):.2%} over 200 samples")


def test_criterion_10_sensitivity_orderings(capsys, params):
    slack = 1e-9
    worst = np.inf
    for name, grid in (("mu_f", (1.0, 1.25, 1.5, 1.75, 2.0)),
                       ("lambda_f", (300.0, 400.0, 500.0, 600.0, 700.0))):
        for value in grid:
            point = dataclasses.replace(params, **{name: value})
            efforts = {}
            for mode in MODES:
                sol = solve(mode, point)
                efforts[mode.value] = float(
                    sol.policies["farmer"].effort(sol.H_d))
            scale = max(1.0, efforts["gc"])
            worst = min(worst, efforts["gc"] - efforts["gs"],
                        efforts["gs"] - efforts["gd"])
            ordered = (efforts["gc"] >= efforts["gs"] - slack * scale
                       and efforts["gs"] >= efforts["gd"] - slack * scale)
            assert ordered, (name, value, efforts)

    spec = SweepSpec(parameter="p_c", values=tuple(np.linspace(0.0, 5.0, 21)),
                     modes=("gd",))
    artifacts = run_sweep(spec, ScenarioConfig())
    report = artifacts["run_report.json"]
    rows = artifacts["sweep.csv"].strip().splitlines()
    peaks = [p for p in report["argmax"]
             if p["response"] == "farmer_value_at_H_d"]
    passed = len(rows) == 22 and len(peaks) == 1
    peak = peaks[0]
    shape = ("an interior peak" if peak["interior_peak"]
             else "no interior peak (boundary argmax)")
    _report(capsys, 10, passed,
            f"steady-state farmer effort ordered gc >= gs >= gd on both "
            f"sensitivity grids (min margin {worst:.3g}); sink-price sweep "
            f"emitted 21 rows, farmer value argmax at p_c = "
            f"{peak['argmax_parameter_value']} over {peak['points']} solved "
            f"points, {shape} observed")


def test_criterion_11_residual_gate_is_sharp(capsys, solutions, params):
    weakest = np.inf
    for sol in solutions.values():
        for role, quad in sol.values.items():
            for field in ("A", "B", "C"):
                bent = dataclasses.replace(quad,
                                           **{field: getattr(quad, field) + 0.1})
                corrupted = dataclasses.replace(
                    sol, values={**sol.values, role: bent})
                weakest = min(weakest, residual_scan(corrupted, params))
    _report(capsys, 11, weakest > 1e-8,
            f"every +0.1 coefficient corruption lifts the residual scan to "
            f"at least {weakest:.3e} (> 1e-8)")

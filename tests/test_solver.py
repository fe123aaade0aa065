"""Equilibrium coefficients, root selection, backends, and failure modes.

Expected numbers live in reference_values.py and come from an independent
sympy re-derivation with a multistart root finder (tests/oracle_ref.py).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carbongame import (
    ComplexRootError,
    GameMode,
    ModelParams,
    ParameterError,
    QuadraticValue,
    SolverConfig,
    SolverError,
    UnstableModelError,
    hjb_residual,
    residual_scan,
    select_stable_root,
    solve,
    solve_centralized,
    solve_decentralized,
    solve_stackelberg,
)
from carbongame import closed_form, solver
from carbongame.profits import payoff_rates
from carbongame.solver import (
    BACKEND_CLOSED_FORM,
    CONVENTION_PRINTED,
    centralized_system,
    decentralized_system,
    stackelberg_system,
)

from reference_values import CASES, PRINTED

REL = 1e-9
ABS = 1e-9

_SOLVE = {"gd": solve_decentralized, "gs": solve_stackelberg,
          "gc": solve_centralized}


def _params(case: str) -> ModelParams:
    return ModelParams().replace(**CASES[case]["overrides"])


def _coeffs(sol) -> dict:
    if sol.mode is GameMode.CENTRALIZED:
        v = sol.values["joint"]
        return {"A": v.A, "B": v.B, "C": v.C}
    vf, vr = sol.values["farmer"], sol.values["retailer"]
    if sol.mode is GameMode.DECENTRALIZED:
        return {"A": vf.A, "B": vf.B, "C": vf.C, "M": vr.B, "N": vr.C}
    return {"A": vf.A, "B": vf.B, "C": vf.C, "M": vr.A, "N": vr.B, "F": vr.C}


def _assert_matches(sol, ref: dict):
    coeffs = _coeffs(sol)
    for key in ("A", "B", "C", "M", "N", "F"):
        if key in ref:
            assert coeffs[key] == pytest.approx(ref[key], rel=REL, abs=ABS), key
    for key in ("alpha", "beta", "H_d"):
        if key in ref:
            assert getattr(sol, key) == pytest.approx(ref[key], rel=REL, abs=ABS), key
    if "E_f_ss" in ref:
        assert sol.policies["farmer"].effort(sol.H_d) == pytest.approx(
            ref["E_f_ss"], rel=REL)
    if "E_r_ss" in ref:
        assert sol.policies["retailer"].effort(sol.H_d) == pytest.approx(
            ref["E_r_ss"], rel=REL)
    if "x_ss" in ref:
        assert sol.subsidy(sol.H_d) == pytest.approx(ref["x_ss"], rel=1e-8)
    H0 = sol.params.H0
    if "V_f_H0" in ref:
        assert sol.values["farmer"].value(H0) == pytest.approx(ref["V_f_H0"], rel=REL)
        assert sol.values["farmer"].value(sol.H_d) == pytest.approx(
            ref["V_f_ss"], rel=REL)
        assert sol.values["retailer"].value(H0) == pytest.approx(
            ref["V_r_H0"], rel=REL)
        assert sol.values["retailer"].value(sol.H_d) == pytest.approx(
            ref["V_r_ss"], rel=REL)
    if "V_H0" in ref:
        assert sol.values["joint"].value(H0) == pytest.approx(ref["V_H0"], rel=REL)
        assert sol.values["joint"].value(sol.H_d) == pytest.approx(
            ref["V_ss"], rel=REL)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_solution_matches_reference(case, mode):
    ref = CASES[case].get(mode)
    if ref is None:
        pytest.skip(f"no {mode} reference for {case}")
    params = _params(case)
    if ref.get("error") == "unstable":
        with pytest.raises(UnstableModelError):
            _SOLVE[mode](params)
        return
    sol = _SOLVE[mode](params)
    assert sol.mode is GameMode.from_string(mode)
    assert sol.alpha < 0.0
    _assert_matches(sol, ref)


def test_unstable_centralized_reports_candidate_slopes():
    with pytest.raises(UnstableModelError) as err:
        solve_centralized(_params("cheap_abatement_pricey_sink"))
    assert "unstable model: no branch with alpha < 0" in str(err.value)
    assert len(err.value.alphas) == 2
    assert all(a >= 0.0 for a in err.value.alphas)


@pytest.mark.parametrize("case", ["baseline", "strong_farmer_impact",
                                  "cheap_abatement_pricey_sink"])
def test_printed_follower_convention(case):
    ref = CASES[case]["gs_printed"]
    cfg = SolverConfig(follower_convention=CONVENTION_PRINTED)
    sol = solve_stackelberg(_params(case), cfg)
    assert sol.diagnostics.convention == CONVENTION_PRINTED
    _assert_matches(sol, {k: v for k, v in ref.items() if k != "ambiguous"})
    assert sol.diagnostics.ambiguous_stable_roots is ref.get("ambiguous", False)
    if ref.get("ambiguous"):
        assert any("stable branches" in n for n in sol.diagnostics.notes)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_residual_scan_is_tiny_at_solutions(case, mode):
    params = _params(case)
    if CASES[case].get(mode, {}).get("error"):
        pytest.skip("no stable solution")
    sol = _SOLVE[mode](params)
    assert residual_scan(sol, params) <= 1e-10
    assert sol.diagnostics.max_hjb_residual <= 1e-10


def test_hjb_residual_accepts_scalars_and_arrays():
    params = ModelParams()
    sol = solve_decentralized(params)
    res = hjb_residual(sol, params, 1.0)
    assert set(res) == {"farmer", "retailer"}
    assert abs(res["farmer"]) < 1e-8
    arr = hjb_residual(sol, params, np.linspace(0.0, 10.0, 11))
    assert arr["retailer"].shape == (11,)


def test_published_scale_discriminants_recorded():
    gd = solve_decentralized(ModelParams())
    assert gd.diagnostics.discriminants["Delta^GD"] == pytest.approx(
        PRINTED["gd"]["Delta^GD"], rel=1e-12)
    gc = solve_centralized(ModelParams())
    assert gc.diagnostics.discriminants["Delta^GC"] == pytest.approx(
        PRINTED["gc_corrected"]["Delta^GC"], rel=1e-12)
    gs = solve_stackelberg(ModelParams())
    assert gs.diagnostics.discriminants["Delta^GS1"] == pytest.approx(
        PRINTED["gs_standard_anchor"]["Delta^GS1"], rel=1e-9)
    assert gs.diagnostics.discriminants["Delta^GS2"] == pytest.approx(
        PRINTED["gs_standard_anchor"]["Delta^GS2"], rel=1e-9)
    assert gs.diagnostics.discriminants["Delta^GS1"] < 0.0
    assert gs.diagnostics.discriminants["Delta^GS2"] < 0.0


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_corrupting_a_coefficient_breaks_the_residual(mode):
    params = ModelParams()
    sol = _SOLVE[mode](params)
    role = "joint" if mode == "gc" else "farmer"
    broken = dict(sol.values)
    broken[role] = dataclasses.replace(sol.values[role],
                                       A=sol.values[role].A + 0.1)
    corrupted = dataclasses.replace(sol, values=broken)
    assert residual_scan(corrupted, params) > 1e-8


def test_select_stable_root_behaviour():
    slope = lambda c: c[0]
    assert select_stable_root([(1.0,), (-2.0,)], slope) == (-2.0,)
    with pytest.raises(UnstableModelError):
        select_stable_root([(0.5,), (2.0,)], slope)
    with pytest.raises(SolverError, match="no candidates"):
        select_stable_root([], slope)
    # two stable branches: smallest |leading coefficient| wins
    assert select_stable_root([(-0.5,), (0.2,)], lambda c: -1.0) == (0.2,)


def test_solver_config_validation():
    assert SolverConfig(backend="paper").backend == BACKEND_CLOSED_FORM
    with pytest.raises(ValueError, match="backend must be one of"):
        SolverConfig(backend="exact")
    with pytest.raises(ValueError, match="follower_convention must be"):
        SolverConfig(follower_convention="loose")
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="hjb_tolerance must be > 0"):
        SolverConfig(hjb_tolerance=-1e-9)


def test_solve_dispatch_accepts_mode_or_string():
    params = ModelParams()
    a = solve(GameMode.DECENTRALIZED, params)
    b = solve("gd", params)
    assert a.values["farmer"].A == b.values["farmer"].A
    with pytest.raises(ValueError, match="unknown game mode"):
        solve("cooperative", params)


def test_complex_root_for_high_sink_price():
    # Delta^GD = (720*p_c - 2700)^2 - (720*p_c)^2 turns negative past 1.875
    with pytest.raises(ComplexRootError) as err:
        solve_decentralized(ModelParams(p_c=2.5))
    assert err.value.label == "Delta^GD"
    assert err.value.discriminant == pytest.approx(-2430000.0, rel=1e-9)
    assert "complex root: discriminant Delta^GD" in str(err.value)


def test_zero_payoff_parameters_give_the_zero_solution():
    params = ModelParams(p_f=0.0, p_r=0.0, p_c=0.0)
    sol = solve_decentralized(params)
    assert _coeffs(sol) == pytest.approx({"A": 0.0, "B": 0.0, "C": 0.0,
                                          "M": 0.0, "N": 0.0}, abs=1e-12)
    assert residual_scan(sol, params) == 0.0


def test_collected_balances_vanish_at_the_solution():
    params = ModelParams()
    for system, sol, names in (
            (decentralized_system(params), solve_decentralized(params),
             ("A", "B", "C", "M", "N")),
            (stackelberg_system(params), solve_stackelberg(params),
             ("A", "B", "C", "M", "N", "F")),
            (centralized_system(params), solve_centralized(params),
             ("A", "B", "C"))):
        coeffs = _coeffs(sol)
        vec = [coeffs[n] for n in names]
        normalized = np.abs(system.residuals(vec)) / system.scales(vec)
        assert np.max(normalized) <= 1e-12


# a perturbed parameter set with short decimals, exact as sympy rationals
_PERTURBED = {"lambda_f": 430.5, "lambda_r": 260.0, "mu_f": 1.3, "mu_r": 0.65,
              "omega": 0.35, "p_c": 0.6, "delta": 1.2, "rho": 0.55,
              "theta": 0.7}


@pytest.mark.parametrize("overrides", [{}, _PERTURBED],
                         ids=["baseline", "perturbed"])
def test_derived_balances_match_the_sympy_derivation(overrides):
    # tests/oracle_ref.py derives each mode's balances symbolically from the
    # Hamiltonians; the solver derives them from its policy map
    sp = pytest.importorskip("sympy")
    oracle_ref = pytest.importorskip("oracle_ref")
    par = {**oracle_ref.BASELINE, **overrides}
    params = ModelParams().replace(**{k: float(v) for k, v in par.items()})
    rng = np.random.default_rng(20241018)
    for name, system in (
            ("gd", decentralized_system(params)),
            ("gs", stackelberg_system(params)),
            ("gs-printed", stackelberg_system(params, CONVENTION_PRINTED)),
            ("gc", centralized_system(params))):
        unknowns, eqs, _, _ = oracle_ref._BUILDERS[name](par)
        assert tuple(str(u) for u in unknowns) == system.names
        reference = sp.lambdify(unknowns, eqs, "numpy")
        # each balance's sum of |monomial|, the size of what it cancels
        magnitude = sp.lambdify(unknowns, [
            sum(abs(c) * sp.Mul(*(u ** k for u, k in zip(unknowns, powers)))
                for powers, c in sp.Poly(eq, *unknowns).terms())
            for eq in eqs], "numpy")
        for _ in range(20):
            # coefficients over eight orders of magnitude around typical sizes
            v = [oracle_ref._SCALES[n] * rng.uniform(-1.0, 1.0)
                 * np.exp(rng.uniform(-9.0, 9.0)) for n in system.names]
            expected = np.asarray(reference(*v), dtype=float)
            scale = np.asarray(magnitude(*np.abs(v)), dtype=float)
            assert np.all(np.abs(system.residuals(v) - expected)
                          <= 1e-12 * scale), name


@pytest.mark.parametrize("overrides", [{}, _PERTURBED],
                         ids=["baseline", "perturbed"])
@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_rate_polynomials_match_payoff_rates(mode, overrides):
    # the balances' payoff polynomials and profits.payoff_rates are two
    # statements of the same payoffs
    params = ModelParams().replace(**overrides)
    sol = _SOLVE[mode](params)
    terms = solver._payoff_polynomials(params, sol.mode)
    drift, _, rates = terms(solver._coefficients(sol))
    H = np.linspace(0.0, 2.0 * sol.H_d, 9)
    pol_f, pol_r = sol.policies["farmer"], sol.policies["retailer"]
    x = pol_r.subsidy(H) if mode == "gs" else None
    actual = payoff_rates(sol.mode, H, pol_f.effort(H), pol_r.effort(H), x,
                          params)
    expected = [actual.total] if mode == "gc" else [actual.net_f, actual.net_r]
    assert len(rates) == len(expected)
    for rate, exp in zip(rates, expected):
        assert np.polyval(rate, H) == pytest.approx(exp, rel=1e-12, abs=0.0)
    assert np.polyval(drift, H) == pytest.approx(sol.closed_loop_drift(H),
                                                 rel=1e-12, abs=1e-12)


# the parameters the robustness draws scale, each by a factor in [e^-1, e]
_DRAWN = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "p_c", "delta",
          "rho", "theta")
_CONFIGS = {"gd": SolverConfig(), "gs": SolverConfig(),
            "gs-printed": SolverConfig(follower_convention=CONVENTION_PRINTED),
            "gc": SolverConfig()}


def _drawn_params(logs) -> ModelParams:
    base = ModelParams()
    return base.replace(**{name: getattr(base, name) * float(np.exp(x))
                           for name, x in zip(_DRAWN, logs)})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=len(_DRAWN), max_size=len(_DRAWN)))
def test_random_parameter_sets_solve_cleanly(logs):
    # every input ends in a gated solution or a typed error, in every mode
    params = _drawn_params(logs)
    for name, cfg in _CONFIGS.items():
        try:
            sol = solve(name[:2], params, cfg)
        except (ParameterError, ComplexRootError, UnstableModelError, SolverError):
            continue
        coeffs = np.array(solver._coefficients(sol))
        assert sol.alpha < 0.0, name
        assert np.all(np.isfinite(coeffs)), name
        system = solver._system(params, sol.mode, cfg.follower_convention)
        assert np.max(np.abs(system.residuals(coeffs)) / system.scales(coeffs)) \
            <= cfg.tolerance, name
        assert residual_scan(sol, params) <= cfg.hjb_tolerance, name


@pytest.mark.parametrize("draw", [17, 22, 153, 200])
def test_polish_reaches_the_root_of_ill_conditioned_gs_draws(draw):
    # e^+-1 draws whose leader H^2 balance cancels to its rounding floor; a
    # polish that stops short of the root fails the 1e-12 balance gate there
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12345)
    logs = [rng.uniform(-1.0, 1.0, len(_DRAWN)) for _ in range(draw + 1)][draw]
    params = _drawn_params(logs)
    sol = solve_stackelberg(params)
    A, M = sol.values["farmer"].A, sol.values["retailer"].A
    system = stackelberg_system(params)

    def leading_rows(a, m):
        rows = system.balances([a, 0.0, 0.0, m, 0.0, 0.0])
        return [rows[0], rows[3]]

    with mpmath.workdps(30):
        root = mpmath.findroot(leading_rows, (mpmath.mpf(A), mpmath.mpf(M)))
        for value, exact in zip((A, M), root):
            assert abs(value - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("overrides", [{}, _PERTURBED],
                         ids=["baseline", "perturbed"])
@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_balance_structure_the_branch_solver_relies_on(name, overrides):
    # the solver finds the leading roots from the H^2 rows alone, completes
    # the H^1 unknowns by one linear solve and the H^0 unknowns from rho*v
    params = ModelParams().replace(**overrides)
    cfg = _CONFIGS[name]
    sol = solve(name[:2], params, cfg)
    system = solver._system(params, sol.mode, cfg.follower_convention)
    by_power = solver._BY_POWER[sol.mode]
    f = system.residuals
    coeffs = np.array(solver._coefficients(sol))
    rng = np.random.default_rng(20241018)
    for _ in range(10):
        # points and directions on the scale of the solution
        v = coeffs * rng.uniform(-2.0, 2.0, coeffs.size)
        d = rng.normal(size=v.size) * (1.0 + np.abs(v))
        # quadratic: third central differences vanish to rounding
        samples = [f(v + t * d) for t in (1.5, 0.5, -0.5, -1.5)]
        third = samples[0] - 3.0 * samples[1] + 3.0 * samples[2] - samples[3]
        assert np.all(np.abs(third) <= 1e-12 * np.max(np.abs(samples), axis=0))
        for power in (1, 0):
            # changing the unknowns of one power leaves the rows of higher
            # powers alone
            step = np.zeros(v.size)
            step[list(by_power[power])] = d[list(by_power[power])]
            moved = f(v + step) - f(v)
            higher = [i for k in range(power + 1, 3) for i in by_power[k]]
            assert np.all(np.abs(moved[higher]) <= 1e-12 * np.abs(f(v)[higher]))
            if power == 1:
                # the H^1 rows are affine in the H^1 unknowns
                rows = list(by_power[1])
                curve = f(v + step) - 2.0 * f(v) + f(v - step)
                assert np.all(np.abs(curve[rows]) <= 1e-12 * (
                    np.abs(f(v + step)) + np.abs(f(v - step)))[rows])
            else:
                # each H^0 row minus rho*v[i] is free of the H^0 unknowns
                assert moved == pytest.approx(params.rho * step, rel=1e-12,
                                              abs=1e-12 * np.max(np.abs(f(v))))
        if sol.mode is GameMode.STACKELBERG:
            # the farmer H^2 row is affine in M, so M = -a(A)/b(A) solves it
            step = np.zeros(v.size)
            step[system.names.index("M")] = d[system.names.index("M")]
            curve = f(v + step) - 2.0 * f(v) + f(v - step)
            assert abs(curve[0]) <= 1e-12 * (abs(f(v + step)[0]) + abs(f(v - step)[0]))


@pytest.mark.parametrize("p_c", [np.nextafter(1.875, 0.0), 1.875,
                                 np.nextafter(1.875, 3.0)])
def test_vanishing_gd_discriminant_gives_a_typed_outcome(p_c):
    # Delta^GD = (720*p_c - 2700)^2 - (720*p_c)^2 is zero at p_c = 1.875:
    # a double root, then none; RuntimeWarnings fail the suite
    try:
        sol = solve_decentralized(ModelParams(p_c=float(p_c)))
    except (ComplexRootError, UnstableModelError, SolverError):
        return
    assert sol.alpha < 0.0
    assert residual_scan(sol, sol.params) <= 1e-8


@pytest.mark.parametrize("offset", [-1e-11, -1e-12, -1e-13, 1e-13, 1e-12, 1e-11])
def test_gd_discriminant_near_zero_is_accurate_and_sets_the_error_class(offset):
    # at the baseline Delta^GD = 2700*(2700 - 1440*p_c); its terms are ~7e6,
    # so 1e-8 is a few ulps, and the near-double root A ~ 75 is unstable
    params = ModelParams(p_c=1.875 + offset)
    expected = 2700.0 * (2700.0 - 1440.0 * params.p_c)
    if expected < 0.0:
        with pytest.raises(ComplexRootError) as err:
            solve_decentralized(params)
        reported = err.value.discriminant
    else:
        with pytest.raises(UnstableModelError):
            solve_decentralized(params)
        _, discs = solver._leading_branches(params, decentralized_system(params))
        reported = discs["Delta^GD"]
    assert abs(reported - expected) <= 1e-8


# ---------------------------------------------------------------------------
# published closed forms and the comparison backend
# ---------------------------------------------------------------------------

def test_printed_decentralized_values_are_frozen():
    out = closed_form.printed_decentralized(ModelParams())
    for key, expected in PRINTED["gd"].items():
        assert out[key] == pytest.approx(expected, rel=1e-12), key
    assert "p_m->p_r" in out["symbol mapping"]


def test_printed_stackelberg_needs_the_full_anchor():
    anchor = {k: CASES["baseline"]["gs"][k] for k in ("A", "B", "C", "M", "N", "F")}
    out = closed_form.printed_stackelberg(ModelParams(), anchor)
    for key, expected in PRINTED["gs_standard_anchor"].items():
        assert out[key] == pytest.approx(expected, rel=1e-9), key
    assert np.isnan(out["A"]) and np.isnan(out["M"])  # negative printed roots
    with pytest.raises(KeyError):
        closed_form.printed_stackelberg(ModelParams(), {"A": 1.0})


def test_printed_centralized_garbled_but_correctable():
    verbatim = closed_form.printed_centralized(ModelParams())
    assert verbatim["Delta^GC"] == pytest.approx(PRINTED["gc"]["Delta^GC"], rel=1e-9)
    assert verbatim["Delta^GC"] < 0.0
    assert np.isnan(verbatim["A"])
    corrected = closed_form.corrected_centralized(ModelParams())
    for key, expected in PRINTED["gc_corrected"].items():
        assert corrected[key] == pytest.approx(expected, rel=1e-12), key
    ref = CASES["baseline"]["gc"]
    for key in ("A", "B", "C"):
        assert corrected[key] == pytest.approx(ref[key], rel=1e-9), key


def test_paper_backend_centralized_matches_residual():
    cfg = SolverConfig(backend="paper")
    sol = solve_centralized(ModelParams(), cfg)
    assert sol.diagnostics.backend == BACKEND_CLOSED_FORM
    reference = solve_centralized(ModelParams())
    assert sol.values["joint"].A == pytest.approx(reference.values["joint"].A,
                                                  rel=1e-6)
    assert sol.values["joint"].C == pytest.approx(reference.values["joint"].C,
                                                  rel=1e-6)
    assert sol.diagnostics.max_hjb_residual <= 1e-8
    gaps = sol.diagnostics.printed_comparison["relative gaps (verbatim vs corrected)"]
    assert np.isnan(gaps["A"])  # verbatim A is not real at these parameters


def test_paper_backend_decentralized_measures_the_damage():
    sol = solve_decentralized(ModelParams(), SolverConfig(backend="paper"))
    assert sol.values["retailer"].B == pytest.approx(PRINTED["gd"]["M"], rel=1e-12)
    assert sol.H_d == pytest.approx(PRINTED["paper_backend"]["gd_H_d"], rel=1e-9)
    assert sol.diagnostics.max_hjb_residual == pytest.approx(
        PRINTED["paper_backend"]["gd_scan"], rel=1e-6)
    assert sol.diagnostics.max_hjb_residual > 1e-8
    assert any(f.startswith("H_d = ") for f in sol.diagnostics.flags)
    gaps = sol.diagnostics.printed_comparison["relative gaps"]
    assert gaps["A"] < 1e-12          # printed A is the one consistent value
    assert gaps["M"] > 1.0            # printed M is wildly off


def test_paper_backend_stackelberg_falls_back_to_anchor():
    sol = solve_stackelberg(ModelParams(), SolverConfig(backend="paper"))
    ref = CASES["baseline"]["gs"]
    assert sol.values["farmer"].A == pytest.approx(ref["A"], rel=1e-9)
    assert sol.values["retailer"].A == pytest.approx(ref["M"], rel=1e-9)
    assert sol.values["farmer"].B == pytest.approx(
        PRINTED["gs_standard_anchor"]["B"], rel=1e-9)
    assert sol.diagnostics.max_hjb_residual == pytest.approx(
        PRINTED["paper_backend"]["gs_scan"], rel=1e-6)
    assert any("anchor values retained for A, M" in f
               for f in sol.diagnostics.flags)
    assembled = sol.diagnostics.printed_comparison["assembled from"]
    assert assembled["A"] == "anchor (printed not real)"
    assert assembled["B"] == "printed"


def test_subsidy_out_of_range_is_flagged_not_fatal():
    ref = CASES["cheap_abatement_pricey_sink"]
    sol = solve_stackelberg(_params("cheap_abatement_pricey_sink"))
    assert sol.subsidy(sol.H_d) == pytest.approx(ref["gs"]["x_ss"], rel=1e-8)
    assert any(f.startswith("x_f outside [0, 1)") for f in sol.diagnostics.flags)


def test_diagnostics_to_dict_round_trip():
    sol = solve_stackelberg(ModelParams())
    d = sol.diagnostics.to_dict()
    assert d["backend"] == "residual"
    assert d["convention"] == "standard-cost-share"
    # a second, far-out stable branch exists; the tie-break is recorded
    assert d["ambiguous_stable_roots"] is True
    assert any("stable branches" in n for n in d["notes"])
    assert isinstance(d["candidates"], list) and d["candidates"]

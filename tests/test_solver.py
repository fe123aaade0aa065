"""Equilibrium coefficients, root selection, backends, and failure modes.

Expected numbers live in reference_values.py and come from an independent
sympy re-derivation with a multistart root finder (tests/oracle_ref.py).
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carbongame import (
    ComplexRootError,
    GameMode,
    GameSolution,
    ModelParams,
    ParameterError,
    QuadraticValue,
    SolverConfig,
    SolverError,
    UnstableModelError,
    hjb_residual,
    residual_scan,
    solve,
    solve_many,
)
from carbongame import closed_form, solver
from carbongame.profits import payoff_rates, value_at
from carbongame.solver import (
    BACKEND_CLOSED_FORM,
    CONVENTION_PRINTED,
)

from reference_values import CASES, PRINTED

REL = 1e-9
ABS = 1e-9

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
            solve(mode, params)
        return
    sol = solve(mode, params)
    assert sol.mode is GameMode.from_string(mode)
    assert sol.alpha < 0.0
    _assert_matches(sol, ref)


def test_unstable_centralized_reports_candidate_slopes():
    with pytest.raises(UnstableModelError) as err:
        solve("gc", _params("cheap_abatement_pricey_sink"))
    assert "unstable model: no branch with alpha < 0" in str(err.value)
    assert len(err.value.alphas) == 2
    assert all(a >= 0.0 for a in err.value.alphas)


@pytest.mark.parametrize("case", ["baseline", "strong_farmer_impact",
                                  "cheap_abatement_pricey_sink"])
def test_printed_follower_convention(case):
    ref = CASES[case]["gs_printed"]
    cfg = SolverConfig(follower_convention=CONVENTION_PRINTED)
    sol = solve("gs", _params(case), cfg)
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
    sol = solve(mode, params)
    assert residual_scan(sol, params) <= 1e-10
    assert sol.diagnostics.max_hjb_residual <= 1e-10


def test_hjb_residual_accepts_scalars_and_arrays():
    params = ModelParams()
    sol = solve("gd", params)
    res = hjb_residual(sol, params, 1.0)
    assert set(res) == {"farmer", "retailer"}
    assert abs(res["farmer"]) < 1e-8
    arr = hjb_residual(sol, params, np.linspace(0.0, 10.0, 11))
    assert arr["retailer"].shape == (11,)


def test_published_scale_discriminants_recorded():
    gd = solve("gd", ModelParams())
    assert gd.diagnostics.discriminants["Delta^GD"] == pytest.approx(
        PRINTED["gd"]["Delta^GD"], rel=1e-12)
    gc = solve("gc", ModelParams())
    assert gc.diagnostics.discriminants["Delta^GC"] == pytest.approx(
        PRINTED["gc_corrected"]["Delta^GC"], rel=1e-12)
    gs = solve("gs", ModelParams())
    assert gs.diagnostics.discriminants["Delta^GS1"] == pytest.approx(
        PRINTED["gs_standard_anchor"]["Delta^GS1"], rel=1e-9)
    assert gs.diagnostics.discriminants["Delta^GS2"] == pytest.approx(
        PRINTED["gs_standard_anchor"]["Delta^GS2"], rel=1e-9)
    assert gs.diagnostics.discriminants["Delta^GS1"] < 0.0
    assert gs.diagnostics.discriminants["Delta^GS2"] < 0.0


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_corrupting_a_coefficient_breaks_the_residual(mode):
    params = ModelParams()
    sol = solve(mode, params)
    role = "joint" if mode == "gc" else "farmer"
    broken = dict(sol.values)
    broken[role] = dataclasses.replace(sol.values[role],
                                       A=sol.values[role].A + 0.1)
    corrupted = dataclasses.replace(sol, values=broken)
    assert residual_scan(corrupted, params) > 1e-8


def test_select_stable_root_behaviour():
    # the stable-branch rule _pick applies to every cell, on one cell: its
    # branches' leading coefficients, drift slopes and mask
    def pick(leading, alphas, mask=None):
        column = lambda x: np.array(x, dtype=float)[:, None]
        mask = column([True] * len(leading) if mask is None else mask) > 0.0
        index, (error,) = solver._pick(column(leading), column(alphas), mask)
        if error is not None:
            raise error
        return int(index[0])

    assert pick([1.0, -2.0], [1.0, -2.0]) == 1
    with pytest.raises(UnstableModelError):
        pick([0.5, 2.0], [0.5, 2.0])
    with pytest.raises(SolverError, match="no candidates") as err:
        pick([-1.0], [-1.0], mask=[False])
    assert type(err.value) is SolverError
    # two stable branches: smallest |leading coefficient| wins
    assert pick([-0.5, 0.2], [-1.0, -1.0]) == 1


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
        solve("gd", ModelParams(p_c=2.5))
    assert err.value.label == "Delta^GD"
    assert err.value.discriminant == pytest.approx(-2430000.0, rel=1e-9)
    assert "complex root: discriminant Delta^GD" in str(err.value)


def test_zero_payoff_parameters_give_the_zero_solution():
    params = ModelParams(p_f=0.0, p_r=0.0, p_c=0.0)
    sol = solve("gd", params)
    assert _coeffs(sol) == pytest.approx({"A": 0.0, "B": 0.0, "C": 0.0,
                                          "M": 0.0, "N": 0.0}, abs=1e-12)
    assert residual_scan(sol, params) == 0.0


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_coefficients_are_continuous_as_the_sink_price_vanishes(mode):
    # relative to the largest coefficient: A is a rounding-level zero at
    # p_c = 0; the measured gap is 5e-10 to 6e-10
    at_zero = np.array(solver._coefficients(solve(mode, ModelParams(p_c=0.0))))
    near = np.array(solver._coefficients(solve(mode, ModelParams(p_c=1e-9))))
    assert np.max(np.abs(near - at_zero)) <= 1e-8 * np.max(np.abs(at_zero))


def test_collected_balances_vanish_at_the_solution():
    params = ModelParams()
    for system, sol, names in (
            (solver._system(params, GameMode.DECENTRALIZED), solve("gd", params),
             ("A", "B", "C", "M", "N")),
            (solver._system(params, GameMode.STACKELBERG), solve("gs", params),
             ("A", "B", "C", "M", "N", "F")),
            (solver._system(params, GameMode.CENTRALIZED), solve("gc", params),
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
            ("gd", solver._system(params, GameMode.DECENTRALIZED)),
            ("gs", solver._system(params, GameMode.STACKELBERG)),
            ("gs-printed",
             solver._system(params, GameMode.STACKELBERG, CONVENTION_PRINTED)),
            ("gc", solver._system(params, GameMode.CENTRALIZED))):
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
    sol = solve(mode, params)
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


def _outcome(mode, params, cfg):
    try:
        return solve(mode, params, cfg)
    except (ParameterError, SolverError) as exc:
        return exc


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(_CONFIGS)))
def test_solve_many_is_solve_cell_by_cell(seed, name):
    # e^+-3 draws reach every outcome class: solutions, complex roots,
    # unstable branches, no real gs branch and the balance gate; one cell
    # per batch fails validation
    rng = np.random.default_rng(seed)
    cells = [_drawn_params(rng.uniform(-3.0, 3.0, len(_DRAWN))) for _ in range(10)]
    cells[int(rng.integers(len(cells)))] = cells[0].replace(lambda_f=-1.0)
    cfg = _CONFIGS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = solve_many(name[:2], cells, cfg)
    assert len(batch) == len(cells)
    for params, got in zip(cells, batch):
        expected = _outcome(name[:2], params, cfg)
        assert type(got) is type(expected)
        if isinstance(expected, Exception):
            assert str(got) == str(expected)
            continue
        assert solver._coefficients(got) == solver._coefficients(expected)
        assert (got.alpha, got.beta, got.H_d) == (expected.alpha, expected.beta,
                                                  expected.H_d)
        assert json.dumps(got.diagnostics.to_dict(), sort_keys=True) == \
            json.dumps(expected.diagnostics.to_dict(), sort_keys=True)


def test_solve_many_keeps_input_order_and_validates_each_cell():
    cells = [ModelParams(), ModelParams(lambda_f=-1.0), ModelParams(p_c=2.5),
             ModelParams(p=200.0), ModelParams(p_c=0.0)]
    out = solve_many("gd", cells)
    assert [type(x) for x in out] == [GameSolution, ParameterError,
                                      ComplexRootError, ParameterError,
                                      GameSolution]
    assert "lambda_f > 0 violated" in str(out[1])
    assert out[4].params.p_c == 0.0
    assert solve_many("gc", []) == []


OVERFLOWING = [ModelParams(Q0=1e300), ModelParams(lambda_f=1e-300),
               ModelParams(mu_f=1e200), ModelParams(p=1e200, D0=1e203),
               ModelParams(rho=1e300), ModelParams(p_f=1e306)]


@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_parameters_whose_balances_overflow_are_a_parameter_error(mode):
    # finite and valid, but the H^2 balances or their discriminant (gd, gc)
    # or quartic (gs) overflow float64, or (p_f) only the H^1 balances do;
    # an overflow warning fails the suite
    batch = solve_many(mode, [ModelParams(), *OVERFLOWING])
    for params, got in zip(OVERFLOWING, batch[1:]):
        assert isinstance(got, ParameterError), (params, got)
        assert "parameters overflow float64" in str(got)
    assert (solver._coefficients(batch[0])
            == solver._coefficients(solve(mode, ModelParams())))


@pytest.mark.parametrize("mode", ["gd", "gc"])
def test_values_that_overflow_in_the_scan_fail_the_scan_gate(mode):
    # H_d = 2e297: the coefficients are finite, the values on [0, 2*H_d]
    # are not, and a nan scan no longer passes the gate
    with pytest.raises(SolverError, match="residual scan nan exceeds"):
        solve(mode, ModelParams(mu_f=1e150))


@pytest.mark.parametrize("cfg, gate", [
    (SolverConfig(tolerance=1e-300), "collected balance"),
    (SolverConfig(hjb_tolerance=1e-300), "stationarity-equation residual scan")],
    ids=["balance-gate", "scan-gate"])
@pytest.mark.parametrize("mode", ["gd", "gs", "gc"])
def test_solve_many_gates_each_cell_as_solve_does(mode, cfg, gate):
    # bounds no solution meets: every cell that reaches a gate leaves the
    # batch there, beside cells that fail earlier (validation, and complex
    # roots in gd and gc)
    cells = [ModelParams(), ModelParams(lambda_f=-1.0), ModelParams(p_c=2.5),
             ModelParams(mu_f=1.3)]
    batch = solve_many(mode, cells, cfg)
    for params, got in zip(cells, batch):
        expected = _outcome(mode, params, cfg)
        assert type(got) is type(expected) and str(got) == str(expected)
    assert str(batch[0]).startswith(gate) and str(batch[3]).startswith(gate)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=len(_DRAWN), max_size=len(_DRAWN)))
def test_sink_trading_never_lowers_the_farmer_or_joint_value(logs):
    # at H0 over e^+-1 draws in gd (farmer) and gc (joint); in gs only over
    # e^+-0.2: wider draws break it for the farmer where x_f(H_d) < 0
    wide, narrow = _drawn_params(logs), _drawn_params([0.2 * x for x in logs])
    for mode, role, params in (("gd", "farmer", wide), ("gc", "joint", wide),
                               ("gs", "farmer", narrow)):
        on, off = solve_many(mode, [params, params.without_sink_trading()])
        if isinstance(on, Exception) or isinstance(off, Exception):
            continue
        assert value_at(on, role, params.H0) >= value_at(off, role, params.H0), mode


def _branches(cells) -> list:
    """Per cell, the (A, M) branches _eliminate finds for coefficient rows
    (a, b, g0, g1, g2)."""
    a, b, g0, g1, g2 = (np.array(x, dtype=float) for x in zip(*cells))
    A, M, mask, _ = solver._eliminate(a, b, g0, g1, g2)
    return [list(zip(A[mask[:, i], i].tolist(), M[mask[:, i], i].tolist()))
            for i in range(len(cells))]


def test_gs_elimination_takes_m_from_the_leader_row_where_b_vanishes():
    # the farmer row a(A) + b(A)*M with a(0) = b(0) = 0 makes A = 0 a root of
    # the quartic at which M = -a/b is 0/0; the leader row, here
    # g0(0) + g1(0)*M + g2*M^2 = (M - 1)*(M - 2), must give M instead
    a, b, g0, g1, g2 = special = ([0.0, 1.5, -0.5], [0.0, 2.0],
                                  [2.0, 0.3, 0.7], [-3.0, 0.4], 1.0)
    alone = _branches([special])[0]
    assert alone == [(0.0, 1.0), (0.0, 2.0)]
    for A, M in alone:
        assert np.polyval(b[::-1], A) == 0.0
        assert np.polyval(g0[::-1], A) + np.polyval(g1[::-1], A) * M + g2 * M * M == 0.0
    # in a batch with ordinary cells every cell gets what it gets alone
    rng = np.random.default_rng(7)
    cells = [(rng.normal(size=3), rng.normal(size=2), rng.normal(size=3),
              rng.normal(size=2), rng.normal()) for _ in range(3)]
    cells.insert(1, special)
    assert _branches(cells) == [_branches([cell])[0] for cell in cells]
    assert all(_branches([cell])[0] for cell in cells)


def test_gs_elimination_finds_the_roots_of_a_quartic_that_lost_degree():
    # a2 = b1 = g2 = 1, g1_1 = 3 and g0_2 = 2 cancel the A^4 term exactly;
    # the second cell keeps only A^1 and A^0 (a and b constant in A); each
    # cell's A are the real roots numpy's polyroots finds for its quartic,
    # in a batch with a full-degree cell
    cubic = ([-1.0, 0.5, 1.0], [0.2, 1.0], [0.3, -2.0, 2.0], [1.5, 3.0], 1.0)
    linear = ([-2.0, 0.0, 0.0], [0.5, 0.0], [1.0, 4.0, 0.0], [1.0, 0.0], 1.0)
    full = ([1.0, -2.0, 0.5], [1.0, 1.0], [-1.0, 0.5, 1.0], [0.5, -1.0], 2.0)
    cells = [cubic, linear, full]
    for (a, b, g0, g1, g2), branches, degree in zip(cells, _branches(cells), (3, 1, 4)):
        P = np.polynomial.Polynomial
        quartic = (P(g0) * P(b) ** 2 - P(g1) * P(a) * P(b) + g2 * P(a) ** 2).coef
        quartic = np.trim_zeros(quartic, "b")
        roots = np.polynomial.polynomial.polyroots(quartic)
        expected = np.sort(roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))])
        assert len(quartic) - 1 == degree
        assert [A for A, _ in branches] == pytest.approx(expected, rel=1e-12, abs=1e-14)
        for A, M in branches:
            # M = -a(A)/b(A) solves the farmer row
            assert np.polyval(a[::-1], A) + np.polyval(b[::-1], A) * M == \
                pytest.approx(0.0, abs=1e-12 * (1.0 + abs(M)))


@pytest.mark.parametrize("convention", [solver.CONVENTION_STANDARD, CONVENTION_PRINTED])
def test_gs_batch_with_and_without_sink_trading_is_solve_cell_by_cell(convention):
    # without sink trading a(0) = b(0) = 0 in every gs cell, so A = 0 takes
    # its M from the leader row; mixed with cells that trade, every entry is
    # the cell's own solve, diagnostics included, branch order and all
    rng = np.random.default_rng(3)
    trading = [_drawn_params(rng.uniform(-1.0, 1.0, len(_DRAWN))) for _ in range(6)]
    cells = [p for params in trading for p in (params, params.without_sink_trading())]
    cfg = SolverConfig(follower_convention=convention)
    batch = solve_many("gs", cells, cfg)
    for params, got in zip(cells, batch):
        expected = _outcome("gs", params, cfg)
        assert type(got) is type(expected)
        if isinstance(expected, Exception):
            assert str(got) == str(expected)
            continue
        assert solver._coefficients(got) == solver._coefficients(expected)
        assert json.dumps(got.diagnostics.to_dict()) == \
            json.dumps(expected.diagnostics.to_dict())
        if params.p_c == 0.0:
            assert any(c["coefficients"][0] == 0.0 for c in got.diagnostics.candidates)


def test_regular_solves_flag_singular_cells_and_match_numpy_elsewhere():
    rng = np.random.default_rng(11)
    matrix, rhs = rng.normal(size=(5, 4, 4)), rng.normal(size=(5, 4, 2))
    matrix[2, :, 0] = 0.0   # a zero column: exactly singular
    out, singular = solver._solve_regular(matrix, rhs)
    assert singular.tolist() == [False, False, True, False, False]
    assert np.all(out[2] == 0.0)
    for i in (0, 1, 3, 4):
        assert np.array_equal(out[i], np.linalg.solve(matrix[i], rhs[i]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(matrix[2], rhs[2])


@pytest.mark.parametrize("draw", [17, 22, 153, 200])
def test_polish_reaches_the_root_of_ill_conditioned_gs_draws(draw):
    # e^+-1 draws whose leader H^2 balance cancels to its rounding floor; a
    # polish that stops short of the root fails the 1e-12 balance gate there
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12345)
    logs = [rng.uniform(-1.0, 1.0, len(_DRAWN)) for _ in range(draw + 1)][draw]
    params = _drawn_params(logs)
    sol = solve("gs", params)
    A, M = sol.values["farmer"].A, sol.values["retailer"].A
    system = solver._system(params, GameMode.STACKELBERG)

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
        sol = solve("gd", ModelParams(p_c=float(p_c)))
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
            solve("gd", params)
        reported = err.value.discriminant
    else:
        with pytest.raises(UnstableModelError):
            solve("gd", params)
        stacked = solver._stack([params])
        _, _, discs, _ = solver._leading_branches(
            stacked, solver._system(stacked, GameMode.DECENTRALIZED))
        reported = discs[0]["Delta^GD"]
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
    sol = solve("gc", ModelParams(), cfg)
    assert sol.diagnostics.backend == BACKEND_CLOSED_FORM
    reference = solve("gc", ModelParams())
    assert sol.values["joint"].A == pytest.approx(reference.values["joint"].A,
                                                  rel=1e-6)
    assert sol.values["joint"].C == pytest.approx(reference.values["joint"].C,
                                                  rel=1e-6)
    assert sol.diagnostics.max_hjb_residual <= 1e-8
    gaps = sol.diagnostics.printed_comparison["relative gaps (verbatim vs corrected)"]
    assert np.isnan(gaps["A"])  # verbatim A is not real at these parameters


def test_paper_backend_decentralized_measures_the_damage():
    sol = solve("gd", ModelParams(), SolverConfig(backend="paper"))
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
    sol = solve("gs", ModelParams(), SolverConfig(backend="paper"))
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
    sol = solve("gs", _params("cheap_abatement_pricey_sink"))
    assert sol.subsidy(sol.H_d) == pytest.approx(ref["gs"]["x_ss"], rel=1e-8)
    assert any(f.startswith("x_f outside [0, 1)") for f in sol.diagnostics.flags)


def test_diagnostics_to_dict_round_trip():
    sol = solve("gs", ModelParams())
    d = sol.diagnostics.to_dict()
    assert d["backend"] == "residual"
    assert d["convention"] == "standard-cost-share"
    # a second, far-out stable branch exists; the tie-break is recorded
    assert d["ambiguous_stable_roots"] is True
    assert any("stable branches" in n for n in d["notes"])
    assert isinstance(d["candidates"], list) and d["candidates"]

"""Equilibrium coefficient solver for the three cooperation modes.

Each mode is written down once, as a policy map from value-function
coefficients to affine efforts E = g1*H + g0 (plus, in the leader-follower
mode, the leader's subsidy rule x_f = (n1*H + n0)/(d1*H + d0)). The balances
are derived from it: the H^2, H^1 and H^0 coefficients of
rho*V - rate - V'*drift per role, by polynomial arithmetic on the efforts
and the role payoffs (the undetermined-coefficients form of Dockner,
Jorgensen, Long & Sorger, *Differential Games in Economics and Management
Science*, 2000). Everything else is read off the balances: the H^2 rows
give every branch of the leading coefficients (a quadratic in A, or in gs a
quartic after eliminating M), the drift slope picks the stable one, the
H^1 and H^0 rows complete it by linear solves, and a Newton polish on all
balances takes it to the rounding floor before the residual gate.

Two backends are available. "residual" solves the derived balances; it is
the authoritative path. "paper-closed-form" evaluates the published
closed-form coefficient expressions verbatim for discrepancy reporting (see
closed_form.py).

Conventions for the Stackelberg follower:

* "standard-cost-share" (default): the follower's first-order condition keeps
  the (1 - x_f) cost-share factor, E_f = (eta*H + mu_f*V_f')/((1 - x_f)*
  lambda_f), consistent with the subsidy-ratio formula
  x_f = (2*V_r' - V_f' - eta*H/mu_f)/(2*V_r' + V_f' + eta*H/mu_f).
* "paper-printed": the published follower rule without the cost-share
  factor, and the published substituted equations, which are the standard
  balances plus (1 - mu_f)*eta^2/(4*lambda_f) on the farmer H^2 row and
  (1 - mu_f)*eta^2/(8*lambda_f) on the leader H^2 row (an extra mu_f on the
  quadratic revenue terms); selectable for comparison via residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import profits
from .model import (
    FeedbackPolicy,
    GameMode,
    GameSolution,
    ModelParams,
    QuadraticValue,
    SolutionDiagnostics,
    derive_constants,
    reduction_drift,
    validate_params,
)

__all__ = [
    "SolverConfig", "CoefficientSystem", "SolverError", "ComplexRootError",
    "UnstableModelError", "solve", "solve_decentralized", "solve_stackelberg",
    "solve_centralized", "select_stable_root", "hjb_residual", "residual_scan",
    "decentralized_system", "stackelberg_system", "centralized_system",
]

BACKEND_RESIDUAL = "residual"
BACKEND_CLOSED_FORM = "paper-closed-form"
CONVENTION_STANDARD = "standard-cost-share"
CONVENTION_PRINTED = "paper-printed"

_BACKEND_ALIASES = {"residual": BACKEND_RESIDUAL,
                    "paper": BACKEND_CLOSED_FORM,
                    "paper-closed-form": BACKEND_CLOSED_FORM}


class SolverError(RuntimeError):
    """Base class for equilibrium-solver failures."""


class ComplexRootError(SolverError):
    """The coefficient discriminant is negative; no real branch exists."""

    def __init__(self, label: str, discriminant: float):
        self.label = label
        self.discriminant = discriminant
        super().__init__(
            f"complex root: discriminant {label} = {discriminant:.6g} < 0")


class UnstableModelError(SolverError):
    """No candidate branch yields a stable closed loop (alpha < 0)."""

    def __init__(self, alphas: Sequence[float]):
        self.alphas = list(alphas)
        super().__init__(
            "unstable model: no branch with alpha < 0, candidate drift slopes "
            + ", ".join(f"{a:.6g}" for a in self.alphas))


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    tolerance bounds the infinity norm of the collected balance residuals,
    measured against 1 + |rho*V coefficient| per equation so money-scale
    balances stay representable in floating point. hjb_tolerance bounds the
    normalized stationarity-equation residual scan recorded in diagnostics.
    """

    backend: str = BACKEND_RESIDUAL
    tolerance: float = 1e-12
    hjb_tolerance: float = 1e-8
    follower_convention: str = CONVENTION_STANDARD

    def __post_init__(self):
        if self.backend not in _BACKEND_ALIASES:
            raise ValueError(f"backend must be one of {sorted(set(_BACKEND_ALIASES))}, "
                             f"got {self.backend!r}")
        object.__setattr__(self, "backend", _BACKEND_ALIASES[self.backend])
        if self.follower_convention not in (CONVENTION_STANDARD, CONVENTION_PRINTED):
            raise ValueError("follower_convention must be "
                             f"{CONVENTION_STANDARD!r} or {CONVENTION_PRINTED!r}, "
                             f"got {self.follower_convention!r}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if not self.hjb_tolerance > 0:
            raise ValueError(f"hjb_tolerance must be > 0, got {self.hjb_tolerance}")


# ---------------------------------------------------------------------------
# the game: one policy map, and the balances derived from it
# ---------------------------------------------------------------------------

# Unknowns of each mode, and the roles whose values V = A*H^2 + B*H + C they
# hold in that order; the decentralized retailer's value is linear, M*H + N.
_UNKNOWNS = {GameMode.DECENTRALIZED: (tuple("ABCMN"), ("farmer", "retailer")),
             GameMode.STACKELBERG: (tuple("ABCMNF"), ("farmer", "retailer")),
             GameMode.CENTRALIZED: (tuple("ABC"), ("joint",))}
# One balance per power of H and role, but none for H^2 of a linear value.
_LABELS = {mode: tuple(f"{role} H^{k}" for role in roles for k in (2, 1, 0)
                       if (mode, role, k) != (GameMode.DECENTRALIZED, "retailer", 2))
           for mode, (_, roles) in _UNKNOWNS.items()}


def _symbols(params: ModelParams) -> tuple:
    """(lambda_f, lambda_r, mu_f, mu_r, delta, rho, eta, k1, k2, p_f, p_r, p_c),
    the short names the coefficient formulas are written in."""
    c = derive_constants(params)
    return (params.lambda_f, params.lambda_r, params.mu_f, params.mu_r,
            params.delta, params.rho, c.eta, c.k1, c.k2,
            params.p_f, params.p_r, params.p_c)


# Each role's value coefficients (A, B, C) in a mode's coefficient vector.
_VALUES = {GameMode.DECENTRALIZED: lambda v: ((v[0], v[1], v[2]), (0.0, v[3], v[4])),
           GameMode.STACKELBERG: lambda v: ((v[0], v[1], v[2]), (v[3], v[4], v[5])),
           GameMode.CENTRALIZED: lambda v: ((v[0], v[1], v[2]),)}


def _coefficients(solution: GameSolution) -> tuple:
    """A solution's coefficient vector, the inverse of _VALUES."""
    values = solution.values.values()
    if solution.mode is GameMode.DECENTRALIZED:
        f, r = values
        return f.A, f.B, f.C, r.B, r.C
    return tuple(x for V in values for x in (V.A, V.B, V.C))


def _policy_map(params: ModelParams, mode: GameMode, convention: Optional[str]):
    """The first-order rules of a mode: one map from value coefficients to
    policies.

    Returns rule(V_f, V_r), where V_f and V_r are the (A, B, C) of the values
    the farmer and the retailer act on (the joint value for both in gc), so
    V'(H) = 2*A*H + B. rule returns (E_f, E_r, subsidy): each effort as
    (g1, g0), and the subsidy rule x_f = n/d as ((n1, n0), (d1, d0)) in gs,
    None elsewhere. Every effort maximizes its payoff rate plus V'*drift; the
    standard follower keeps the (1 - x_f) cost-share factor, which at the
    leader's share gives E_f = mu_f*d(H)/(2*lambda_f), and the paper-printed
    follower drops it.
    """
    lf, lr, mf, mr, _, _, eta, *_ = _symbols(params)
    leader = mode is GameMode.STACKELBERG
    shared = leader and convention != CONVENTION_PRINTED

    def rule(V_f, V_r):
        (af, bf, _), (ar, br, _) = V_f, V_r
        if shared:
            e_f = ((eta + 2.0 * mf * (af + 2.0 * ar)) / (2.0 * lf),
                   mf * (bf + 2.0 * br) / (2.0 * lf))
        else:
            e_f = ((eta + 2.0 * af * mf) / lf, mf * bf / lf)
        e_r = (2.0 * mr * ar / lr, mr * br / lr)
        if not leader:
            return e_f, e_r, None
        return e_f, e_r, ((4.0 * ar - 2.0 * af - eta / mf, 2.0 * br - bf),
                          (4.0 * ar + 2.0 * af + eta / mf, 2.0 * br + bf))
    return rule


def _drift_slope(params: ModelParams, mode: GameMode, convention: str):
    """Closed-loop drift slope alpha of a branch, from its leading
    coefficients (A; A and M in gs), the only ones the effort slopes hold."""
    rule, split = _policy_map(params, mode, convention), _VALUES[mode]

    def slope(leading):
        values = split(_leading_vector(mode, leading))
        (g1_f, _), (g1_r, _), _ = rule(values[0], values[-1])
        return params.mu_f * g1_f + params.mu_r * g1_r - params.delta
    return slope


def _payoff_polynomials(params: ModelParams, mode: GameMode):
    """Closed-loop drift and role payoffs along the standard policy map.

    Returns terms(v) -> (drift, values, rates): drift as (alpha, beta), and
    per role its value and its payoff rate, both as (H^2, H^1, H^0)
    coefficients. The rates are those of profits.payoff_rates: farmer margin
    + sink - cost + transfer, retailer margin - cost - transfer, joint their
    sum. The farmer's cost net of the transfer, (1 - x_f)*cost_f, is
    E_f*(eta*H + mu_f*V_f')/2 by its first-order condition (x_f = 0 outside
    gs), and since E_f = mu_f*d(H)/(2*lambda_f), the gs transfer x_f*cost_f
    is the polynomial mu_f^2*n(H)*d(H)/(8*lambda_f).
    """
    lf, lr, mf, mr, delta, _, eta, k1, k2, pf, pr, pc = _symbols(params)
    unit_f, unit_r = (pf + pc) * k1, pr * k2
    share = mf * mf / (8.0 * lf)
    rule, split = _policy_map(params, mode, CONVENTION_STANDARD), _VALUES[mode]
    joint = mode is GameMode.CENTRALIZED

    def terms(v):
        values = split(v)
        (f1, f0), (r1, r0), subsidy = rule(values[0], values[-1])
        # eta*H + mu_f*V_f', the farmer's marginal gain from effort
        m1, m0 = eta + 2.0 * mf * values[0][0], mf * values[0][1]
        t2 = t1 = t0 = 0.0
        if subsidy is not None:
            (n1, n0), (d1, d0) = subsidy
            t2, t1, t0 = share * n1 * d1, share * (n1 * d0 + n0 * d1), share * n0 * d0
        rate_f = (eta * f1 - 0.5 * f1 * m1,
                  unit_f + eta * f0 - 0.5 * (f1 * m0 + f0 * m1),
                  -0.5 * f0 * m0)
        rate_r = (-0.5 * lr * r1 * r1 - t2,
                  unit_r - lr * r1 * r0 - t1,
                  -0.5 * lr * r0 * r0 - t0)
        rates = ((rate_f[0] + rate_r[0], rate_f[1] + rate_r[1],
                  rate_f[2] + rate_r[2]),) if joint else (rate_f, rate_r)
        return (mf * f1 + mr * r1 - delta, mf * f0 + mr * r0), values, rates
    return terms


@dataclass(frozen=True)
class CoefficientSystem:
    """Power-of-H balances of one mode's stationarity equations.

    balances maps the coefficient vector (ordered as names) to the H^2, H^1
    and H^0 coefficients of rho*V - rate - V'*drift, role by role, without
    the identically zero H^2 row of a linear value; balance i carries
    rho*v[i].
    """

    mode: GameMode
    convention: str
    names: tuple
    labels: tuple
    rho: float
    balances: Callable

    def residuals(self, coeffs) -> np.ndarray:
        return np.array(self.balances(np.asarray(coeffs, dtype=float).tolist()))

    def scales(self, coeffs) -> np.ndarray:
        """Per-equation normalization 1 + |rho*V coefficient|."""
        return 1.0 + np.abs(self.rho * np.asarray(coeffs, dtype=float))


def _system(params: ModelParams, mode: GameMode,
            convention: str = CONVENTION_STANDARD) -> CoefficientSystem:
    terms = _payoff_polynomials(params, mode)
    rho = params.rho
    linear = mode is GameMode.DECENTRALIZED
    offsets = None
    if mode is GameMode.STACKELBERG and convention == CONVENTION_PRINTED:
        lf, _, mf, _, _, _, eta, *_ = _symbols(params)
        base = (1.0 - mf) * eta ** 2 / lf
        offsets = (base / 4.0, base / 8.0)

    def balances(v):
        (alpha, beta), values, rates = terms(v)
        out = []
        for (A, B, C), (r2, r1, r0) in zip(values, rates):
            out += (rho * A - r2 - 2.0 * A * alpha,
                    rho * B - r1 - (2.0 * A * beta + B * alpha),
                    rho * C - r0 - B * beta)
        if offsets is not None:
            out[0] += offsets[0]
            out[3] += offsets[1]
        if linear:
            del out[3]
        return out

    return CoefficientSystem(mode=mode, convention=convention,
                             names=_UNKNOWNS[mode][0], labels=_LABELS[mode],
                             rho=rho, balances=balances)


def decentralized_system(params: ModelParams) -> CoefficientSystem:
    """Balances for farmer (A, B, C quadratic) and retailer (M, N linear)."""
    return _system(params, GameMode.DECENTRALIZED)


def stackelberg_system(params: ModelParams,
                       convention: str = CONVENTION_STANDARD) -> CoefficientSystem:
    """Balances for farmer (A, B, C) and leader (M, N, F), both quadratic."""
    return _system(params, GameMode.STACKELBERG, convention)


def centralized_system(params: ModelParams) -> CoefficientSystem:
    """Balances for the joint quadratic value (A, B, C)."""
    return _system(params, GameMode.CENTRALIZED)


def _assemble(params: ModelParams, mode: GameMode, convention: Optional[str],
              coeffs, diag: SolutionDiagnostics) -> GameSolution:
    """The solution at a coefficient vector: values by role, policies from
    the policy map, and the closed-loop drift alpha*H + beta."""
    values = _VALUES[mode](coeffs)
    e_f, e_r, subsidy = _policy_map(params, mode, convention)(values[0], values[-1])
    pol_f = FeedbackPolicy(*e_f)
    pol_r = FeedbackPolicy(*e_r, *(subsidy[0] + subsidy[1] if subsidy else ()))
    alpha = params.mu_f * pol_f.g1 + params.mu_r * pol_r.g1 - params.delta
    beta = params.mu_f * pol_f.g0 + params.mu_r * pol_r.g0
    return GameSolution(
        mode=mode, params=params,
        values={role: QuadraticValue(*V, role=role)
                for role, V in zip(_UNKNOWNS[mode][1], values)},
        policies={"farmer": pol_f, "retailer": pol_r},
        alpha=alpha, beta=beta, H_d=-beta / alpha, diagnostics=diag)


# ---------------------------------------------------------------------------
# branches: leading roots, completion, polish
# ---------------------------------------------------------------------------

# Unknown i by the power of H of balance i, which carries rho*v[i]: the H^2
# rows hold only the leading unknowns (A; A and M in gs), the H^1 rows are
# affine in the H^1 unknowns, and H^0 unknown i enters row i only.
_BY_POWER = {mode: {k: tuple(i for i, lb in enumerate(labels) if lb.endswith(f"^{k}"))
                    for k in (2, 1, 0)} for mode, labels in _LABELS.items()}

# the values of a quadratic at 0, 1 and -1 -> its coefficients (c0, c1, c2)
_NODES = (0.0, 1.0, -1.0)
_FIT = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, -0.5], [-1.0, 0.5, 0.5]])


def _leading_vector(mode: GameMode, leading) -> list:
    """The coefficient vector of a branch's leading coefficients, 0 elsewhere."""
    v = [0.0] * len(_UNKNOWNS[mode][0])
    for i, x in zip(_BY_POWER[mode][2], leading):
        v[i] = float(x)
    return v


def select_stable_root(candidates: Sequence, drift_slope: Callable):
    """Pick the unique candidate whose closed-loop drift slope is negative.

    If several candidates are stable the one with the smallest |leading
    coefficient| is returned (callers record the ambiguity). Raises
    UnstableModelError listing every candidate slope when none is stable.
    """
    if not candidates:
        raise SolverError("select_stable_root: no candidates")
    slopes = [float(drift_slope(c)) for c in candidates]
    stable = [(c, a) for c, a in zip(candidates, slopes) if a < 0.0]
    if not stable:
        raise UnstableModelError(slopes)
    chosen, _ = min(stable, key=lambda pair: abs(pair[0][0]))
    return chosen


def _stable_quadratic_roots(qa: float, qb: float, qc: float, label: str,
                            scale: float = 1.0):
    """Real roots of qa*x^2 + qb*x + qc = 0 via the cancellation-safe form.

    scale converts the raw discriminant to the published normalization for
    error reporting and diagnostics.
    """
    if qa == 0.0:
        if qb == 0.0:
            return ([0.0], 0.0) if qc == 0.0 else ([], 0.0)
        return [-qc / qb], 0.0
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise ComplexRootError(label, disc * scale)
    sq = math.sqrt(disc)
    q = -0.5 * (qb + sq) if qb >= 0.0 else -0.5 * (qb - sq)
    # q = 0 only when qb = qc = 0: the double root 0
    return sorted({q / qa, qc / q} if q != 0.0 else {q / qa}), disc


def _leading_branches(params: ModelParams, system: CoefficientSystem):
    """Every real root of the H^2 rows in the leading unknowns (as tuples),
    and the discriminants.

    The rows are sampled at 0 and +-1 of each leading unknown and fitted
    exactly. In gd and gc the farmer or joint row is a quadratic in A, with
    its discriminant on the published scale (Delta^GD, Delta^GC). In gs the
    farmer row is a(A) + b(A)*M and the leader row g0(A) + g1(A)*M + g2*M^2;
    M = -a/b leaves the quartic g0*b^2 - g1*a*b + g2*a^2 in A, and where
    b(A) ~ 0, M comes from the leader row instead.
    """
    mode, lead = system.mode, _BY_POWER[system.mode][2]

    def rows(*leading):
        out = system.balances(_leading_vector(mode, leading))
        return [out[i] for i in lead]

    if len(lead) == 1:
        lf, lr = params.lambda_f, params.lambda_r
        label, scale = (("Delta^GD", 4.0 * lf ** 2) if mode is GameMode.DECENTRALIZED
                        else ("Delta^GC", (lf * lr) ** 2))
        c0, c1, c2 = (_FIT @ [rows(x)[0] for x in _NODES]).tolist()
        roots, disc = _stable_quadratic_roots(c2, c1, c0, label, scale)
        return [(A,) for A in roots], {label: disc * scale}

    samples = np.array([[rows(A, M) for M in _NODES] for A in _NODES])
    # [i, j]: the coefficient of A^i * M^j in the farmer and the leader row
    farmer, leader = (_FIT @ samples[:, :, k] @ _FIT.T for k in (0, 1))
    a, b = farmer[:, 0], farmer[:2, 1]
    g0, g1, g2 = leader[:, 0], leader[:2, 1], float(leader[0, 2])
    conv = np.convolve
    quartic = np.trim_zeros(conv(g0, conv(b, b)) - conv(g1, conv(a, b))
                            + g2 * conv(a, a), "b")
    roots = npoly.polyroots(quartic) if quartic.size > 1 else np.zeros(1)
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real
    branches = []
    for A in np.unique(real).tolist():
        bA = float(npoly.polyval(A, b))
        if abs(bA) > 1e-12 * (1.0 + abs(A)):
            branches.append((A, -float(npoly.polyval(A, a)) / bA))
            continue
        try:
            seeds, _ = _stable_quadratic_roots(g2, float(npoly.polyval(A, g1)),
                                               float(npoly.polyval(A, g0)),
                                               "Delta^GS(M|A)")
        except ComplexRootError:
            continue
        branches += [(A, M) for M in seeds]
    if not branches:
        raise SolverError("no real (A, M) branch of the coupled quadratic balances")
    return branches, {}


def _complete(system: CoefficientSystem, leading) -> list:
    """The full coefficient vector of a branch: the H^1 unknowns by one linear
    solve of the H^1 rows, then each H^0 unknown from its own row."""
    by_power = _BY_POWER[system.mode]
    v, rows = _leading_vector(system.mode, leading), by_power[1]
    base = system.balances(v)
    columns = [[out[i] - base[i] for i in rows] for out in (
        system.balances([float(i == j) if i in rows else x for i, x in enumerate(v)])
        for j in rows)]
    try:
        solved = np.linalg.solve(np.array(columns).T, [-base[i] for i in rows])
    except np.linalg.LinAlgError:
        raise SolverError("singular H^1 balances on the stable branch") from None
    for i, x in zip(rows, solved.tolist()):
        v[i] = x
    out = system.balances(v)
    for i in by_power[0]:
        v[i] -= out[i] / system.rho
    return v


def _newton(system: CoefficientSystem, guess, tolerance: float):
    """Chord-Newton polish of the balances, gated on their residuals.

    Every balance is quadratic in the unknowns, so central differences give
    the Jacobian exactly up to rounding; it is taken once, at the guess. The
    iterate with the smallest normalized residual is kept, and rejected with
    the worst balance's label when any residual exceeds tolerance times its
    scale.
    """
    v = np.asarray(guess, dtype=float)
    res = system.residuals(v)
    err = np.max(np.abs(res) / system.scales(v))
    jac = np.empty((v.size, v.size))
    for j, h in enumerate(1.0 + np.abs(v)):
        shift = np.zeros(v.size)
        shift[j] = h
        up, down = system.residuals(v + shift), system.residuals(v - shift)
        jac[:, j] = (up - down) / (2.0 * h)
    try:
        inverse = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        inverse = np.zeros_like(jac)   # no step: the guess is kept
    for _ in range(8):   # one or two steps reach the rounding floor
        trial = v - inverse @ res
        trial_res = system.residuals(trial)
        trial_err = np.max(np.abs(trial_res) / system.scales(trial))
        if not trial_err < err:
            break
        v, res, err = trial, trial_res, trial_err
    if not err <= tolerance:
        worst = int(np.argmax(np.abs(res) / system.scales(v)))
        raise SolverError(
            f"collected balance {system.labels[worst]} residual {res[worst]:.3e} "
            f"exceeds tolerance {tolerance:.1e}")
    return v.tolist(), float(err)


# ---------------------------------------------------------------------------
# mode solvers
# ---------------------------------------------------------------------------

def solve(mode, params: ModelParams, cfg: SolverConfig = SolverConfig()) -> GameSolution:
    """Solve one mode; ``mode`` may be a GameMode or its short string."""
    if not isinstance(mode, GameMode):
        mode = GameMode.from_string(str(mode))
    validate_params(params)
    if cfg.backend == BACKEND_CLOSED_FORM:
        from . import closed_form
        return closed_form.solve_printed(mode, params, cfg)
    convention = cfg.follower_convention
    system = _system(params, mode, convention)
    branches, discs = _leading_branches(params, system)
    alpha_of = _drift_slope(params, mode, convention)
    chosen = select_stable_root(branches, alpha_of)
    coeffs, worst = _newton(system, _complete(system, chosen), cfg.tolerance)
    diag = _diagnostics(cfg, branches, alpha_of, discs, worst)
    sol = _assemble(params, mode, convention, coeffs, diag)
    if mode is GameMode.STACKELBERG:
        # the published discriminants at this solution, informational only
        from . import closed_form
        printed = closed_form.printed_stackelberg(
            params, dict(zip(system.names, coeffs)))
        for key in ("Delta^GS1", "Delta^GS2"):
            diag.discriminants[key] = float(printed[key])
        _flag_subsidy_range(sol, diag)
    return _finish(sol, params, cfg)


def solve_decentralized(params: ModelParams,
                        cfg: SolverConfig = SolverConfig()) -> GameSolution:
    """Feedback equilibrium with simultaneous play and no cost sharing."""
    return solve(GameMode.DECENTRALIZED, params, cfg)


def solve_stackelberg(params: ModelParams,
                      cfg: SolverConfig = SolverConfig()) -> GameSolution:
    """Leader-follower equilibrium with the retailer's cost-share subsidy."""
    return solve(GameMode.STACKELBERG, params, cfg)


def solve_centralized(params: ModelParams,
                      cfg: SolverConfig = SolverConfig()) -> GameSolution:
    """Joint profit maximization of the whole chain."""
    return solve(GameMode.CENTRALIZED, params, cfg)


def _flag_subsidy_range(sol: GameSolution, diag: SolutionDiagnostics,
                        n: int = 81):
    """Flag, without failing, states where x_f leaves [0, 1)."""
    pol = sol.policies["retailer"]
    hi = 2.0 * sol.H_d if sol.H_d > 0 else 1.0
    grid = np.linspace(0.0, hi, n)
    den = pol.d1 * grid + pol.d0
    if np.all(np.abs(den) < 1e-12):
        diag.flags.append("subsidy rule is 0/0 at every state (undefined subsidy)")
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (pol.n1 * grid + pol.n0) / den
    bad = ~((x >= 0.0) & (x < 1.0))
    if np.any(bad):
        lo_bad, hi_bad = grid[bad][0], grid[bad][-1]
        diag.flags.append(
            f"x_f outside [0, 1) on part of [0, {hi:.4g}] "
            f"(first at H = {lo_bad:.4g}, last at H = {hi_bad:.4g})")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def hjb_residual(solution: GameSolution, params: ModelParams, H):
    """Per-role signed residuals rho*V(H) - RHS(H) of the stationarity equations.

    The right-hand side is rebuilt from the instantaneous payoffs
    (profits.payoff_rates) and the solution's own policies (the maximized
    form), so residual-backend solutions are near zero by construction while
    corrupted or printed-form coefficients show up immediately. Solutions
    solved under the "paper-printed" convention are measured against the
    printed balances evaluated at H, which is the system they solve. Accepts
    scalar or array H.
    """
    terms = _stationarity(solution, params, np.asarray(H, dtype=float))
    return {role: res for role, (_, res) in terms.items()}


def _stationarity(solution: GameSolution, params: ModelParams, H) -> dict:
    """Per role, (rho*V(H), rho*V(H) - RHS(H))."""
    mode = solution.mode
    rho_v = {role: params.rho * V.value(H) for role, V in solution.values.items()}
    if mode is GameMode.STACKELBERG and \
            solution.diagnostics.convention == CONVENTION_PRINTED:
        rows = _system(params, mode, CONVENTION_PRINTED).balances(
            [float(x) for x in _coefficients(solution)])
        return {role: (rho_v[role], (rows[k] * H + rows[k + 1]) * H + rows[k + 2])
                for k, role in ((0, "farmer"), (3, "retailer"))}
    pol_r = solution.policies["retailer"]
    e_f = solution.policies["farmer"].effort(H)
    e_r = pol_r.effort(H)
    x = pol_r.subsidy(H) if mode is GameMode.STACKELBERG else None
    rates = profits.payoff_rates(mode, H, e_f, e_r, x, params)
    rate = ({"joint": rates.total} if mode is GameMode.CENTRALIZED
            else {"farmer": rates.net_f, "retailer": rates.net_r})
    drift = reduction_drift(H, e_f, e_r, params)
    return {role: (rho_v[role], rho_v[role] - rate[role] - V.marginal(H) * drift)
            for role, V in solution.values.items()}


def residual_scan(solution: GameSolution, params: ModelParams,
                  n: int = 100) -> float:
    """Max normalized |residual| over n states in [0, 2*H_d]."""
    hi = 2.0 * solution.H_d if solution.H_d > 0 else 1.0
    terms = _stationarity(solution, params, np.linspace(0.0, hi, n))
    return max(float((np.abs(res) / (1.0 + np.abs(rho_v))).max())
               for rho_v, res in terms.values())


# ---------------------------------------------------------------------------
# shared assembly helpers
# ---------------------------------------------------------------------------

def _diagnostics(cfg: SolverConfig, candidates, alpha_of, discs,
                 worst_balance: float) -> SolutionDiagnostics:
    cand_info = [{"coefficients": [float(x) for x in c],
                  "alpha": float(alpha_of(c))} for c in candidates]
    stable = [c for c in cand_info if c["alpha"] < 0.0]
    diag = SolutionDiagnostics(
        backend=BACKEND_RESIDUAL,
        convention=cfg.follower_convention,
        root_branch="negative square-root branch (stable, alpha < 0)",
        discriminants={k: float(v) for k, v in discs.items()},
        candidates=cand_info,
        ambiguous_stable_roots=len(stable) > 1,
    )
    if len(stable) > 1:
        diag.notes.append(
            f"{len(stable)} stable branches; picked smallest |leading coefficient|")
    diag.notes.append(f"max collected-balance residual (normalized) {worst_balance:.3e}")
    return diag


def _finish(sol: GameSolution, params: ModelParams, cfg: SolverConfig) -> GameSolution:
    if not sol.alpha < 0.0:
        raise UnstableModelError([sol.alpha])
    scan = residual_scan(sol, params)
    sol.diagnostics.max_hjb_residual = scan
    if scan > cfg.hjb_tolerance:
        raise SolverError(
            f"stationarity-equation residual scan {scan:.3e} exceeds "
            f"configured bound {cfg.hjb_tolerance:.1e}")
    if sol.beta < 0.0:
        sol.diagnostics.flags.append(
            f"beta = {sol.beta:.6g} < 0 despite nonnegative payoff prices"
            if min(params.p_f, params.p_r, params.p_c, params.p) >= 0.0
            else f"beta = {sol.beta:.6g} < 0")
    _flag_negative_efforts(sol)
    return sol


def _flag_negative_efforts(sol: GameSolution, n: int = 81):
    hi = 2.0 * sol.H_d if sol.H_d > 0 else 1.0
    grid = np.linspace(0.0, hi, n)
    for role, pol in sol.policies.items():
        e = pol.effort(grid)
        if np.any(e < 0.0):
            sol.diagnostics.flags.append(
                f"{role} effort negative on part of [0, {hi:.4g}] (unclamped)")

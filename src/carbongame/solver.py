"""Equilibrium coefficient solver for the three cooperation modes.

Each mode is written down once, as a policy map from value-function
coefficients to affine efforts E = g1*H + g0 (plus, in the leader-follower
mode, the leader's subsidy rule x_f = (n1*H + n0)/(d1*H + d0)). The balances
are derived from it: the H^2, H^1 and H^0 coefficients of
rho*V - rate - V'*drift per role, by polynomial arithmetic on the efforts
and the role payoffs (the undetermined-coefficients form of Dockner,
Jorgensen, Long & Sorger, *Differential Games in Economics and Management
Science*, 2000). Everything else is read off the balances, evaluated in
other arithmetics: on a jet in the leading coefficients the H^2 rows give
their polynomial coefficients, hence every branch (a quadratic in A, or in
gs a quartic after eliminating M), and the drift slope picks the stable
one. One chord-Newton on all balances from that leading root, its Jacobian
one complex step, completes the branch and polishes it to the rounding
floor before the residual gate.

The balances are plain arithmetic, so they evaluate unchanged on parameter
fields stacked as arrays. ``solve_many`` solves a batch of cells of one mode
in one pass: the parameters are stacked once along the last axis, checked in
one pass, and the jets, roots, Newton steps and gates act on the stack. A
cell that fails keeps its typed error and leaves the stack, with its
parameters, before the next stage; only the cells that pass every gate are
assembled into solutions. Each stage treats every cell on its own, the
scan's state grid included, so a cell's result does not depend on the batch
it was solved in, and ``solve`` is its batch of one. A sweep reads the array
stage's columns directly, in chunks, and builds no solution objects.

Two backends are available. "residual" solves the derived balances; it is
the authoritative path. "paper-closed-form" evaluates the published
closed-form coefficient expressions verbatim for discrepancy reporting (see
closed_form.py): it solves a batch's residual anchors as one residual batch,
then evaluates the printed forms one cell at a time; only it reports the
printed gs discriminants Delta^GS1 and Delta^GS2.

Conventions for the Stackelberg follower:

* "standard-cost-share" (default): the follower's first-order condition keeps
  the (1 - x_f) cost-share factor, E_f = (eta*H + mu_f*V_f')/((1 - x_f)*
  lambda_f), consistent with the subsidy-ratio formula
  x_f = (2*V_r' - V_f' - eta*H/mu_f)/(2*V_r' + V_f' + eta*H/mu_f).
* "paper-printed": the published follower rule without the cost-share
  factor, and the published substituted equations, which are the standard
  balances plus two H^2 offsets: (1 - mu_f)*eta^2/(4*lambda_f) on the farmer
  row and (1 - mu_f)*eta^2/(8*lambda_f) on the leader row (an extra mu_f on
  the quadratic revenue terms).

The residual scan prices both conventions with profits.payoff_rates along
the standard policies, adding offset*H^2 under "paper-printed", so it never
re-evaluates the balances the solve used.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import profits
from .model import (
    FeedbackPolicy,
    GameMode,
    GameSolution,
    ModelParams,
    ParameterError,
    QuadraticValue,
    SolutionDiagnostics,
    VALUE_LAYOUT,
    _subsidy_ratio,
    _valid_columns,
    derive_constants,
    reduction_drift,
    validate_params,
)

__all__ = [
    "SolverConfig", "SolverError", "ComplexRootError", "UnstableModelError",
    "NoRealBranchError", "NoCandidateError", "BalanceGateError", "ScanGateError",
    "solve", "solve_many", "residual_scan",
]

BACKEND_RESIDUAL = "residual"
BACKEND_CLOSED_FORM = "paper-closed-form"
CONVENTION_STANDARD = "standard-cost-share"
CONVENTION_PRINTED = "paper-printed"

# states of the stationarity-equation residual scan, evenly over [0, 2*H_d]
SCAN_STATES = 100
# states on which a solution's warning flags are checked, over [0, 2*H_d]
FLAG_STATES = 81

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

    def __reduce__(self):
        return type(self), (self.label, self.discriminant)


class NoRealBranchError(SolverError):
    """The gs H^2 balances have no real (A, M) root."""


class NoCandidateError(SolverError):
    """A cell has no candidate branch to pick the stable one from."""


class BalanceGateError(SolverError):
    """A collected balance's residual exceeds SolverConfig.tolerance."""


class ScanGateError(SolverError):
    """The stationarity-equation residual scan exceeds hjb_tolerance."""


class UnstableModelError(SolverError):
    """No candidate branch yields a stable closed loop (alpha < 0)."""

    def __init__(self, alphas: Sequence[float]):
        self.alphas = list(alphas)
        super().__init__(
            "unstable model: no branch with alpha < 0, candidate drift slopes "
            + ", ".join(f"{a:.6g}" for a in self.alphas))

    def __reduce__(self):
        return type(self), (self.alphas,)


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

# Read off VALUE_LAYOUT: each mode's unknowns in vector order, and one
# balance per power of H and role, but none for a coefficient fixed at 0 (the
# H^2 row of a linear value), so balance i carries rho*v[i].
_UNKNOWNS = {mode: tuple(name for names in roles.values() for name in names
                         if name is not None)
             for mode, roles in VALUE_LAYOUT.items()}
_LABELS = {mode: tuple(f"{role} H^{k}" for role, names in roles.items()
                       for k, name in zip((2, 1, 0), names) if name is not None)
           for mode, roles in VALUE_LAYOUT.items()}


def _symbols(params: ModelParams) -> tuple:
    """(lambda_f, lambda_r, mu_f, mu_r, delta, rho, eta, k1, k2, p_f, p_r, p_c),
    the short names the coefficient formulas are written in."""
    c = derive_constants(params)
    return (params.lambda_f, params.lambda_r, params.mu_f, params.mu_r,
            params.delta, params.rho, c.eta, c.k1, c.k2,
            params.p_f, params.p_r, params.p_c)


def _closed_loop(params: ModelParams, mode: GameMode, convention: Optional[str]):
    """A mode's first-order rules, closed: loop(coeffs) maps coefficient
    vectors (k, ...) to (values, (E_f, E_r, subsidy), alpha, beta).

    values holds each role's (A, B, C), V'(H) = 2*A*H + B; the farmer and the
    retailer act on their own (on the joint value in gc). Each effort is
    (g1, g0), and the subsidy rule x_f = n/d is ((n1, n0), (d1, d0)) in gs,
    None elsewhere. Every effort maximizes its payoff rate plus V'*drift; the
    standard follower keeps the (1 - x_f) cost-share factor, which at the
    leader's share gives E_f = mu_f*d(H)/(2*lambda_f), and the paper-printed
    follower drops it. reduction_drift is linear in (H, E_f, E_r), so the
    drift's slope alpha and intercept beta are its values at (1, g1_f, g1_r)
    and (0, g0_f, g0_r).
    """
    lf, lr, mf, mr, _, _, eta, *_ = _symbols(params)
    leader = mode is GameMode.STACKELBERG
    shared = leader and convention != CONVENTION_PRINTED
    layout = VALUE_LAYOUT[mode].values()
    # formed once per map, where the rules below use them
    two_mr = 2.0 * mr
    two_mf, two_lf = (2.0 * mf, 2.0 * lf) if shared else (None, None)
    eta_mf = eta / mf if leader else None

    def loop(coeffs):
        v = iter(coeffs)
        values = tuple(tuple(0.0 if name is None else next(v) for name in names)
                       for names in layout)
        (af, bf, _), (ar, br, _) = values[0], values[-1]
        if shared:
            e_f = ((eta + two_mf * (af + 2.0 * ar)) / two_lf,
                   mf * (bf + 2.0 * br) / two_lf)
        else:
            e_f = ((eta + 2.0 * af * mf) / lf, mf * bf / lf)
        e_r = (two_mr * ar / lr, mr * br / lr)
        subsidy = (((4.0 * ar - 2.0 * af - eta_mf, 2.0 * br - bf),
                    (4.0 * ar + 2.0 * af + eta_mf, 2.0 * br + bf)) if leader else None)
        return (values, (e_f, e_r, subsidy),
                reduction_drift(1.0, e_f[0], e_r[0], params),
                reduction_drift(0.0, e_f[1], e_r[1], params))
    return loop


def _printed_offsets(params: ModelParams) -> tuple:
    """The paper-printed gs balances less the standard ones: the farmer's and
    the leader's H^2 offset, as the module docstring gives them."""
    lf, _, mf, _, _, _, eta, *_ = _symbols(params)
    base = (1.0 - mf) * (eta * eta) / lf
    return base / 4.0, base / 8.0


def _payoff_polynomials(params: ModelParams, mode: GameMode):
    """Closed-loop drift and role payoffs along the standard policy map
    _closed_loop(params, mode, CONVENTION_STANDARD).

    Returns terms(v) -> (drift, values, rates): drift as (alpha, beta), and
    per role its value and its payoff rate, both as (H^2, H^1, H^0)
    coefficients. The rates are those of profits.payoff_rates: farmer margin
    + sink - cost + transfer, retailer margin - cost - transfer, joint their
    sum. The farmer's cost net of the transfer, (1 - x_f)*cost_f, is
    E_f*(eta*H + mu_f*V_f')/2 by its first-order condition (x_f = 0 outside
    gs), and since E_f = mu_f*d(H)/(2*lambda_f), the gs transfer x_f*cost_f
    is the polynomial (mu_f*n(H))*(mu_f*d(H))/(8*lambda_f). Scaling each
    factor by mu_f keeps the product from underflowing where mu_f^2 would:
    n and d carry eta/mu_f.
    """
    lf, lr, mf, _, _, _, eta, k1, k2, pf, pr, pc = _symbols(params)
    unit_f, unit_r = (pf + pc) * k1, pr * k2
    transfer_den = 8.0 * lf
    loop = _closed_loop(params, mode, CONVENTION_STANDARD)
    joint = mode is GameMode.CENTRALIZED

    def terms(v):
        values, ((f1, f0), (r1, r0), subsidy), alpha, beta = loop(v)
        # eta*H + mu_f*V_f', the farmer's marginal gain from effort
        m1, m0 = eta + 2.0 * mf * values[0][0], mf * values[0][1]
        t2 = t1 = t0 = 0.0
        if subsidy is not None:
            (n1, n0), (d1, d0) = subsidy
            n1, n0, d1, d0 = mf * n1, mf * n0, mf * d1, mf * d0
            t2 = n1 * d1 / transfer_den
            t1 = (n1 * d0 + n0 * d1) / transfer_den
            t0 = n0 * d0 / transfer_den
        rate_f = (eta * f1 - 0.5 * f1 * m1,
                  unit_f + eta * f0 - 0.5 * (f1 * m0 + f0 * m1),
                  -0.5 * f0 * m0)
        rate_r = (-0.5 * lr * r1 * r1 - t2,
                  unit_r - lr * r1 * r0 - t1,
                  -0.5 * lr * r0 * r0 - t0)
        rates = ((rate_f[0] + rate_r[0], rate_f[1] + rate_r[1],
                  rate_f[2] + rate_r[2]),) if joint else (rate_f, rate_r)
        return (alpha, beta), values, rates
    return terms


@dataclass(frozen=True)
class CoefficientSystem:
    """Power-of-H balances of one mode's stationarity equations.

    balances maps the coefficient vector (ordered as names) to the H^2, H^1
    and H^0 coefficients of rho*V - rate - V'*drift, role by role, without
    the rows of the coefficients VALUE_LAYOUT fixes at 0 (the identically
    zero H^2 row of a linear value); balance i carries rho*v[i]. The
    entries of the vector may be arrays, which broadcast against the
    parameters.
    """

    mode: GameMode
    names: tuple
    labels: tuple
    rho: float
    balances: Callable

    def residuals(self, coeffs) -> np.ndarray:
        """The balances at coefficient vectors (k, ...), rows first."""
        return np.array(self.balances(list(np.asarray(coeffs, dtype=float))))

    def scales(self, coeffs) -> np.ndarray:
        """Per-equation normalization 1 + |rho*V coefficient|."""
        return 1.0 + np.abs(self.rho * np.asarray(coeffs, dtype=float))


def _system(params: ModelParams, mode: GameMode,
            convention: str = CONVENTION_STANDARD) -> CoefficientSystem:
    """The balances of a mode under convention."""
    terms = _payoff_polynomials(params, mode)
    rho = params.rho
    layout = VALUE_LAYOUT[mode].values()
    offsets = (_printed_offsets(params) if mode is GameMode.STACKELBERG
               and convention == CONVENTION_PRINTED else None)

    def balances(v):
        (alpha, beta), values, rates = terms(v)
        out = []
        for (A, B, C), (r2, r1, r0), names in zip(values, rates, layout):
            rows = (rho * A - r2 - 2.0 * A * alpha,
                    rho * B - r1 - (2.0 * A * beta + B * alpha),
                    rho * C - r0 - B * beta)
            out += (row for row, name in zip(rows, names) if name is not None)
        if offsets is not None:
            out[0] = out[0] + offsets[0]
            out[3] = out[3] + offsets[1]
        return out

    return CoefficientSystem(mode=mode, names=_UNKNOWNS[mode],
                             labels=_LABELS[mode], rho=rho, balances=balances)


_FIELDS = ModelParams.field_names()
_VALUES = attrgetter(*_FIELDS)


def _stack_fields(cells: Sequence[ModelParams]) -> tuple:
    """The cells' fields as floats, (fields, n) in field order, and which
    cells hold a value other than a float, for validate_params to judge: an
    int within float64's range is held as its float, any other value as nan."""
    rows = [_VALUES(params) for params in cells]
    odd = np.zeros(len(rows), dtype=bool)
    if set(map(type, chain.from_iterable(rows))) != {float}:
        odd[:] = [set(map(type, row)) != {float} for row in rows]
        rows = [[float(v) if type(v) in (int, float) and abs(v) <= sys.float_info.max
                 else np.nan for v in row] for row in rows]
    return np.array(rows, dtype=float).reshape(len(rows), len(_FIELDS)).T.copy(), odd


def _stack(cells: Sequence[ModelParams]) -> ModelParams:
    """The cells' parameters as one ModelParams of (n,) arrays."""
    return ModelParams(*_stack_fields(cells)[0])


# ---------------------------------------------------------------------------
# branches: leading roots, then one chord-Newton
# ---------------------------------------------------------------------------

# Unknown i by the power of H of balance i, which carries rho*v[i]: the H^2
# rows hold only the leading unknowns (A; A and M in gs), the H^1 rows are
# affine in the H^1 unknowns, and H^0 unknown i enters row i only.
_BY_POWER = {mode: {k: tuple(i for i, lb in enumerate(labels) if lb.endswith(f"^{k}"))
                    for k in (2, 1, 0)} for mode, labels in _LABELS.items()}


class _Jet:
    """A second-order Taylor jet in k unknowns per cell: value (n,), gradient
    (k, n) and Hessian (k, k, n), carried exactly as formed by +, -, * and
    division by a number (Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., 2008, ch. 13). ndarray operands defer to the jet."""

    __array_ufunc__ = None

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.value + other.value, self.grad + other.grad,
                        self.hess + other.hess)
        return _Jet(self.value + other, self.grad, self.hess)

    def __sub__(self, other):
        return self + other * -1.0

    def __rsub__(self, other):
        return self * -1.0 + other

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.value * other, self.grad * other, self.hess * other)
        g, h = self.grad, other.grad
        return _Jet(self.value * other.value, self.value * h + other.value * g,
                    self.value * other.hess + other.value * self.hess
                    + g[:, None] * h[None] + h[:, None] * g[None])

    def __truediv__(self, other):
        return _Jet(self.value / other, self.grad / other, self.hess / other)

    __radd__, __rmul__ = __add__, __mul__


def _leading_vector(mode: GameMode, leading) -> list:
    """The coefficient vector of a branch's leading coefficients, 0 elsewhere."""
    v = [0.0] * len(_UNKNOWNS[mode])
    for i, x in zip(_BY_POWER[mode][2], leading):
        v[i] = x
    return v


def _pick(leading, alphas, mask, errors: list):
    """The stable branch of every cell: among the branches with a negative
    drift slope, the one with the smallest |leading coefficient|, the first
    on ties.

    leading, alphas and mask are (K, n): branch k of cell i at [k, i] where
    mask[k, i]. errors holds per cell its error so far, None where it goes
    on. Returns the picked branch index per cell, and records in each cell
    of errors that has none but no stable branch an UnstableModelError
    listing every slope (a NoCandidateError when the cell has no branch).
    """
    stable = mask & (alphas < 0.0)
    pick = np.argmin(np.where(stable, np.abs(leading), np.inf), axis=0)
    for i in np.flatnonzero(~stable.any(axis=0)).tolist():
        if errors[i] is None:
            slopes = alphas[mask[:, i], i].tolist()
            errors[i] = (UnstableModelError(slopes) if slopes
                         else NoCandidateError("no candidates for the stable branch"))
    return pick


def _quadratic_roots(qa, qb, qc):
    """Real roots of qa*x^2 + qb*x + qc = 0 per cell, by the
    cancellation-safe form.

    Returns (roots, mask, disc): roots (2, n), ascending, where mask; and
    the discriminant qb^2 - 4*qa*qc, 0 where qa = 0. A cell with disc < 0
    has no root; a double root, or qa = 0, gives at most one.
    """
    flat = qa == 0.0
    disc = np.where(flat, 0.0, qb * qb - 4.0 * qa * qc)
    ok = ~flat & ~(disc < 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    q = np.where(qb >= 0.0, -0.5 * (qb + sq), -0.5 * (qb - sq))
    # q = 0 only when qb = qc = 0: the double root 0
    first = q / np.where(ok, qa, 1.0)
    second = qc / np.where(ok & (q != 0.0), q, 1.0)
    two = ok & (q != 0.0) & (first != second)
    # qa = 0: the root of qb*x + qc, or 0 when all three vanish
    linear = flat & (qb != 0.0)
    first = np.where(flat, np.where(linear, -qc / np.where(linear, qb, 1.0), 0.0), first)
    roots = np.stack([np.where(two, np.minimum(first, second), first),
                      np.where(two, np.maximum(first, second), 0.0)])
    return roots, np.stack([ok | linear | (flat & (qc == 0.0)), two]), disc


def _quadratic_branches(params: ModelParams, mode: GameMode, row: _Jet):
    """The real roots in A of the gd farmer or gc joint H^2 row, per cell,
    from the row's jet at A = 0: c0 + c1*A + c2*A^2, each coefficient as
    formed. The sign of c1^2 - 4*c2*c0 picks the error class; the published
    Delta^GD or Delta^GC is only reported, and may be +-inf. Returns (A,
    mask, discs, errors) as _leading_branches does."""
    lf, lr = params.lambda_f, params.lambda_r
    label, scale = (("Delta^GD", 4.0 * (lf * lf)) if mode is GameMode.DECENTRALIZED
                    else ("Delta^GC", (lf * lr) * (lf * lr)))
    c0, c1, c2 = row.value, row.grad[0], row.hess[0, 0] / 2.0
    A, mask, disc = _quadratic_roots(c2, c1, c0)
    # as formed, before _quadratic_roots takes 0 where c2 = 0
    finite = np.isfinite(c1 * c1 - 4.0 * c2 * c0)
    discs = [{label: d} for d in (disc * scale).tolist()]
    errors = [_overflow(f"the H^2 balances or their {label}") if not ok else
              ComplexRootError(label, d[label]) if raw < 0.0 else None
              for d, raw, ok in zip(discs, disc.tolist(), finite.tolist())]
    return (A,), mask, discs, errors


def _polymul(p, q):
    """Products of polynomials held as ascending coefficients on the last
    axis, for every cell at once."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,))
    for i in range(p.shape[-1]):
        out[..., i:i + q.shape[-1]] += p[..., i:i + 1] * q
    return out


def _eliminate(a, b, g0, g1, g2):
    """Every real root (A, M) of the gs H^2 rows, per cell, from their
    polynomial coefficients.

    The farmer row is a(A) + b(A)*M and the leader row g0(A) + g1(A)*M +
    g2*M^2, with a, g0 of shape (n, 3), b, g1 of shape (n, 2) and g2 of
    shape (n,) holding ascending powers of A. M = -a/b leaves the quartic
    g0*b^2 - g1*a*b + g2*a^2 in A; its roots are the eigenvalues of its
    companion matrix, found in one call for all finite cells of each degree
    (a cell whose quartic is constant has none). Where b(A) ~ 0, M comes
    from the leader row instead, which gives up to two branches at that A.
    Returns (A, M, mask, finite): A, M and mask (K, n), branch k of cell i
    at [k, i] when mask[k, i], in ascending A; and per cell whether its
    quartic and its companion matrix are finite.
    """
    quartic = (_polymul(g0, _polymul(b, b)) - _polymul(g1, _polymul(a, b))
               + g2[:, None] * _polymul(a, a))
    finite = np.isfinite(quartic).all(axis=1)
    # each cell's degree once zero leading terms are cut; 0 where the quartic
    # is constant or not finite
    degree = np.where(finite, np.max(np.where(quartic != 0.0, np.arange(5), 0),
                                      axis=1), 0)
    roots = np.full((4, len(g2)), np.nan, dtype=complex)
    for d in range(1, 5):
        cells = np.flatnonzero(degree == d)
        if cells.size:
            ratios = quartic[cells, :d] / quartic[cells, d:d + 1]
            # a finite quartic can still overflow its companion matrix
            ok = np.isfinite(ratios).all(axis=1)
            finite[cells[~ok]] = False
            cells, ratios = cells[ok], ratios[ok]
            companion = np.zeros((cells.size, d, d))
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            companion[:, :, -1] -= ratios
            roots[:d, cells] = np.linalg.eigvals(companion).T
    real = np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))
    # the distinct real roots of each cell, ascending
    A = np.sort(np.where(real, roots.real, np.inf), axis=0)
    mask = np.isfinite(A)
    mask[1:] &= A[1:] != A[:-1]
    A = np.where(mask, A, 0.0)
    bA = npoly.polyval(A, b.T, tensor=False)
    ordinary = mask & (np.abs(bA) > 1e-12 * (1.0 + np.abs(A)))
    M = -npoly.polyval(A, a.T, tensor=False) / np.where(ordinary, bA, 1.0)
    seeds, found, _ = _quadratic_roots(g2, npoly.polyval(A, g1.T, tensor=False),
                                       npoly.polyval(A, g0.T, tensor=False))
    fallback = mask & ~ordinary
    # the ordinary branches and the leader-row seeds of each fallback A,
    # sorted by A; the stable sort keeps one A's two seeds in ascending order
    A, M = np.concatenate([A, A, A]), np.concatenate([M, seeds[0], seeds[1]])
    mask = np.concatenate([ordinary, fallback & found[0], fallback & found[1]])
    order = np.argsort(np.where(mask, A, np.inf), axis=0, kind="stable")
    # at least one, so that every cell has a branch row to pick from
    width = int(mask.sum(axis=0).max(initial=1))
    return (*(np.take_along_axis(x, order, axis=0)[:width] for x in (A, M, mask)),
            finite)


def _leading_branches(params: ModelParams, system: CoefficientSystem):
    """Every real root of the H^2 rows in the leading unknowns, per cell.

    Returns (leading, mask, discs, errors): leading is a tuple of one (K, n)
    array per leading unknown (A; A and M in gs) with branch k of cell i at [k, i]
    where mask[k, i]; discs holds per cell its discriminants by label, and
    errors None or its typed error. The balances are evaluated once, on a
    jet in the leading unknowns at 0: in gd and gc the farmer or joint H^2
    row is a quadratic in A (_quadratic_branches); in gs the two rows leave
    a quartic in A (_eliminate). A cell whose coefficients, or the
    discriminant, quartic or companion matrix formed from them, overflow
    float64 fails with a ParameterError.
    """
    mode, lead = system.mode, _BY_POWER[system.mode][2]
    # under _solve_columns' errstate, overflow leaves inf or nan, which the
    # finiteness tests below catch
    k, n = len(lead), params.rho.size
    unknowns = [_Jet(np.zeros(n), unit, np.zeros((k, k, n)))
                for unit in np.eye(k)[:, :, None] * np.ones(n)]
    out = system.balances(_leading_vector(mode, unknowns))
    if len(lead) == 1:
        return _quadratic_branches(params, mode, out[lead[0]])
    # per row, the coefficients of (1, A, A^2), of (M, A*M), and of M^2
    (a, b, _), (g0, g1, g2) = ((np.stack([r.value, r.grad[0], r.hess[0, 0] / 2.0], axis=1),
                                np.stack([r.grad[1], r.hess[0, 1]], axis=1),
                                r.hess[1, 1] / 2.0) for r in (out[i] for i in lead))
    A, M, mask, finite = _eliminate(a, b, g0, g1, g2)
    finite &= np.isfinite(np.column_stack([a, b, g0, g1, g2])).all(axis=1)
    errors = [_overflow("the H^2 balances, their (A, M) quartic or its "
                        "companion matrix") if not ok
              else None if any_branch
              else NoRealBranchError("no real (A, M) branch of the coupled quadratic "
                                     "balances")
              for ok, any_branch in zip(finite.tolist(), mask.any(axis=0).tolist())]
    return (A, M), mask, [{} for _ in errors], errors


def _overflow(where: str) -> ParameterError:
    return ParameterError(f"parameters overflow float64 in {where}")


def _solve_regular(matrix, rhs):
    """np.linalg.solve of every cell whose matrix is regular, 0 elsewhere.

    matrix is (n, k, k) and rhs (n, k, m). A cell is singular where the LU
    factorization meets an exactly zero pivot, which np.linalg.slogdet
    reports as sign 0 and np.linalg.solve as LinAlgError. Returns the
    solutions (n, k, m) and the singular cells (n,).
    """
    singular = np.linalg.slogdet(matrix)[0] == 0.0
    out = np.zeros(rhs.shape)
    out[~singular] = np.linalg.solve(matrix[~singular], rhs[~singular])
    return out, singular


# Chord steps taken whatever the residual does: the balances are
# block-triangular by power of H (see _BY_POWER), so from the leading root
# step 1 lands the H^1 unknowns and step 2 the H^0 unknowns.
_COMPLETION_STEPS = 2


def _newton(system: CoefficientSystem, leading, tolerance: float):
    """Chord-Newton on every cell's balances from its leading root (leading:
    one (n,) array per leading unknown, the other unknowns 0), gated on the
    residuals.

    The Jacobian is taken once, at the start, by one complex step per
    unknown (Martins, Sturdza & Alonso, *ACM TOMS* 29(3), 2003): the
    balances are quadratic, so the imaginary part of their value at v +
    i*h_j*e_j is h_j times column j, exact as formed. After the
    _COMPLETION_STEPS steps a cell stops once its normalized residual stops
    falling, and keeps its best iterate. Returns the coefficients (k, n), the
    normalized residuals (n,) and per cell its error: None, a ParameterError
    for a non-finite iterate or residual, or a BalanceGateError naming the
    worst balance for a residual above tolerance times its scale.
    """
    def norm(v, res):
        return np.max(np.abs(res) / system.scales(v), axis=0)

    v = np.array(np.broadcast_arrays(*_leading_vector(system.mode, leading)))
    k, h = len(v), 1.0 + np.abs(v)
    # [row, point, cell]: the balances at v, then v + i*h_j*e_j; under
    # _solve_columns' errstate, overflow leaves inf or nan, which the
    # finiteness test below catches
    out = np.array(system.balances(list(
        v[:, None] + 1j * np.eye(k, k + 1, 1)[:, :, None] * h[:, None])))
    res = out[:, 0].real
    err = norm(v, res)
    jac = np.ascontiguousarray(np.moveaxis(out[:, 1:].imag / h, -1, 0))
    # the inverse, as a solve against the identity; 0 (no step) where
    # singular, which leaves the H^1 and H^0 rows to the gate
    inverse = _solve_regular(jac, np.broadcast_to(np.eye(k), jac.shape))[0]
    active = np.ones(v.shape[1:], dtype=bool)
    for step in range(_COMPLETION_STEPS + 8):   # one or two more polish
        move = (inverse @ np.ascontiguousarray(res.T)[..., None])[..., 0].T
        trial = np.where(active, v - move, v)
        trial_res = system.residuals(trial)
        trial_err = norm(trial, trial_res)
        active &= (step < _COMPLETION_STEPS) | (trial_err < err)
        if not active.any():
            break
        v = np.where(active, trial, v)
        res = np.where(active, trial_res, res)
        err = np.where(active, trial_err, err)
    scales = system.scales(v)
    finite = (np.isfinite(v) & np.isfinite(res)).all(axis=0)
    errors = [None] * len(finite)
    for i in np.flatnonzero(~(finite & (err <= tolerance))).tolist():
        if not finite[i]:
            errors[i] = _overflow("the H^1 and H^0 balances")
            continue
        worst = int(np.argmax(np.abs(res[:, i]) / scales[:, i]))
        errors[i] = BalanceGateError(
            f"collected balance {system.labels[worst]} residual {res[worst, i]:.3e} "
            f"exceeds tolerance {tolerance:.1e}")
    return v, err, errors


# ---------------------------------------------------------------------------
# mode solvers
# ---------------------------------------------------------------------------

def solve(mode, params: ModelParams, cfg: SolverConfig = SolverConfig()) -> GameSolution:
    """Solve one mode; ``mode`` may be a GameMode or its short string.

    The batch of one of solve_many: raises the cell's typed error.
    """
    out = solve_many(mode, [params], cfg)[0]
    if isinstance(out, Exception):
        raise out
    return out


def solve_many(mode, params_seq: Sequence[ModelParams],
               cfg: SolverConfig = SolverConfig()) -> list:
    """Solve one mode for every parameter set of params_seq.

    Returns one entry per cell, in input order: the GameSolution that solve
    returns for it, or the exception it raises (ParameterError,
    ComplexRootError, UnstableModelError or a SolverError). A cell's entry
    does not depend on the other cells of the batch. The paper-closed-form
    backend solves the batch's residual anchors as one residual batch, then
    evaluates the published forms cell by cell at each cell's anchor entry.
    """
    mode = GameMode.from_string(mode)
    cells = list(params_seq)
    if cfg.backend == BACKEND_CLOSED_FORM:
        from . import closed_form
        anchors = solve_many(mode, cells, replace(cfg, backend=BACKEND_RESIDUAL))
        out = []
        for params, anchor in zip(cells, anchors):
            try:
                out.append(closed_form.solve_printed(mode, params, cfg, anchor))
            except (ParameterError, SolverError) as exc:
                out.append(exc)
        return out
    errors, live, (values, policies, alpha, beta, H_d), branches = _solve_columns(
        mode, cfg, *_stack_fields(cells), cells.__getitem__)
    scan, worst, leading, alphas, mask, discs = branches
    diags = [_diagnostics(cfg, *cell) for cell in
             zip(_candidates(leading, alphas, mask), discs, worst.tolist(), scan.tolist(),
                 _flags(policies, beta, H_d))]
    solutions = iter(_solutions([cells[i] for i in live.tolist()], mode, values, policies,
                                alpha, beta, H_d, diags))
    return [next(solutions) if e is None else e for e in errors]


# every stage runs under one errstate: overflow leaves inf or nan, which a
# stage's finiteness test or gate turns into the cell's typed error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_columns(mode: GameMode, cfg: SolverConfig, fields, odd, cell) -> tuple:
    """The residual backend's array stage on cells stacked by _stack_fields.

    validate_params judges each odd cell, and each cell _valid_columns
    refuses, read as cell(i). Then the leading branches with the stable
    pick, the chord-Newton and the alpha/scan gate each act on the cells
    that passed the stage before: a cell that fails keeps its typed error
    and leaves, with its parameters. Returns each cell's typed error or
    None, the indices of the cells that pass every gate, their (values,
    policies, alpha, beta, H_d) as _closed_loop's map gives them, and their
    (scan, worst normalized balance, leading, alphas, mask, discriminants).
    """
    convention = cfg.follower_convention
    errors, live = [None] * fields.shape[1], np.arange(fields.shape[1])
    params = loop = system = None

    def settle(errs, carried=()):
        """Record errs, drop their cells, and build the cells left."""
        nonlocal live, fields, params, loop, system
        keep = np.array([e is None for e in errs], dtype=bool)
        if params is None or not keep.all():
            for i in np.flatnonzero(~keep).tolist():
                errors[live[i]] = errs[i]
            live, fields, carried = _restrict((live, fields, carried), keep)
            params = ModelParams(*fields)
            loop = _closed_loop(params, mode, convention)
            system = _system(params, mode, convention)
        return carried

    errs = [None] * live.size
    for i in np.flatnonzero(odd | ~_valid_columns(fields)).tolist():
        try:
            validate_params(cell(i))
        except ParameterError as exc:
            errs[i] = exc
    settle(errs)
    leading, mask, discs, errs = _leading_branches(params, system)
    # the drift slope of each branch: the effort slopes hold only the
    # leading coefficients (A; A and M in gs)
    alphas = loop(_leading_vector(mode, leading))[2]
    pick = _pick(leading[0], alphas, mask, errs)
    leading, alphas, mask, discs, pick = settle(errs, (leading, alphas, mask, discs, pick))
    coeffs, worst, errs = _newton(
        system, tuple(x[pick, np.arange(pick.size)] for x in leading), cfg.tolerance)
    values, policies, alpha, beta, worst, leading, alphas, mask, discs = settle(
        errs, (*loop(coeffs), worst, leading, alphas, mask, discs))
    # values that overflow at the scanned states leave a nan or inf scan,
    # which fails the gate
    H_d = -beta / alpha
    scan = _scan(mode, convention, params, values, policies, H_d)
    errs = [UnstableModelError([a]) if not a < 0.0 else None if x <= cfg.hjb_tolerance
            else ScanGateError(f"stationarity-equation residual scan {x:.3e} exceeds "
                               f"configured bound {cfg.hjb_tolerance:.1e}")
            for a, x in zip(alpha.tolist(), scan.tolist())]
    return (errors, live, *settle(errs, ((values, policies, alpha, beta, H_d),
                                         (scan, worst, leading, alphas, mask, discs))))


def _restrict(carried, keep):
    """carried (arrays along their last axis, lists, and tuples of them)
    at the cells keep selects; scalars and None are shared by all cells."""
    if isinstance(carried, tuple):
        return tuple(_restrict(x, keep) for x in carried)
    if isinstance(carried, list):
        return [x for x, k in zip(carried, keep) if k]
    if isinstance(carried, np.ndarray):
        return carried[..., keep]
    return carried


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _values_and_policies(solution: GameSolution) -> tuple:
    """A solution's (A, B, C) per role, and its policies as _closed_loop's
    map returns them."""
    pol_f, pol_r = solution.policies["farmer"], solution.policies["retailer"]
    subsidy = (((pol_r.n1, pol_r.n0), (pol_r.d1, pol_r.d0))
               if solution.mode is GameMode.STACKELBERG else None)
    return (tuple((V.A, V.B, V.C) for V in solution.values.values()),
            ((pol_f.g1, pol_f.g0), (pol_r.g1, pol_r.g0), subsidy))


def _stationarity(mode: GameMode, convention: str, params: ModelParams,
                  values, policies, H) -> list:
    """Per role, (rho*V(H), rho*V(H) - RHS(H)); every argument may hold
    arrays, which broadcast against H. Under the paper-printed convention,
    the standard residual along the standard policies, plus offset*H^2."""
    printed = mode is GameMode.STACKELBERG and convention == CONVENTION_PRINTED
    if printed:
        policies = _closed_loop(params, mode, CONVENTION_STANDARD)(
            [x for V in values for x in V])[1]
    (f1, f0), (r1, r0), subsidy = policies
    e_f, e_r = f1 * H + f0, r1 * H + r0
    x = None if subsidy is None else _subsidy_ratio(subsidy, H)
    rates = profits.payoff_rates(mode, H, e_f, e_r, x, params)
    rate = ((rates.total,) if mode is GameMode.CENTRALIZED
            else (rates.net_f, rates.net_r))
    drift = reduction_drift(H, e_f, e_r, params)
    rho_v = [params.rho * ((A * H + B) * H + C) for A, B, C in values]
    res = [rv - r - (2.0 * A * H + B) * drift
           for rv, r, (A, B, _) in zip(rho_v, rate, values)]
    if printed:
        res = [row + offset * H * H for row, offset in zip(res, _printed_offsets(params))]
    return list(zip(rho_v, res))


def _states(H_d, n: int) -> tuple:
    """n states evenly over [0, 2*H_d] per cell, (n, cells), and their upper
    ends; a cell without a positive H_d gets [0, 1]. Each cell's states are
    np.linspace's, k*(hi/(n - 1)) with hi last, formed per cell: linspace
    itself rounds every column another way once one column's step
    underflows to 0."""
    hi = np.where(H_d > 0, 2.0 * H_d, 1.0)
    grid = np.arange(n)[:, None] * (hi / (n - 1))
    grid[-1] = hi
    return grid, hi


def _scan(mode: GameMode, convention: str, params: ModelParams, values,
          policies, H_d) -> np.ndarray:
    """Max normalized |residual| per cell over SCAN_STATES states in
    [0, 2*H_d]: one payoff_rates call on (state, cell) arrays."""
    worst = None
    for rho_v, res in _stationarity(mode, convention, params, values, policies,
                                    _states(H_d, SCAN_STATES)[0]):
        role = np.max(np.abs(res) / (1.0 + np.abs(rho_v)), axis=0)
        # a later role replaces the first only where it is larger, as max()
        worst = role if worst is None else np.where(role > worst, role, worst)
    return worst


def residual_scan(solution: GameSolution, params: ModelParams) -> float:
    """Max normalized |residual| over SCAN_STATES states in [0, 2*H_d]: the
    scan that gates every solve_many cell, for one solution."""
    return float(_scan(solution.mode, solution.diagnostics.convention,
                       _stack([params]), *_values_and_policies(solution),
                       np.array([solution.H_d], dtype=float))[0])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _solutions(cells, mode: GameMode, values, policies, alpha, beta, H_d,
               diags) -> list:
    """One GameSolution per cell, in Python floats."""
    def per_cell(*xs):   # (n,) arrays, or constants such as gd's retailer A
        return zip(*(x.tolist() if isinstance(x, np.ndarray) else [x] * len(cells)
                     for x in xs))

    e_f, e_r, subsidy = policies
    return [GameSolution(
        mode=mode, params=params,
        values={role: QuadraticValue(*v) for role, v in zip(VALUE_LAYOUT[mode], V)},
        policies={"farmer": FeedbackPolicy(*f), "retailer": FeedbackPolicy(*r)},
        alpha=a, beta=b, H_d=h, diagnostics=diag)
        for params, V, f, r, (a, b, h), diag in zip(
            cells, zip(*(per_cell(*role) for role in values)), per_cell(*e_f),
            per_cell(*e_r, *(subsidy[0] + subsidy[1] if subsidy else ())),
            per_cell(alpha, beta, H_d), diags)]


def _assemble(params: ModelParams, mode: GameMode, convention: Optional[str],
              coeffs, diag: SolutionDiagnostics) -> GameSolution:
    """The solution at a coefficient vector: values by role, policies from
    the policy map, and the closed-loop drift alpha*H + beta."""
    values, policies, alpha, beta = _closed_loop(_stack([params]), mode, convention)(
        np.array(coeffs, dtype=float)[:, None])
    return _solutions([params], mode, values, policies, alpha, beta,
                      -beta / alpha, [diag])[0]


def _candidates(leading, alphas, mask) -> list:
    """Per cell, every branch's leading coefficients and drift slope."""
    # [cell][branch] lists, one per leading unknown, then the slopes and mask
    coords = [x.T.tolist() for x in leading]
    alphas, mask = alphas.T.tolist(), mask.T.tolist()
    return [[{"coefficients": [c[i][k] for c in coords], "alpha": alphas[i][k]}
             for k in range(len(mask[i])) if mask[i][k]]
            for i in range(len(mask))]


def _diagnostics(cfg: SolverConfig, candidates, discs, worst_balance: float,
                 scan: float, flags) -> SolutionDiagnostics:
    stable = sum(c["alpha"] < 0.0 for c in candidates)
    diag = SolutionDiagnostics(
        backend=BACKEND_RESIDUAL,
        convention=cfg.follower_convention,
        root_branch="negative square-root branch (stable, alpha < 0)",
        discriminants=discs,
        max_hjb_residual=scan,
        candidates=candidates,
        ambiguous_stable_roots=stable > 1,
        flags=flags,
    )
    if stable > 1:
        diag.notes.append(
            f"{stable} stable branches; picked smallest |leading coefficient|")
    diag.notes.append(f"max collected-balance residual (normalized) {worst_balance:.3e}")
    return diag


def _flags(policies, beta, H_d) -> list:
    """Per cell, the warnings a solution carries without failing: x_f
    leaving [0, 1) (gs), beta < 0, and negative efforts, on FLAG_STATES
    states in [0, 2*H_d]."""
    grid, hi = _states(H_d, FLAG_STATES)
    his = hi.tolist()
    flags = [[] for _ in his]
    (f1, f0), (r1, r0), subsidy = policies
    if subsidy is not None:
        # only the all-zero rule is 0/0 at every state, whatever the scale
        (n1, n0), (d1, d0) = subsidy
        undefined = (n1 == 0.0) & (n0 == 0.0) & (d1 == 0.0) & (d0 == 0.0)
        x = _subsidy_ratio(subsidy, grid)
        bad = ~((x >= 0.0) & (x < 1.0))
        first = grid[np.argmax(bad, axis=0), np.arange(len(his))].tolist()
        last = grid[-1 - np.argmax(bad[::-1], axis=0), np.arange(len(his))].tolist()
        for i in np.flatnonzero(undefined | bad.any(axis=0)).tolist():
            flags[i].append(
                "subsidy rule is 0/0 at every state (undefined subsidy)" if undefined[i]
                else f"x_f outside [0, 1) on part of [0, {his[i]:.4g}] "
                     f"(first at H = {first[i]:.4g}, last at H = {last[i]:.4g})")
    for i, b in enumerate(beta.tolist()):
        if b < 0.0:   # validated prices are nonnegative
            flags[i].append(f"beta = {b:.6g} < 0 despite nonnegative payoff prices")
    for role, (g1, g0) in (("farmer", (f1, f0)), ("retailer", (r1, r0))):
        for i in np.flatnonzero(np.any(g1 * grid + g0 < 0.0, axis=0)).tolist():
            flags[i].append(
                f"{role} effort negative on part of [0, {his[i]:.4g}] (unclamped)")
    return flags

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

The balances are plain arithmetic, so they evaluate unchanged on parameter
fields stacked as arrays. ``solve_many`` solves a batch of cells of one mode
in one pass: the parameters are stacked along the last axis, the fits,
roots, linear solves and Newton steps act on all cells at once, and a cell
that fails leaves the batch with its typed error while the others go on.
``solve`` is its batch of one, so a cell's result does not depend on the
batch it was solved in.

Two backends are available. "residual" solves the derived balances; it is
the authoritative path. "paper-closed-form" evaluates the published
closed-form coefficient expressions verbatim for discrepancy reporting (see
closed_form.py), one cell at a time.

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
    ParameterError,
    QuadraticValue,
    SolutionDiagnostics,
    derive_constants,
    reduction_drift,
    validate_params,
)

__all__ = [
    "SolverConfig", "CoefficientSystem", "SolverError", "ComplexRootError",
    "UnstableModelError", "solve", "solve_many", "hjb_residual", "residual_scan",
]

BACKEND_RESIDUAL = "residual"
BACKEND_CLOSED_FORM = "paper-closed-form"
CONVENTION_STANDARD = "standard-cost-share"
CONVENTION_PRINTED = "paper-printed"

# states of the stationarity-equation residual scan, evenly over [0, 2*H_d]
SCAN_STATES = 100

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
    rho*v[i]. The entries of the vector may be arrays, which broadcast
    against the parameters.
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
        base = (1.0 - mf) * (eta * eta) / lf
        offsets = (base / 4.0, base / 8.0)

    def balances(v):
        (alpha, beta), values, rates = terms(v)
        out = []
        for (A, B, C), (r2, r1, r0) in zip(values, rates):
            out += (rho * A - r2 - 2.0 * A * alpha,
                    rho * B - r1 - (2.0 * A * beta + B * alpha),
                    rho * C - r0 - B * beta)
        if offsets is not None:
            out[0] = out[0] + offsets[0]
            out[3] = out[3] + offsets[1]
        if linear:
            del out[3]
        return out

    return CoefficientSystem(mode=mode, convention=convention,
                             names=_UNKNOWNS[mode][0], labels=_LABELS[mode],
                             rho=rho, balances=balances)


_FIELDS = ModelParams.field_names()


def _stack(cells: Sequence[ModelParams]) -> ModelParams:
    """The cells' parameters as one ModelParams of (n,) arrays."""
    return ModelParams(**{name: np.array([getattr(p, name) for p in cells], dtype=float)
                          for name in _FIELDS})


def _take(params: ModelParams, keep) -> ModelParams:
    """The cells of stacked parameters that keep selects."""
    return ModelParams(**{name: getattr(params, name)[keep] for name in _FIELDS})


# ---------------------------------------------------------------------------
# branches: leading roots, completion, polish
# ---------------------------------------------------------------------------

# Unknown i by the power of H of balance i, which carries rho*v[i]: the H^2
# rows hold only the leading unknowns (A; A and M in gs), the H^1 rows are
# affine in the H^1 unknowns, and H^0 unknown i enters row i only.
_BY_POWER = {mode: {k: tuple(i for i, lb in enumerate(labels) if lb.endswith(f"^{k}"))
                    for k in (2, 1, 0)} for mode, labels in _LABELS.items()}

# the values of a quadratic at 0, 1 and -1 -> its coefficients (c0, c1, c2)
_NODES = np.array([0.0, 1.0, -1.0])
_FIT = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, -0.5], [-1.0, 0.5, 0.5]])


def _leading_vector(mode: GameMode, leading) -> list:
    """The coefficient vector of a branch's leading coefficients, 0 elsewhere."""
    v = [0.0] * len(_UNKNOWNS[mode][0])
    for i, x in zip(_BY_POWER[mode][2], leading):
        v[i] = x
    return v


def _pick(leading, alphas, mask):
    """The stable branch of every cell: among the branches with a negative
    drift slope, the one with the smallest |leading coefficient|, the first
    on ties.

    leading, alphas and mask are (K, n): branch k of cell i at [k, i] where
    mask[k, i]. Returns the picked branch index per cell, and per cell None
    or an UnstableModelError listing every slope (a SolverError when the
    cell has no branch).
    """
    stable = mask & (alphas < 0.0)
    pick = np.argmin(np.where(stable, np.abs(leading), np.inf), axis=0)
    errors = [None] * pick.size
    for i in np.flatnonzero(~stable.any(axis=0)).tolist():
        slopes = alphas[mask[:, i], i].tolist()
        errors[i] = (UnstableModelError(slopes) if slopes
                     else SolverError("no candidates for the stable branch"))
    return pick, errors


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


def _fit(f0, f_plus, f_minus, s) -> tuple:
    """(c0, c1, c2) per cell of quadratics from their values at 0 and +-s;
    the fit is one small matrix-vector product per cell."""
    c = (_FIT @ np.stack([f0, f_plus, f_minus], axis=-1)[..., None])[..., 0]
    return c[:, 0], c[:, 1] / s, c[:, 2] / (s * s)


def _quadratic_branches(params: ModelParams, mode: GameMode, row: Callable):
    """The real roots in A of the gd farmer or gc joint H^2 row, per cell.

    The row is sampled at 0 and +-1 and fitted exactly, then refitted at
    +-s, s the power of two nearest its roots' scale, so the discriminant on
    the published scale (Delta^GD, Delta^GC) is good to a few ulps of its
    terms and its sign picks the error class. Returns (A, mask, discs,
    errors) as _leading_branches does.
    """
    lf, lr = params.lambda_f, params.lambda_r
    label, scale = (("Delta^GD", 4.0 * (lf * lf)) if mode is GameMode.DECENTRALIZED
                    else ("Delta^GC", (lf * lr) * (lf * lr)))
    f0, f1, f_1 = row(_NODES[:, None])
    c0, c1, c2 = _fit(f0, f1, f_1, 1.0)
    # refit on the roots' scale, where c0 no longer dwarfs the c1 and c2
    # terms and so leaves its rounding out of them: s is the power of two
    # nearest sqrt|c0/c2|, the geometric mean of the roots' magnitudes, and 1
    # where that is not finite and positive
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(c0 / c2)
    ok = (ratio > 0.0) & (ratio < np.inf)
    s = np.ldexp(1.0, np.rint(0.5 * np.log2(np.where(ok, ratio, 1.0))).astype(int))
    c0, c1, c2 = _fit(f0, *row(np.stack([s, -s])), s)
    A, mask, disc = _quadratic_roots(c2, c1, c0)
    published = disc * scale
    # the discriminant as formed before _quadratic_roots takes 0 where c2 = 0:
    # finite only where c0, c1, c2 and their products are
    finite = np.isfinite(c1 * c1 - 4.0 * c2 * c0) & np.isfinite(published)
    discs = [{label: d} for d in published.tolist()]
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
    quartic is finite.
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
            companion = np.zeros((cells.size, d, d))
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            companion[:, :, -1] -= quartic[cells, :d] / quartic[cells, d:d + 1]
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
    width = int(mask.sum(axis=0).max(initial=0))
    return (*(np.take_along_axis(x, order, axis=0)[:width] for x in (A, M, mask)),
            finite)


def _leading_branches(params: ModelParams, system: CoefficientSystem):
    """Every real root of the H^2 rows in the leading unknowns, per cell.

    Returns (leading, mask, discs, errors): leading is a tuple of one (K, n)
    array per leading unknown (A; A and M in gs) with branch k of cell i at [k, i]
    where mask[k, i]; discs holds per cell its discriminants by label, and
    errors None or its typed error. The rows are sampled at 0 and
    +-1 of each leading unknown and fitted exactly: in gd and gc the farmer
    or joint row is a quadratic in A (_quadratic_branches); in gs the two
    rows leave a quartic in A (_eliminate). A cell whose fitted rows, or the
    discriminant or quartic formed from them, overflow float64 fails with a
    ParameterError: its parameters are finite but too large or too small for
    the balances.
    """
    mode, lead = system.mode, _BY_POWER[system.mode][2]

    def rows(*leading):
        out = system.balances(_leading_vector(mode, leading))
        return [out[i] for i in lead]

    # overflow leaves inf or nan, which the finiteness tests below catch
    with np.errstate(over="ignore", invalid="ignore"):
        if len(lead) == 1:
            return _quadratic_branches(params, mode, lambda x: rows(x)[0])
        n = params.rho.size
        # [cell, i, j, row]: the farmer and the leader row at A = _NODES[i],
        # M = _NODES[j]
        samples = np.stack([np.broadcast_to(r, (3, 3, n))
                            for r in rows(_NODES[:, None, None],
                                          _NODES[None, :, None])], axis=-1)
        samples = np.ascontiguousarray(np.moveaxis(samples, 2, 0))
        # [cell, i, j]: the coefficient of A^i * M^j in the farmer and the
        # leader row
        farmer, leader = (_FIT @ samples[..., k] @ _FIT.T for k in (0, 1))
        A, M, mask, finite = _eliminate(farmer[:, :, 0], farmer[:, :2, 1],
                                        leader[:, :, 0], leader[:, :2, 1],
                                        leader[:, 0, 2])
    finite &= np.isfinite(samples).all(axis=(1, 2, 3))
    errors = [_overflow("the H^2 balances or their (A, M) quartic") if not ok
              else None if any_branch
              else SolverError("no real (A, M) branch of the coupled quadratic balances")
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


def _complete(system: CoefficientSystem, leading):
    """The full coefficient vectors (k, n) of branches: the H^1 unknowns by
    one linear solve of the H^1 rows per cell, then each H^0 unknown from
    its own row. Returns them with per-cell errors."""
    by_power = _BY_POWER[system.mode]
    v, h1 = _leading_vector(system.mode, leading), by_power[1]
    n = system.rho.size
    # the H^1 rows at H^1 unknowns 0 (the base), then at each unit vector
    probe = list(v)
    for i in h1:
        probe[i] = np.array([0.0] + [float(i == j) for j in h1])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        out = system.balances(probe)
        rows = np.stack([np.broadcast_to(out[i], (len(h1) + 1, n)) for i in h1])
        matrix = np.ascontiguousarray(np.moveaxis(rows[:, 1:] - rows[:, :1], -1, 0))
        rhs = np.ascontiguousarray(-rows[:, 0].T)[..., None]
        solved, singular = _solve_regular(matrix, rhs)
        for i, x in zip(h1, solved[..., 0].T):
            v[i] = x
        out = system.balances(v)
        for i in by_power[0]:
            v[i] = v[i] - out[i] / system.rho
        v = np.array(v)
    finite = np.isfinite(rows).all(axis=(0, 1)) & np.isfinite(v).all(axis=0)
    return v, [_overflow("the H^1 and H^0 balances") if not ok else
               SolverError("singular H^1 balances on the stable branch") if s else None
               for ok, s in zip(finite.tolist(), singular.tolist())]


def _newton(system: CoefficientSystem, guess, tolerance: float):
    """Chord-Newton polish of the balances of every cell, gated on their
    residuals.

    Every balance is quadratic in the unknowns, so central differences give
    the Jacobian exactly up to rounding; it is taken once, at the guess. Per
    cell, the iterate with the smallest normalized residual is kept, and
    rejected with the worst balance's label when any residual exceeds
    tolerance times its scale. guess is (k, n); returns the coefficients
    (k, n), the normalized residuals (n,) and per-cell errors.
    """
    def balances(v):
        # balance i carries rho*v[i], so every row has the shape of v[i]
        return np.array(system.balances(list(v)))

    def norm(v, res):
        return np.max(np.abs(res) / system.scales(v), axis=0)

    v = guess
    k, n = v.shape
    h = 1.0 + np.abs(v)
    shift = np.zeros((k, k, n))
    shift[np.arange(k), np.arange(k)] = h
    # [row, point, cell]: the balances at v, at v + h_j*e_j, then at v - h_j*e_j
    out = balances(np.concatenate([v[:, None], v[:, None] + shift,
                                   v[:, None] - shift], axis=1))
    res, up, down = out[:, 0], out[:, 1:k + 1], out[:, k + 1:]
    err = norm(v, res)
    jac = np.ascontiguousarray(np.moveaxis((up - down) / (2.0 * h), -1, 0))
    # the inverse, as a solve against the identity; 0 (no step, the guess is
    # kept) where singular
    inverse = _solve_regular(jac, np.broadcast_to(np.eye(k), jac.shape))[0]
    active = np.ones(n, dtype=bool)
    for _ in range(8):   # one or two steps reach the rounding floor
        step = (inverse @ np.ascontiguousarray(res.T)[..., None])[..., 0].T
        trial = np.where(active, v - step, v)
        trial_res = balances(trial)
        trial_err = norm(trial, trial_res)
        active &= trial_err < err
        if not active.any():
            break
        v = np.where(active, trial, v)
        res = np.where(active, trial_res, res)
        err = np.where(active, trial_err, err)
    errors = [None] * n
    scales = system.scales(v)
    for i in np.flatnonzero(~(err <= tolerance)).tolist():
        worst = int(np.argmax(np.abs(res[:, i]) / scales[:, i]))
        errors[i] = SolverError(
            f"collected balance {system.labels[worst]} residual {res[worst, i]:.3e} "
            f"exceeds tolerance {tolerance:.1e}")
    return v, err, errors


# ---------------------------------------------------------------------------
# mode solvers
# ---------------------------------------------------------------------------

def _as_mode(mode) -> GameMode:
    return mode if isinstance(mode, GameMode) else GameMode.from_string(str(mode))


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
    ComplexRootError, UnstableModelError or SolverError). A cell's entry does
    not depend on the other cells of the batch. The paper-closed-form
    backend solves the cells one at a time.
    """
    mode = _as_mode(mode)
    cells = list(params_seq)
    out = [None] * len(cells)
    live = []
    for i, params in enumerate(cells):
        try:
            validate_params(params)
            live.append(i)
        except ParameterError as exc:
            out[i] = exc
    if cfg.backend == BACKEND_CLOSED_FORM:
        from . import closed_form
        for i in live:
            try:
                out[i] = closed_form.solve_printed(mode, cells[i], cfg)
            except SolverError as exc:
                out[i] = exc
    elif live:
        _Batch(mode, cfg, cells, live, out).solve()
    return out


class _Batch:
    """The cells of one solve_many call still being solved.

    pos holds their positions in the output list and params their
    parameters stacked along the last axis. drop records a stage's typed
    errors in the output and keeps the other cells, so no later stage
    computes on a failed cell.
    """

    def __init__(self, mode, cfg, cells, live, out):
        self.mode, self.cfg, self.out = mode, cfg, out
        self.convention = cfg.follower_convention
        self.cells = [cells[i] for i in live]
        self.pos = live
        self.params = _stack(self.cells)
        self._build_system()

    def _build_system(self):
        # a constant that overflows leaves inf or nan in the balances, where
        # _leading_branches and _complete find it
        with np.errstate(over="ignore", invalid="ignore"):
            self.system = _system(self.params, self.mode, self.convention)

    def drop(self, errors, *carried) -> tuple:
        """Record errors (None where a cell goes on) and return carried
        restricted to the other cells."""
        keep = [e is None for e in errors]
        if all(keep):
            return carried
        for p, e in zip(self.pos, errors):
            if e is not None:
                self.out[p] = e
        self.pos, self.cells = _restrict((self.pos, self.cells), keep)
        keep = np.array(keep)
        self.params = _take(self.params, keep)
        self._build_system()
        return _restrict(carried, keep)

    def solve(self):
        mode, cfg = self.mode, self.cfg
        leading, mask, discs, errors = _leading_branches(self.params, self.system)
        leading, mask, discs = self.drop(errors, leading, mask, discs)
        if not self.pos:
            return
        # the drift slope of each branch: the effort slopes hold only the
        # leading coefficients (A; A and M in gs)
        alphas = _closed_loop(self.params, mode, self.convention,
                              _leading_vector(mode, leading))[2]
        pick, errors = _pick(leading[0], alphas, mask)
        chosen = tuple(x[pick, np.arange(pick.size)] for x in leading)
        candidates = _candidates(leading, alphas, mask)
        chosen, candidates, discs = self.drop(errors, chosen, candidates, discs)
        if not self.pos:
            return
        guess, errors = _complete(self.system, chosen)
        guess, candidates, discs = self.drop(errors, guess, candidates, discs)
        if not self.pos:
            return
        coeffs, worst, errors = _newton(self.system, guess, cfg.tolerance)
        coeffs, worst, candidates, discs = self.drop(errors, coeffs, worst,
                                                     candidates, discs)
        if not self.pos:
            return
        if mode is GameMode.STACKELBERG:
            # the published discriminants at each solution, informational only
            from . import closed_form
            for params, v, d in zip(self.cells, coeffs.T.tolist(), discs):
                printed = closed_form.printed_stackelberg(
                    params, dict(zip(self.system.names, v)))
                for key in ("Delta^GS1", "Delta^GS2"):
                    d[key] = float(printed[key])
        loop = _closed_loop(self.params, mode, self.convention, coeffs)
        errors = [None if a < 0.0 else UnstableModelError([a]) for a in loop[2].tolist()]
        loop, worst, candidates, discs = self.drop(errors, loop, worst, candidates, discs)
        if not self.pos:
            return
        values, policies, alpha, beta = loop
        H_d = -beta / alpha
        # values that overflow at the scanned states leave a nan or inf
        # scan, which fails the gate
        with np.errstate(over="ignore", invalid="ignore"):
            scan = _scan(mode, self.convention, self.params, values, policies, H_d)
        errors = [None if s <= cfg.hjb_tolerance else SolverError(
            f"stationarity-equation residual scan {s:.3e} exceeds "
            f"configured bound {cfg.hjb_tolerance:.1e}") for s in scan.tolist()]
        loop, H_d, scan, worst, candidates, discs = self.drop(
            errors, loop, H_d, scan, worst, candidates, discs)
        if not self.pos:
            return
        values, policies, alpha, beta = loop
        flags = _flags(policies, beta, H_d)
        diags = [_diagnostics(cfg, *cell) for cell in
                 zip(candidates, discs, worst.tolist(), scan.tolist(), flags)]
        for p, sol in zip(self.pos, _solutions(self.cells, mode, values, policies,
                                               alpha, beta, H_d, diags)):
            self.out[p] = sol


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
    terms = _stationarity(solution.mode, solution.diagnostics.convention, params,
                          *_values_and_policies(solution), np.asarray(H, dtype=float))
    return {role: res for role, (_, res) in zip(solution.values, terms)}


def _values_and_policies(solution: GameSolution) -> tuple:
    """A solution's (A, B, C) per role, and its policies as _policy_map's
    rule returns them."""
    pol_f, pol_r = solution.policies["farmer"], solution.policies["retailer"]
    subsidy = (((pol_r.n1, pol_r.n0), (pol_r.d1, pol_r.d0))
               if solution.mode is GameMode.STACKELBERG else None)
    return (tuple((V.A, V.B, V.C) for V in solution.values.values()),
            ((pol_f.g1, pol_f.g0), (pol_r.g1, pol_r.g0), subsidy))


def _stationarity(mode: GameMode, convention: str, params: ModelParams,
                  values, policies, H) -> list:
    """Per role, (rho*V(H), rho*V(H) - RHS(H)); every argument may hold
    arrays, which broadcast against H."""
    rho_v = [params.rho * ((A * H + B) * H + C) for A, B, C in values]
    if mode is GameMode.STACKELBERG and convention == CONVENTION_PRINTED:
        rows = _system(params, mode, CONVENTION_PRINTED).balances(
            [x for V in values for x in V])
        return [(rv, (rows[k] * H + rows[k + 1]) * H + rows[k + 2])
                for rv, k in zip(rho_v, (0, 3))]
    (f1, f0), (r1, r0), subsidy = policies
    e_f, e_r = f1 * H + f0, r1 * H + r0
    x = None
    if subsidy is not None:
        (n1, n0), (d1, d0) = subsidy
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (n1 * H + n0) / (d1 * H + d0)
    rates = profits.payoff_rates(mode, H, e_f, e_r, x, params)
    rate = ((rates.total,) if mode is GameMode.CENTRALIZED
            else (rates.net_f, rates.net_r))
    drift = reduction_drift(H, e_f, e_r, params)
    return [(rv, rv - r - (2.0 * A * H + B) * drift)
            for rv, r, (A, B, _) in zip(rho_v, rate, values)]


def _scan(mode: GameMode, convention: str, params: ModelParams, values,
          policies, H_d) -> np.ndarray:
    """Max normalized |residual| per cell over SCAN_STATES states in
    [0, 2*H_d]: one payoff_rates call on (state, cell) arrays."""
    hi = np.where(H_d > 0, 2.0 * H_d, 1.0)
    worst = None
    for rho_v, res in _stationarity(mode, convention, params, values, policies,
                                    np.linspace(0.0, hi, SCAN_STATES)):
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

def _closed_loop(params: ModelParams, mode: GameMode, convention: str, coeffs):
    """Values by role, policies from the policy map, and the drift slope and
    intercept of coefficient vectors (k, n)."""
    values = _VALUES[mode](list(coeffs))
    e_f, e_r, subsidy = _policy_map(params, mode, convention)(values[0], values[-1])
    alpha = params.mu_f * e_f[0] + params.mu_r * e_r[0] - params.delta
    beta = params.mu_f * e_f[1] + params.mu_r * e_r[1]
    return values, (e_f, e_r, subsidy), alpha, beta


def _solutions(cells, mode: GameMode, values, policies, alpha, beta, H_d,
               diags) -> list:
    """One GameSolution per cell, in Python floats."""
    def per_cell(x):   # an (n,) array, or a constant such as gd's retailer A
        return x.tolist() if isinstance(x, np.ndarray) else [x] * len(cells)

    e_f, e_r, subsidy = policies
    V = [[per_cell(x) for x in role] for role in values]
    pol_f = [per_cell(x) for x in e_f]
    pol_r = [per_cell(x) for x in e_r + (subsidy[0] + subsidy[1] if subsidy else ())]
    roles = _UNKNOWNS[mode][1]
    return [GameSolution(
        mode=mode, params=params,
        values={role: QuadraticValue(*(x[i] for x in V[r]), role=role)
                for r, role in enumerate(roles)},
        policies={"farmer": FeedbackPolicy(*(x[i] for x in pol_f)),
                  "retailer": FeedbackPolicy(*(x[i] for x in pol_r))},
        alpha=a, beta=b, H_d=h, diagnostics=diag)
        for i, (params, a, b, h, diag) in enumerate(zip(
            cells, per_cell(alpha), per_cell(beta), per_cell(H_d), diags))]


def _assemble(params: ModelParams, mode: GameMode, convention: Optional[str],
              coeffs, diag: SolutionDiagnostics) -> GameSolution:
    """The solution at a coefficient vector: values by role, policies from
    the policy map, and the closed-loop drift alpha*H + beta."""
    values, policies, alpha, beta = _closed_loop(
        _stack([params]), mode, convention, np.array(coeffs, dtype=float)[:, None])
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


def _flags(policies, beta, H_d, n: int = 81) -> list:
    """Per cell, the warnings a solution carries without failing: x_f
    leaving [0, 1) (gs), beta < 0, and negative efforts, on n states in
    [0, 2*H_d]."""
    hi = np.where(H_d > 0, 2.0 * H_d, 1.0)
    grid = np.linspace(0.0, hi, n)
    his = hi.tolist()
    flags = [[] for _ in his]
    (f1, f0), (r1, r0), subsidy = policies
    if subsidy is not None:
        (n1, n0), (d1, d0) = subsidy
        den = d1 * grid + d0
        undefined = np.all(np.abs(den) < 1e-12, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (n1 * grid + n0) / den
        bad = ~((x >= 0.0) & (x < 1.0))
        first = grid[np.argmax(bad, axis=0), np.arange(len(his))].tolist()
        last = grid[n - 1 - np.argmax(bad[::-1], axis=0), np.arange(len(his))].tolist()
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

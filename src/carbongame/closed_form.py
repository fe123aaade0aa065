"""Published closed-form coefficient expressions, evaluated for comparison.

This module powers the "paper-closed-form" backend. The published coefficient
expressions are transcribed as printed, including their internal
inconsistencies, so that the gap between them and the residual backend is
measurable instead of silently patched. They are evaluated in IEEE float64
arithmetic (an overflow, 0/0 or the square root of a negative printed
discriminant gives inf or nan), and a printed value that is not finite falls
back to the anchor, the residual backend's solution, and is flagged; every
printed value is preserved in the diagnostics. Numerically that means:

* Simultaneous-play mode: the printed chain A -> M -> B -> C -> N is complete
  and evaluates to finite values, but the printed M denominator carries sign
  errors that make the retailer's value negative at typical parameters, and
  downstream values inherit the damage. Symbols that the source never defines
  (lambda_s, mu_s, lambda_m, mu_m, p_m, us) are read as the farmer/retailer
  parameters they visually shadow; that mapping is recorded in the output.
* Leader-follower mode: the printed expressions are self-referential (A needs
  M, M needs A, B references a coefficient from the centralized mode), so
  they are evaluated one-shot at the anchor. Both printed discriminants
  (Delta^GS1 and Delta^GS2, which only this backend reports) are negative at
  the reference parameters, so the printed A and M are not real there.
* Centralized mode: the printed A numerator and discriminant are garbled
  (the discriminant is negative at the reference parameters) and the printed
  B denominator flips a sign, but the derivation they summarize is internally
  consistent. The corrected transcription below restores the three slips and
  then agrees with the residual backend to machine precision; the verbatim
  values are still evaluated and reported alongside.
"""

from __future__ import annotations

import functools

import numpy as np

from . import solver
from .model import (
    GameMode,
    GameSolution,
    ModelParams,
    SolutionDiagnostics,
    validate_params,
)

__all__ = [
    "printed_decentralized",
    "printed_stackelberg",
    "printed_centralized",
    "corrected_centralized",
    "solve_printed",
]


def _symbols(params: ModelParams) -> tuple:
    """solver._symbols, then omega, as numpy float64 scalars."""
    return tuple(map(np.float64, solver._symbols(params) + (params.omega,)))


def _ieee(printed):
    """Printed formulas on _symbols, in IEEE float64 arithmetic without
    warnings; their numbers come back as Python floats."""
    @functools.wraps(printed)
    @np.errstate(all="ignore")
    def evaluate(*args):
        return {k: float(v) if isinstance(v, np.floating) else v
                for k, v in printed(*args).items()}
    return evaluate


@_ieee
def printed_decentralized(params: ModelParams) -> dict:
    """Chained verbatim evaluation of the published simultaneous-play forms.

    Returns every printed quantity plus both printed discriminant variants
    (the main-text one, which is consistent with the printed A, and the
    appendix one, which drops a factor of 2 on the rho term).
    """
    lf, lr, mf, mr, d, r, eta, k1, k2, pf, pr, pc, _ = _symbols(params)

    delta_main = (4 * mf * eta - 4 * lf * d - 2 * r * lf) ** 2 - (4 * mf * eta) ** 2
    delta_appendix = (4 * mf * eta - 4 * lf * d - r * lf) ** 2 - (4 * mf * eta) ** 2
    A = (2 * r * lf + 4 * lf * d - 4 * mf * eta - np.sqrt(delta_main)) / (8 * mf ** 2)
    # undefined symbols read as: p_m -> p_r, lambda_s -> lambda_f, mu_s/us -> mu_f,
    # lambda_m -> lambda_r, mu_m -> mu_r
    M = pr * k2 * lf / (eta * mf + 2 * A * mf ** 2 + lf * r - d * lf)
    B = -((2 * lr ** 2 * A * M + k1 * lr * pc + k1 * lr * pf) * lf) \
        / (lr * (eta * mf + 2 * A * mf ** 2 - lf * r - d * lf))
    C = B * (lf ** 2 * lr * B + 2 * M * lr ** 2 * lf) / (2 * lr * lf * r)
    N = M * (2 * lr * mf ** 2 * B + M * mr ** 2 * lf) / (2 * lr * lf * r)
    H_d = (lr * mf * B + lf * mr * M) / (lf * lr * d - 2 * A * mf * lr - eta * mf * lr)
    return {"A": A, "B": B, "C": C, "M": M, "N": N,
            "Delta^GD": delta_main, "Delta^GD appendix variant": delta_appendix,
            "H_d printed formula": H_d,
            "symbol mapping": "p_m->p_r, lambda_s->lambda_f, mu_s/us->mu_f, "
                              "lambda_m->lambda_r, mu_m->mu_r"}


@_ieee
def printed_stackelberg(params: ModelParams, anchor: dict) -> dict:
    """One-shot verbatim evaluation of the published leader-follower forms.

    anchor supplies the coefficient values (keys A, B, C, M, N, F) plugged
    into the right-hand sides, since the printed expressions reference each
    other; the stray centralized-mode token in the printed B denominator is
    read as the anchor's A. Square roots of negative printed discriminants
    yield NaN rather than an error so the report stays total.
    """
    lf, lr, mf, mr, d, r, eta, k1, k2, pf, pr, pc, om = _symbols(params)
    Aa, Ba = anchor["A"], anchor["B"]
    Ma, Na = anchor["M"], anchor["N"]

    delta_gs1 = (2 * (mf * om * k1 * pc * r) ** 2
                 + 2 * k1 * pc * om * lf * mf * r ** 2 * (r ** 2 - 2 * d)
                 + lf * r ** 3 * (lf * r ** 3 + 4 * Ma * mf ** 2 - 4 * lf * r * d)
                 + 4 * Ma ** 2 * mf ** 4 - 8 * Ma * lf * r * d * mf ** 2
                 + 4 * lf ** 2 + 4 * (lf * r * d) ** 2
                 + 8 * Ma * mr ** 2 * lf * (lr * r * om * pc * k1 + lf * lr * r ** 3
                                            + 2 * Ma * mf ** 2 * lr
                                            + 2 * Ma * mr ** 2 * lf
                                            - 2 * lr * lf * r * d))
    delta_gs2 = (2 * lr * (k2 * pc * r * om) ** 2 * (lr * mf ** 2 + lf)
                 + 2 * k2 * lr * lf * pc * r * om * (lr * r ** 3 * mf
                                                     - 2 * Aa * mr ** 2
                                                     - 2 * lr * r * d)
                 + 4 * lr * lf * r ** 2 * (r ** 3 + r ** 2 * d + d ** 2)
                 + 4 * Aa * lr * lf * mf ** 2 * (lr * r ** 3 - Aa * mr ** 2
                                                 - 2 * lr * r * d))
    A = (2 * lr * lf * r * d - eta * lr * r * mf - lr * lf * r ** 3
         - 2 * mf ** 2 * lr * Ma - 4 * mr ** 2 * lf * Ma
         - np.sqrt(delta_gs1)) / (2 * mf ** 2 * lr)
    M = (2 * lf * lr * r * d - eta * r * lr * mf - lf * lr * r ** 3
         - 2 * Aa * lr * mf ** 2 - np.sqrt(delta_gs2)) \
        / (4 * (lr * mf ** 2 + lf * mr ** 2))
    B = lf * lr * ((pc + pf) * k1 + pr * k2) \
        / (lf * lr * (r - d) - eta * lr * mf - 2 * Aa * (lr * mf ** 2 + lf * mr ** 2))
    C = (Ba ** 2 * mf ** 2 * lr + Ba * Na * (4 * mr ** 2 * lf + 2 * mf ** 2 * lr)) \
        / (4 * r ** 3 * lf * lr)
    N = (2 * lr * mf ** 2 * Ba * (Aa + 2 * Ma - 4 * lr * lf * pr * r ** 2 * k2
                                  - eta * lr * mf * r * Ba)) \
        / (4 * r ** 3 * lf * lr - 2 * eta * mf * r * lr + 4 * lf * lr * d * r
           + 4 * mf ** 2 * lr * (Aa + 2 * Ma) + 8 * mr ** 2 * lf * Ma)
    F = (mf ** 2 * lr * (Ba ** 2 + 4 * Na * Ba)
         + 4 * Na ** 2 * (lr * mf ** 2 + lf * mr ** 2)) / (8 * r ** 3 * lr * lf)
    H_d = (2 * (lf * r * mr + lr * mf) * Na + lr * mf * Ba) \
        / (4 * lr * mf * Ma - r * lr * eta - 4 * lf * mr * r * Ma
           - 2 * lr * mf * Aa + 2 * lr * lf * r * d)
    return {"A": A, "B": B, "C": C, "M": M, "N": N, "F": F,
            "Delta^GS1": delta_gs1, "Delta^GS2": delta_gs2,
            "H_d printed formula": H_d,
            "anchor": dict(anchor),
            "note": "one-shot evaluation; right-hand-side coefficients taken "
                    "from the anchor solution; stray centralized-mode token in "
                    "the B denominator read as the anchor A"}


@_ieee
def printed_centralized(params: ModelParams) -> dict:
    """Verbatim evaluation of the published centralized forms."""
    lf, lr, mf, mr, d, r, eta, k1, k2, pf, pr, pc, _ = _symbols(params)

    delta = 4 * lr * eta ** 2 * (2 * lr * mf ** 2 + lf * mr ** 2
                                 + lr ** 2 * lf * (r - 2 * d)
                                 * (4 * eta * mf + r - 2 * d))
    A = (2 * d * lf - r * lf - 2 * lr * mf * eta - np.sqrt(delta)) \
        / (4 * lr * mf ** 2 + 4 * lf * mr ** 2)
    B = lf * lr * ((pc + pf) * k1 + pr * k2) \
        / (lf * lr * (r - d) - eta * lr * mf
           - 2 * A * (lr * mf ** 2 + lf * mr ** 2))
    C = B ** 2 * (lr * mf ** 2 + lf * mr ** 2) / (2 * lr * lf * r)
    H_d = (lf * mr + lr * mf) * B / (lf * lr * d - lr * eta
                                     - 2 * (lf * mr + lr * mf) * A)
    return {"A": A, "B": B, "C": C, "Delta^GC": delta,
            "H_d printed formula": H_d}


@_ieee
def corrected_centralized(params: ModelParams) -> dict:
    """The centralized closed forms with the three transcription slips undone.

    Restorations relative to the verbatim print: the A numerator gains the
    dropped lambda_r factor and the rho sign flips positive (making it the
    stable branch of the quadratic the derivation sets up), the discriminant
    is the actual discriminant of that quadratic, and B's denominator uses
    rho + delta. The C expression is correct as printed and kept as is.
    """
    lf, lr, mf, mr, d, r, eta, k1, k2, pf, pr, pc, _ = _symbols(params)

    delta = lr * (lr * ((2 * d + r) * lf - 2 * mf * eta) ** 2
                  - 4 * eta ** 2 * (lr * mf ** 2 + lf * mr ** 2))
    A = ((2 * d + r) * lf * lr - 2 * lr * mf * eta - np.sqrt(delta)) \
        / (4 * (lr * mf ** 2 + lf * mr ** 2))
    B = lf * lr * ((pc + pf) * k1 + pr * k2) \
        / (lf * lr * (r + d) - eta * lr * mf
           - 2 * A * (lr * mf ** 2 + lf * mr ** 2))
    C = B ** 2 * (lr * mf ** 2 + lf * mr ** 2) / (2 * lr * lf * r)
    return {"A": A, "B": B, "C": C, "Delta^GC": delta}


# ---------------------------------------------------------------------------
# paper-closed-form backend
# ---------------------------------------------------------------------------

def _relative_gap(printed: float, reference: float) -> float:
    if not (np.isfinite(printed) and np.isfinite(reference)):
        return float("nan")
    return abs(printed - reference) / (1.0 + abs(reference))


# as in the residual backend's stages, overflow leaves inf or nan without a
# warning: the flags and the residual scan report it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_printed(mode: GameMode, params: ModelParams, cfg, anchor) -> GameSolution:
    """Assemble a comparison solution from the published closed forms.

    The returned solution is a measurement instrument, not an equilibrium
    claim: stationarity-equation residuals are recorded but not enforced,
    instability is flagged instead of raised, and the full printed-versus-
    residual comparison lives in diagnostics.printed_comparison. Policies,
    alpha, beta and H_d come from the solver's own assembly.

    anchor is the residual backend's entry for params, as solver.solve_many
    gives it under cfg: a solution, or the error that is raised here where
    the anchor is read (in gd after the printed Delta^GD check, in gs at
    once, in gc only where a printed value falls back to it).
    """
    validate_params(params)
    printed = {GameMode.DECENTRALIZED: _printed_gd,
               GameMode.STACKELBERG: _printed_gs,
               GameMode.CENTRALIZED: _printed_gc}[mode]
    values, convention, diag = printed(params, cfg, anchor)
    # a printed value that is not finite falls back to the anchor's
    names = solver._UNKNOWNS[mode]
    fallbacks = [k for k in names if not np.isfinite(values[k])]
    if fallbacks:
        anchor = _anchor_coefficients(anchor)
        diag.flags.append("printed value not finite; anchor values retained for "
                          + ", ".join(fallbacks))
    coeffs = [anchor[k] if k in fallbacks else values[k] for k in names]
    sol = solver._assemble(params, mode, convention, coeffs, diag)
    diag.max_hjb_residual = solver.residual_scan(sol, params)
    if not sol.alpha < 0.0:
        diag.flags.append(f"alpha = {sol.alpha:.6g} >= 0 (no attracting steady state)")
    if sol.H_d < 0.0:
        diag.flags.append(f"H_d = {sol.H_d:.6g} < 0")
    return sol


def _anchor_coefficients(anchor) -> dict:
    """The anchor solution's coefficients; an anchor that is an error is
    raised."""
    if isinstance(anchor, Exception):
        raise anchor
    return anchor.coefficients


def _base_diag(convention, comparison: dict, root_branch: str) -> SolutionDiagnostics:
    discs = {k: float(v) for k, v in comparison.items()
             if isinstance(v, float) and k.startswith("Delta")}
    return SolutionDiagnostics(
        backend="paper-closed-form", convention=convention,
        root_branch=root_branch, discriminants=discs,
        printed_comparison=comparison)


def _printed_gd(params, cfg, anchor):
    printed = printed_decentralized(params)
    if printed["Delta^GD"] < 0.0:
        raise solver.ComplexRootError("Delta^GD", printed["Delta^GD"])
    reference = _anchor_coefficients(anchor)
    comparison = dict(printed)
    comparison["residual backend"] = reference
    comparison["relative gaps"] = {k: _relative_gap(printed[k], v)
                                   for k, v in reference.items()}
    diag = _base_diag(None, comparison, "printed negative square-root branch")
    return printed, None, diag


def _printed_gs(params, cfg, anchor):
    anchor = _anchor_coefficients(anchor)
    printed = printed_stackelberg(params, anchor)
    comparison = dict(printed)
    comparison["relative gaps"] = {
        k: _relative_gap(printed[k], anchor[k]) for k in anchor}
    comparison["assembled from"] = {
        k: "printed" if np.isfinite(printed[k]) else "anchor (printed not real)"
        for k in anchor}
    diag = _base_diag(cfg.follower_convention, comparison,
                      "printed negative square-root branch")
    # the printed follower rule, whatever convention the anchor was solved in
    return printed, solver.CONVENTION_PRINTED, diag


def _printed_gc(params, cfg, anchor):
    corrected = corrected_centralized(params)
    if corrected["Delta^GC"] < 0.0:
        raise solver.ComplexRootError("Delta^GC", corrected["Delta^GC"])
    printed = printed_centralized(params)
    comparison = {"corrected": corrected, "verbatim": printed,
                  "Delta^GC": corrected["Delta^GC"],
                  "Delta^GC verbatim": printed["Delta^GC"],
                  "relative gaps (verbatim vs corrected)": {
                      k: _relative_gap(printed[k], corrected[k])
                      for k in ("A", "B", "C")},
                  "note": "strategies follow the derivation (carbon-sink term "
                          "on the farmer); the main-text strategy line attaches "
                          "it to the retailer with the demand multiplier, which "
                          "contradicts the first-order condition"}
    diag = _base_diag(None, comparison,
                      "corrected negative square-root branch (verbatim "
                      "discriminant reported alongside)")
    return corrected, None, diag

"""Domain types, parameter validation, and instantaneous model primitives.

The state variable H is the carbon-emission-reduction level of the supply
chain. The farmer exerts reduction-and-sequestration effort E_f, the retailer
exerts low-carbon promotion effort E_r, and both supply and demand scale
linearly in H. The farmer additionally sells the carbon sink (1 + omega*E_f)*Q
at unit price p_c. All quantities are plain real numbers in the model's
implied unit system; units are left abstract on purpose.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "GameMode",
    "VALUE_LAYOUT",
    "ModelParams",
    "DerivedConstants",
    "QuadraticValue",
    "FeedbackPolicy",
    "SolutionDiagnostics",
    "GameSolution",
    "Trajectory",
    "ParameterError",
    "validate_params",
    "derive_constants",
    "supply",
    "demand",
    "carbon_sink",
    "reduction_drift",
    "effort_costs",
]


class ParameterError(ValueError):
    """Raised when a parameter set violates its sign or range constraints."""


class GameMode(enum.Enum):
    """Cooperation mode of the two players."""

    DECENTRALIZED = "gd"
    STACKELBERG = "gs"
    CENTRALIZED = "gc"

    @classmethod
    def from_string(cls, text) -> "GameMode":
        """A GameMode unchanged; anything else read as str(text), a mode's
        value or name in any case."""
        if isinstance(text, cls):
            return text
        text = str(text).strip().lower()
        for mode in cls:
            if text in (mode.value, mode.name.lower()):
                return mode
        raise ValueError(f"unknown game mode {text!r}; expected one of "
                         f"{[m.value for m in cls]}")


# Each mode's roles that hold a value V = A*H^2 + B*H + C, and the name each
# role's (A, B, C) takes in the mode's coefficient vector, in vector order;
# None marks a coefficient fixed at 0 (the decentralized retailer's value is
# linear, M*H + N).
VALUE_LAYOUT = {
    GameMode.DECENTRALIZED: {"farmer": ("A", "B", "C"), "retailer": (None, "M", "N")},
    GameMode.STACKELBERG: {"farmer": ("A", "B", "C"), "retailer": ("M", "N", "F")},
    GameMode.CENTRALIZED: {"joint": ("A", "B", "C")},
}


@dataclass(frozen=True)
class ModelParams:
    """Exogenous model parameters.

    Defaults are the baseline set used throughout the numerical experiments.

    Attributes
    ----------
    lambda_f, lambda_r : effort-cost coefficients (money per squared effort).
    mu_f, mu_r : effort-to-reduction-level impact coefficients.
    omega : effort-to-carbon-sink impact coefficient.
    p_f, p_r : marginal profits per product unit for farmer and retailer.
    p : product unit price.
    p_c : carbon-sink unit price (0 disables sink trading).
    a, b : price sensitivities of supply and demand.
    delta : reduction-level decay rate.
    rho : profit discount rate.
    theta : consumer low-carbon preference.
    Q0, D0 : base supply and demand.
    H0 : initial carbon-emission-reduction level.
    """

    lambda_f: float = 500.0
    lambda_r: float = 200.0
    mu_f: float = 1.5
    mu_r: float = 0.5
    omega: float = 0.4
    p_f: float = 5.0
    p_r: float = 10.0
    p: float = 25.0
    p_c: float = 0.5
    a: float = 3.0
    b: float = 2.0
    delta: float = 1.0
    rho: float = 0.7
    theta: float = 0.8
    Q0: float = 300.0
    D0: float = 250.0
    H0: float = 0.1

    def __post_init__(self):
        # a numpy scalar is read as the Python number it holds, so parameter
        # arithmetic never wraps at a fixed integer width
        for name, value in vars(self).items():
            if type(value) is not float and isinstance(value, (np.integer, np.floating)):
                object.__setattr__(self, name, float(value) if isinstance(
                    value, np.floating) else int(value))

    def replace(self, **overrides) -> "ModelParams":
        return dataclasses.replace(self, **overrides)

    def without_sink_trading(self) -> "ModelParams":
        """The same scenario with carbon-sink trading disabled (p_c = 0)."""
        return self.replace(p_c=0.0)

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclasses.fields(cls))


_POSITIVE = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "delta", "rho",
             "theta", "a", "b")
_NONNEGATIVE = ("p_f", "p_r", "p", "p_c", "Q0", "D0", "H0")


def validate_params(raw: ModelParams) -> ModelParams:
    """Return ``raw`` unchanged iff every parameter constraint holds.

    A parameter is a Python int or float within float64's finite range,
    which is how ModelParams stores numpy integer and floating scalars; a
    bool is not a number here.

    Raises
    ------
    ParameterError
        Listing every violated constraint by field name. A negative demand
        multiplier (D0 - b*p < 0) is reported as its own violation.
    """
    problems = []
    for names, strict in ((_POSITIVE, True), (_NONNEGATIVE, False)):
        for name in names:
            value = getattr(raw, name)
            # compared, not math.isfinite: that overflows on a huge int
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                problems.append(f"{name} must be a finite number, got {value!r}")
            elif value <= 0 if strict else value < 0:
                problems.append(f"{name} {'>' if strict else '>='} 0 violated (got {value})")
    if not problems and raw.D0 - raw.b * raw.p < 0:
        problems.append(
            f"D0 - b*p = {raw.D0 - raw.b * raw.p} < 0 (negative demand multiplier, k2 < 0)")
    if problems:
        raise ParameterError("; ".join(problems))
    return raw


# per field, as a column: whether it must be positive, else nonnegative; and
# the rows of D0, b and p
_STRICT = np.isin(ModelParams.field_names(), _POSITIVE)[:, None]
_DEMAND_ROWS = [ModelParams.field_names().index(name) for name in ("D0", "b", "p")]


def _valid_columns(fields: np.ndarray) -> np.ndarray:
    """validate_params on cells stacked as floats, (fields, n) in field
    order: whether each cell passes; nan fails."""
    D0, b, p = fields[_DEMAND_ROWS]
    return (((np.abs(fields) <= sys.float_info.max)
             & ((fields > 0) | ~_STRICT & (fields == 0))).all(axis=0) & ~(D0 - b * p < 0))


@dataclass(frozen=True)
class DerivedConstants:
    """Composite constants of the linear supply/demand/sink structure.

    k1 = (Q0 + a*p)*theta, k2 = (D0 - b*p)*theta, eta = p_c*omega*k1.
    omega is carried along so the sink primitive works from these constants
    alone (eta does not determine it once p_c = 0).
    """

    k1: float
    k2: float
    eta: float
    omega: float


def derive_constants(params: ModelParams) -> DerivedConstants:
    k1 = (params.Q0 + params.a * params.p) * params.theta
    k2 = (params.D0 - params.b * params.p) * params.theta
    return DerivedConstants(k1=k1, k2=k2, eta=params.p_c * params.omega * k1,
                            omega=params.omega)


def supply(H, c: DerivedConstants):
    """Product quantity supplied at reduction level H: k1*H."""
    return c.k1 * H


def demand(H, c: DerivedConstants):
    """Product quantity demanded at reduction level H: k2*H."""
    return c.k2 * H


def carbon_sink(H, E_f, c: DerivedConstants):
    """Total carbon sink (1 + omega*E_f)*Q given unit base sink per product."""
    return (1.0 + c.omega * E_f) * c.k1 * H


def reduction_drift(H, E_f, E_r, params: ModelParams):
    """Rate of change of the reduction level: mu_f*E_f + mu_r*E_r - delta*H."""
    return params.mu_f * E_f + params.mu_r * E_r - params.delta * H


def effort_costs(E_f, E_r, params: ModelParams):
    """Quadratic effort cost rates (farmer, retailer)."""
    return 0.5 * params.lambda_f * E_f ** 2, 0.5 * params.lambda_r * E_r ** 2


def _subsidy_ratio(subsidy, H):
    """x_f = (n1*H + n0)/(d1*H + d0) of a subsidy rule ((n1, n0), (d1, d0)),
    the one formula of FeedbackPolicy.subsidy and the solver's scan and
    flags; inf where the denominator vanishes, nan where the rule is 0/0."""
    (n1, n0), (d1, d0) = subsidy
    with np.errstate(divide="ignore", invalid="ignore"):
        return (n1 * H + n0) / (d1 * H + d0)


@dataclass(frozen=True)
class QuadraticValue:
    """Value function V(H) = A*H^2 + B*H + C for one role.

    A linear value keeps A = 0; VALUE_LAYOUT names the coefficients each
    mode solves for (the decentralized retailer's B and C are its M and N).
    """

    A: float
    B: float
    C: float

    def value(self, H):
        return (self.A * H + self.B) * H + self.C


@dataclass(frozen=True)
class FeedbackPolicy:
    """Affine effort rule E(H) = g1*H + g0.

    Stackelberg solutions additionally carry the rational subsidy rule
    x_f(H) = (n1*H + n0)/(d1*H + d0) on the leader's policy.
    """

    g1: float
    g0: float
    n1: Optional[float] = None
    n0: Optional[float] = None
    d1: Optional[float] = None
    d0: Optional[float] = None

    @property
    def has_subsidy(self) -> bool:
        return self.d1 is not None

    def effort(self, H):
        return self.g1 * H + self.g0

    def subsidy(self, H):
        """Evaluate x_f(H); nan where the rule is 0/0 undefined."""
        if not self.has_subsidy:
            raise ValueError("policy has no subsidy rule")
        out = _subsidy_ratio(((self.n1, self.n0), (self.d1, self.d0)),
                             np.asarray(H, dtype=float))
        return out if out.ndim else float(out)


@dataclass
class SolutionDiagnostics:
    """Solver-side evidence attached to a solution."""

    backend: str
    convention: Optional[str] = None
    root_branch: str = ""
    discriminants: dict = field(default_factory=dict)
    max_hjb_residual: Optional[float] = None
    candidates: list = field(default_factory=list)
    ambiguous_stable_roots: bool = False
    flags: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    printed_comparison: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GameSolution:
    """Equilibrium of one cooperation mode.

    values and policies are keyed by role: "farmer"/"retailer" in the
    decentralized and Stackelberg modes, "joint" for the centralized value
    (policies stay per role in every mode). alpha and beta define the
    closed-loop drift alpha*H + beta, with steady state H_d = -beta/alpha.
    """

    mode: GameMode
    params: ModelParams
    values: dict
    policies: dict
    alpha: float
    beta: float
    H_d: float
    diagnostics: SolutionDiagnostics

    @property
    def roles(self) -> tuple:
        return tuple(self.values.keys())

    @property
    def coefficients(self) -> dict:
        """The coefficient vector by name, in the order VALUE_LAYOUT gives."""
        return {name: getattr(self.values[role], field)
                for role, names in VALUE_LAYOUT[self.mode].items()
                for name, field in zip(names, "ABC") if name is not None}

    def subsidy(self, H):
        """x_f(H) in the Stackelberg mode, 0 elsewhere."""
        if self.mode is GameMode.STACKELBERG:
            return self.policies["retailer"].subsidy(H)
        return np.zeros_like(np.asarray(H, dtype=float)) if np.ndim(H) else 0.0

    def closed_loop_drift(self, H):
        return self.alpha * H + self.beta


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop time series.

    x_f is nan outside the Stackelberg mode. flag marks samples where a
    nonnegativity condition (H, E_f or E_r below zero) fired; raw values are
    stored unclamped.
    """

    mode: GameMode
    integrator: str
    t: np.ndarray
    H: np.ndarray
    E_f: np.ndarray
    E_r: np.ndarray
    x_f: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    F: np.ndarray
    payoff_f: np.ndarray
    payoff_r: np.ndarray
    disc_cum_f: np.ndarray
    disc_cum_r: np.ndarray
    flag: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

"""In-memory span tracing around the library's public functions.

The library is not instrumented. Instead, while a ``Tracer`` is installed,
the module attributes that each carbongame module looks up at call time are
replaced by wrappers that record one span per call: name, start, end, parent
span and a few attributes read from the arguments or the result. Uninstalling
restores the original functions, so untraced runs execute the library as is.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from carbongame import experiments, oracle, profits, solver
from carbongame.model import ParameterError
from carbongame.solver import ComplexRootError, SolverError, UnstableModelError

# (module, attribute, span name, layer). The span name is the attribute as the
# calling module sees it: experiments.solve is the solver reached from the
# runners, solver.residual_scan the scan that solve() itself runs.
WRAPPED = (
    (experiments, "run_sweep", "experiments.run_sweep", "experiments"),
    (experiments, "run_compare", "experiments.run_compare", "experiments"),
    (experiments, "run_verify", "experiments.run_verify", "experiments"),
    (experiments, "emit_results", "experiments.emit_results", "experiments"),
    (experiments, "solve", "experiments.solve", "solver"),
    (experiments, "residual_scan", "experiments.residual_scan", "solver"),
    (solver, "residual_scan", "solver.residual_scan", "solver"),
    (experiments, "simulate", "experiments.simulate", "simulate"),
    (experiments, "trajectory_table", "experiments.trajectory_table", "simulate"),
    (profits, "discounted_profit", "profits.discounted_profit", "profits"),
    (oracle, "grid_best_response", "oracle.grid_best_response", "oracle"),
    (oracle, "leader_improvement_sample", "oracle.leader_improvement_sample",
     "oracle"),
)
LAYER = {name: layer for _, _, name, layer in WRAPPED}
RUNTIME_LAYERS = ("solver", "simulate", "profits", "oracle", "experiments")
OUTCOMES = ("ok", "complex_root", "unstable", "balance_gate", "hjb_gate",
            "parameter", "other")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def classify(exc: Optional[BaseException]) -> str:
    """Outcome class of one solve call, by exception type; the two gates of
    the plain SolverError are told apart by their message prefix."""
    if exc is None:
        return "ok"
    if isinstance(exc, ComplexRootError):
        return "complex_root"
    if isinstance(exc, UnstableModelError):
        return "unstable"
    if isinstance(exc, ParameterError):
        return "parameter"
    if isinstance(exc, SolverError):
        text = str(exc)
        if text.startswith("collected balance"):
            return "balance_gate"
        if text.startswith("stationarity-equation residual scan"):
            return "hjb_gate"
    return "other"


def _attrs(name: str, args, result, exc) -> dict:
    if name == "experiments.solve":
        attrs = {"mode": getattr(args[0], "value", str(args[0])),
                 "outcome": classify(exc)}
        if result is not None:
            attrs["candidates"] = len(result.diagnostics.candidates)
        return attrs
    if name == "experiments.simulate":
        return {"integrator": args[1].integrator}
    if name == "experiments.trajectory_table" and result is not None:
        return {"rows": len(args[0])}
    if name == "oracle.grid_best_response":
        mode = args[1]
        attrs = {"mode": getattr(mode, "value", str(mode))}
        if result is not None:
            attrs["sweeps"] = result.sweeps
        return attrs
    if name == "experiments.emit_results" and result is not None:
        return {"bytes": sum(os.path.getsize(p) for p in result)}
    return {}


class Tracer:
    """Collects spans while installed; one caller, so one span stack."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter_ns())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                span.attrs = _attrs(name, args, result, exc)
        return wrapper

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for (mod, attr, name, _), (_, _, fn) in zip(WRAPPED, originals):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac") or name == "trace.overhead":
        return "ratio"
    return "count"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list, traced_s: float) -> dict:
    """Per-layer numbers from one traced phase.

    A span's self time is its duration less that of its direct children; a
    layer's self time is the sum over its spans, so ``<layer>.self_frac`` is
    the share of the traced wall time spent in the layer's own code. ``*.ms``
    and ``*.self_ms`` are per-call medians. Functions the workload never
    calls report 0.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    self_ms = [(s.end - s.start - c) / 1e6 for s, c in zip(spans, child_ns)]
    by_name: dict = {}
    for span, own in zip(spans, self_ms):
        by_name.setdefault(span.name, []).append((span, own))

    def calls(name):
        return by_name.get(name, [])

    def p50(name, where=lambda s: True, own=False):
        return _median([o if own else s.ms for s, o in calls(name) if where(s)])

    wall_ms = traced_s * 1e3
    layer_self = {layer: 0.0 for layer in RUNTIME_LAYERS}
    for span, own in zip(spans, self_ms):
        layer_self[LAYER[span.name]] += own

    def frac(ms):
        return ms / wall_ms if wall_ms > 0 else 0.0

    solves = calls("experiments.solve")
    out = {}
    for mode in ("gd", "gs", "gc"):
        out[f"solver.solve.{mode}.p50_ms"] = p50(
            "experiments.solve", lambda s, m=mode: s.attrs["mode"] == m)
    out["solver.solve.calls"] = len(solves)
    out["solver.solve.self_frac"] = frac(layer_self["solver"])
    scans = calls("solver.residual_scan") + calls("experiments.residual_scan")
    out["solver.residual_scan.calls"] = len(scans)
    out["solver.residual_scan.self_ms"] = _median([o for _, o in scans])
    gs_ok = [s.attrs["candidates"] for s, _ in solves
             if s.attrs["mode"] == "gs" and "candidates" in s.attrs]
    out["solver.candidates_per_solve.gs"] = (sum(gs_ok) / len(gs_ok)
                                             if gs_ok else 0.0)
    for outcome in OUTCOMES:
        out[f"solver.outcome.{outcome}"] = sum(
            1 for s, _ in solves if s.attrs["outcome"] == outcome)
    for label, integrator in (("exact", "exact"),
                              ("rk4", "fourth-order-fixed-step")):
        out[f"simulate.{label}.p50_ms"] = p50(
            "experiments.simulate",
            lambda s, i=integrator: s.attrs["integrator"] == i)
    out["simulate.trajectory_table.p50_ms"] = p50("experiments.trajectory_table")
    out["simulate.trajectory_table.rows"] = _median(
        [s.attrs["rows"] for s, _ in calls("experiments.trajectory_table")
         if "rows" in s.attrs])
    out["simulate.self_frac"] = frac(layer_self["simulate"])
    out["profits.discounted_profit.calls"] = len(calls("profits.discounted_profit"))
    out["profits.discounted_profit.self_ms"] = p50("profits.discounted_profit",
                                                   own=True)
    out["profits.self_frac"] = frac(layer_self["profits"])
    for mode in ("gd", "gs", "gc"):
        def is_mode(s, m=mode):
            return s.attrs["mode"] == m
        out[f"oracle.grid_best_response.{mode}.ms"] = p50(
            "oracle.grid_best_response", is_mode)
        out[f"oracle.grid_best_response.{mode}.sweeps"] = _median(
            [s.attrs["sweeps"] for s, _ in calls("oracle.grid_best_response")
             if is_mode(s) and "sweeps" in s.attrs])
    out["oracle.leader_improvement_sample.ms"] = p50(
        "oracle.leader_improvement_sample")
    out["oracle.self_frac"] = frac(layer_self["oracle"])
    for runner in ("sweep", "compare", "verify"):
        out[f"experiments.run_{runner}.self_ms"] = p50(
            f"experiments.run_{runner}", own=True)
    out["experiments.emit_results.ms"] = p50("experiments.emit_results")
    out["experiments.emit_results.bytes"] = _median(
        [s.attrs["bytes"] for s, _ in calls("experiments.emit_results")
         if "bytes" in s.attrs])
    out["experiments.emit_results.self_frac"] = frac(
        sum(o for _, o in calls("experiments.emit_results")))
    out["experiments.self_frac"] = frac(layer_self["experiments"])
    return out

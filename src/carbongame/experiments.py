"""Experiment runners: scenario configuration, mode comparisons, parameter
sweeps, verification reports, and file output.

All tables are plain delimited text built from shortest round-trip float
formatting, so identical configurations produce byte-identical tables. The
run report is a JSON document carrying solver diagnostics, library versions,
a config echo, and the only timestamp in any artifact.

run_compare solves every cell in the calling process, then simulates and
tabulates the solved cells, which is most of its time, one cell per task in
a pool of forked worker processes: as many as the CPUs this process may use,
at most one per cell. A fork inherits the imported modules and the formatted
time column; a spawned worker would import numpy and the package again,
which costs more than it saves. There is no setting for the pool. On one
CPU, on a platform without fork, or while other threads run, the same
per-cell function runs in the calling process. Either way the tables, the
summary and the report are the same.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import platform
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, oracle, profits
from .model import (
    GameMode,
    GameSolution,
    ModelParams,
    ParameterError,
    validate_params,
)
from .simulate import (
    SimConfig,
    SimulationError,
    _formatted_column,
    simulate,
    trajectory_table,
)
from . import solver
from .solver import SolverConfig, SolverError, residual_scan, solve, solve_many

__all__ = [
    "ConfigError",
    "SweepSpec",
    "ScenarioConfig",
    "RESPONSES",
    "SUMMARY_COLUMNS",
    "load_config",
    "run_compare",
    "run_sweep",
    "run_verify",
    "emit_results",
]

RESPONSES = (
    "H_d",
    "E_f_at_H_d",
    "E_r_at_H_d",
    "farmer_value_at_H_d",
    "retailer_value_at_H_d",
    "total_value_at_H_d",
)

SUMMARY_COLUMNS = (
    "mode", "sink_trading", "A", "B", "C", "M", "N", "F", "alpha", "H_d",
    "E_f_ss", "E_r_ss", "x_f_ss", "value_f_H0", "value_r_H0",
    "value_total_H0", "value_f_ss", "value_r_ss", "value_total_ss",
    "max_hjb_residual", "status",
)

VERIFY_VALUE_TOL = 1e-3

ALL_MODES = (GameMode.DECENTRALIZED, GameMode.STACKELBERG,
             GameMode.CENTRALIZED)


class ConfigError(ValueError):
    """Raised when a configuration document cannot be parsed or validated."""


def _require_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name} must be a number, got {value!r}")
    return float(value)


def _parse_modes(raw, where: str) -> tuple:
    if isinstance(raw, str):
        raw = ALL_MODES if raw.strip().lower() == "all" else [raw]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{where} must be 'all', a mode name, or a non-empty "
                          f"list of mode names, got {raw!r}")
    modes = []
    for item in raw:
        if isinstance(item, GameMode):
            modes.append(item)
            continue
        try:
            modes.append(GameMode.from_string(str(item)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(modes)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sensitivity study.

    parameter names any exogenous model field; values is the evaluation
    grid; responses picks steady-state quantities to tabulate; modes of
    None inherits the scenario's mode selection.
    """

    parameter: str
    values: tuple
    responses: tuple = RESPONSES
    modes: Optional[tuple] = None

    def __post_init__(self):
        if self.parameter not in ModelParams.field_names():
            raise ConfigError(
                f"sweep parameter {self.parameter!r} is not a model parameter; "
                f"expected one of {', '.join(ModelParams.field_names())}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigError("sweep values must be a non-empty list")
        for v in values:
            if not np.isfinite(v):
                raise ConfigError(f"sweep value {v!r} is not finite")
        object.__setattr__(self, "values", values)
        responses = tuple(self.responses)
        for r in responses:
            if r not in RESPONSES:
                raise ConfigError(f"unknown sweep response {r!r}; expected a "
                                  f"subset of {', '.join(RESPONSES)}")
        if not responses:
            raise ConfigError("sweep responses must be non-empty")
        object.__setattr__(self, "responses", responses)
        if self.modes is not None:
            object.__setattr__(self, "modes",
                               _parse_modes(self.modes, "sweep modes"))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario: parameters, mode selection, and settings."""

    params: ModelParams = ModelParams()
    modes: tuple = ALL_MODES
    sink_trading: bool = True
    sim: SimConfig = SimConfig()
    solver: SolverConfig = SolverConfig()
    sweep: Optional[SweepSpec] = None
    out: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "modes", _parse_modes(self.modes, "modes"))

    @property
    def effective_params(self) -> ModelParams:
        """Scenario parameters with the sink-trading toggle applied."""
        if self.sink_trading:
            return self.params
        return self.params.without_sink_trading()

    def replace(self, **overrides) -> "ScenarioConfig":
        return dataclasses.replace(self, **overrides)


def _parse_sweep_section(section) -> SweepSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"sweep section must be an object, got {section!r}")
    known = {"parameter", "values", "min", "max", "count", "responses",
             "modes"}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown sweep key {key!r}; expected a subset "
                              f"of {', '.join(sorted(known))}")
    if "parameter" not in section:
        raise ConfigError("sweep section needs a 'parameter' field")
    if "values" in section:
        if any(k in section for k in ("min", "max", "count")):
            raise ConfigError(
                "sweep takes either 'values' or 'min'/'max'/'count', not both")
        raw = section["values"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"sweep values must be a list, got {raw!r}")
        values = tuple(_require_number("sweep values", v) for v in raw)
    else:
        missing = [k for k in ("min", "max", "count") if k not in section]
        if missing:
            raise ConfigError(f"sweep range form needs {', '.join(missing)}")
        lo = _require_number("sweep min", section["min"])
        hi = _require_number("sweep max", section["max"])
        count = section["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(
                f"sweep count must be a positive integer, got {count!r}")
        values = tuple(float(v) for v in np.linspace(lo, hi, count))
    kwargs = {"parameter": section["parameter"], "values": values}
    if "responses" in section:
        raw = section["responses"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"sweep responses must be a list, got {raw!r}")
        kwargs["responses"] = tuple(str(r) for r in raw)
    if "modes" in section:
        kwargs["modes"] = _parse_modes(section["modes"], "sweep modes")
    return SweepSpec(**kwargs)


def _parse_section(doc: dict, name: str, cls, field_kinds: dict):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be an object, got {section!r}")
    kwargs = {}
    for key, value in section.items():
        if key not in field_kinds:
            raise ConfigError(f"unknown {name} key {key!r}; expected a subset "
                              f"of {', '.join(sorted(field_kinds))}")
        kind = field_kinds[key]
        if kind is float:
            kwargs[key] = _require_number(f"{name}.{key}", value)
        else:
            if not isinstance(value, str):
                raise ConfigError(
                    f"config field {name}.{key} must be a string, got {value!r}")
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name} section: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse a JSON scenario document; absent fields take baseline defaults.

    The document is flat model-parameter keys plus optional "modes",
    "sink_trading", "out" entries and "sim"/"solver"/"sweep"
    sections. Unknown or ill-typed fields raise ConfigError naming the field.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object, got "
                          f"{type(doc).__name__}")
    param_names = set(ModelParams.field_names())
    known_top = param_names | {"modes", "sink_trading", "out", "sim",
                               "solver", "sweep"}
    for key in doc:
        if key not in known_top:
            raise ConfigError(f"unknown config key {key!r}")
    overrides = {name: _require_number(name, doc[name])
                 for name in param_names if name in doc}
    try:
        params = validate_params(ModelParams(**overrides))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    kwargs = {"params": params}
    if "modes" in doc:
        kwargs["modes"] = _parse_modes(doc["modes"], "modes")
    if "sink_trading" in doc:
        if not isinstance(doc["sink_trading"], bool):
            raise ConfigError(f"config field sink_trading must be a boolean, "
                              f"got {doc['sink_trading']!r}")
        kwargs["sink_trading"] = doc["sink_trading"]
    if "out" in doc:
        if not isinstance(doc["out"], str):
            raise ConfigError(f"config field out must be a string, "
                              f"got {doc['out']!r}")
        kwargs["out"] = doc["out"]
    kwargs["sim"] = _parse_section(
        doc, "sim", SimConfig,
        {"T": float, "h": float, "integrator": str})
    kwargs["solver"] = _parse_section(
        doc, "solver", SolverConfig,
        {"backend": str, "tolerance": float, "hjb_tolerance": float,
         "follower_convention": str})
    if "sweep" in doc:
        kwargs["sweep"] = _parse_sweep_section(doc["sweep"])
    return ScenarioConfig(**kwargs)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_table(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _versions() -> dict:
    return {
        "carbongame": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, GameMode):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _report(command: str, config: ScenarioConfig, **body) -> dict:
    """A run report: the command, the run's one timestamp, the library
    versions and the config echo, then the command's own entries."""
    return {"command": command, "timestamp": _timestamp(),
            "versions": _versions(), "config": _config_echo(config), **body}


def _config_echo(config: ScenarioConfig) -> dict:
    echo = {
        "params": dataclasses.asdict(config.params),
        "modes": [m.value for m in config.modes],
        "sink_trading": config.sink_trading,
        "sim": dataclasses.asdict(config.sim),
        "solver": dataclasses.asdict(config.solver),
        "sweep": None,
        "out": config.out,
    }
    if config.sweep is not None:
        echo["sweep"] = {
            "parameter": config.sweep.parameter,
            "values": list(config.sweep.values),
            "responses": list(config.sweep.responses),
            "modes": None if config.sweep.modes is None
            else [m.value for m in config.sweep.modes],
        }
    return echo


def _solution_metrics(solution: GameSolution) -> dict:
    """Steady-state response quantities shared by compare and sweep rows."""
    H_d = solution.H_d
    metrics = {
        "H_d": H_d,
        "E_f_at_H_d": float(solution.policies["farmer"].effort(H_d)),
        "E_r_at_H_d": float(solution.policies["retailer"].effort(H_d)),
        "total_value_at_H_d": float(profits.total_value_at(solution, H_d)),
    }
    if solution.mode is GameMode.CENTRALIZED:
        metrics["farmer_value_at_H_d"] = None
        metrics["retailer_value_at_H_d"] = None
    else:
        metrics["farmer_value_at_H_d"] = float(
            solution.values["farmer"].value(H_d))
        metrics["retailer_value_at_H_d"] = float(
            solution.values["retailer"].value(H_d))
    return metrics


def _coefficients(solution: GameSolution) -> dict:
    """Every coefficient name, None where the solution's mode has none."""
    return {**dict.fromkeys(solver._UNKNOWNS[GameMode.STACKELBERG][0]),
            **dict(zip(solver._UNKNOWNS[solution.mode][0],
                       solver._coefficients(solution)))}


def _summary_row(mode: GameMode, sink: str, params: ModelParams,
                 solution: Optional[GameSolution], error: Optional[str]):
    if solution is None:
        cells = {name: None for name in SUMMARY_COLUMNS}
        status = f"error: {error}"
    else:
        coef = _coefficients(solution)
        metrics = _solution_metrics(solution)
        H0 = params.H0
        is_gc = solution.mode is GameMode.CENTRALIZED
        x_ss = (float(solution.subsidy(solution.H_d))
                if solution.mode is GameMode.STACKELBERG else None)
        cells = {
            **coef,
            "alpha": solution.alpha,
            "H_d": metrics["H_d"],
            "E_f_ss": metrics["E_f_at_H_d"],
            "E_r_ss": metrics["E_r_at_H_d"],
            "x_f_ss": x_ss,
            "value_f_H0": None if is_gc
            else float(solution.values["farmer"].value(H0)),
            "value_r_H0": None if is_gc
            else float(solution.values["retailer"].value(H0)),
            "value_total_H0": float(profits.total_value_at(solution, H0)),
            "value_f_ss": metrics["farmer_value_at_H_d"],
            "value_r_ss": metrics["retailer_value_at_H_d"],
            "value_total_ss": metrics["total_value_at_H_d"],
            "max_hjb_residual": solution.diagnostics.max_hjb_residual,
        }
        status = "ok"
    row = [mode.value, sink]
    row += [_fmt(cells[name]) for name in SUMMARY_COLUMNS[2:-1]]
    row.append(status)
    return row


def _cell_table(solution: GameSolution, sim: SimConfig, params: ModelParams):
    """One compare cell's trajectory table, or the SimulationError or
    ValueError that stopped it, returned as solve_many returns a cell's
    error. Runs in a worker process when run_compare has a pool."""
    try:
        return trajectory_table(simulate(solution, sim, params))
    except (SimulationError, ValueError) as exc:
        return exc


def _table_pool(jobs: int):
    """A pool of min(usable CPUs, jobs) forked worker processes, or
    nullcontext() where that is one process, where the platform cannot fork,
    or where other threads run, which a forked child would not have."""
    workers = min(oracle._usable_cpus(), jobs)
    if workers < 2 or threading.active_count() > 1:
        return nullcontext()
    # imported here: together about 17 ms that no other command needs
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return nullcontext()
    from concurrent.futures.process import ProcessPoolExecutor
    return ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))


def run_compare(config: ScenarioConfig) -> dict:
    """Solve, simulate, and tabulate each selected mode with and without
    sink trading.

    Returns an artifact mapping: one summary table, one trajectory table per
    successful cell, and the run report. Solver and simulation failures are
    recorded in the cell's status and the run continues. Every cell is solved
    here; the solved cells' simulations and tables, most of the run's time,
    are spread over forked worker processes (see _table_pool).
    """
    base = config.effective_params
    tasks = []
    for mode in config.modes:
        if base.p_c > 0:
            tasks.append((mode, "on", base))
            tasks.append((mode, "off", base.without_sink_trading()))
        else:
            tasks.append((mode, "off", base))

    solved = []
    for mode, _, params in tasks:
        try:
            solved.append((solve(mode, params, config.solver), None))
        except (SolverError, ParameterError, ValueError) as exc:
            solved.append((None, str(exc)))
    jobs = [(solution, params) for (solution, _), (_, _, params)
            in zip(solved, tasks) if solution is not None]
    # every table has the same time column: format it before any fork, so
    # each worker finds it in the cache
    _formatted_column(config.sim.times().tobytes())
    with _table_pool(len(jobs)) as pool:
        tables = iter(list((map if pool is None else pool.map)(
            _cell_table, [s for s, _ in jobs], repeat(config.sim),
            [p for _, p in jobs])))

    artifacts = {}
    rows = []
    report_cells = []
    for (mode, sink, params), (solution, error) in zip(tasks, solved):
        if solution is not None:
            table = next(tables)
            if isinstance(table, Exception):
                solution, error = None, str(table)
        rows.append(_summary_row(mode, sink, params, solution, error))
        cell_report = {
            "mode": mode.value,
            "sink_trading": sink,
            "p_c": params.p_c,
            "status": "ok" if solution is not None else f"error: {error}",
        }
        if solution is not None:
            name = f"trajectory_{mode.value}_sink_{sink}.csv"
            artifacts[name] = table
            cell_report["trajectory_file"] = name
            cell_report["diagnostics"] = solution.diagnostics.to_dict()
            cell_report["coefficients"] = _coefficients(solution)
            cell_report["metrics"] = _solution_metrics(solution)
        report_cells.append(cell_report)
    summary = _csv_table(SUMMARY_COLUMNS, rows)
    return {"summary.csv": summary, **artifacts,
            "run_report.json": _report("compare", config, cells=report_cells)}


def _sweep_argmax(rows_meta) -> list:
    """Peak detection per (mode, response) over successful sweep rows."""
    found = []
    by_mode = {}
    for meta in rows_meta:
        by_mode.setdefault(meta["mode"], []).append(meta)
    for mode, entries in by_mode.items():
        responses = entries[0]["metrics"].keys() if entries else ()
        for response in responses:
            points = [(e["value"], e["metrics"][response]) for e in entries
                      if e["metrics"].get(response) is not None]
            if not points:
                continue
            idx = int(np.argmax([q for _, q in points]))
            # interior in parameter value: sweep values need not be sorted
            values = [v for v, _ in points]
            found.append({
                "mode": mode,
                "response": response,
                "argmax_parameter_value": points[idx][0],
                "max_response_value": points[idx][1],
                "interior_peak": bool(min(values) < points[idx][0]
                                      < max(values)),
                "points": len(points),
            })
    return found


def run_sweep(spec: Optional[SweepSpec], config: ScenarioConfig) -> dict:
    """Tabulate steady-state responses along a one-parameter grid.

    Each mode's points are solved in one solve_many batch. Invalid or
    unsolvable points become rows with an error status rather than
    disappearing. The run report carries argmax detection per mode and
    response, flagging whether the peak is interior to the swept range.
    """
    spec = config.sweep if spec is None else spec
    if spec is None:
        raise ConfigError("no sweep specified: pass a SweepSpec or add a "
                          "'sweep' section to the config")
    modes = config.modes if spec.modes is None else spec.modes
    base = config.effective_params
    header = ["mode", "parameter", "value", *spec.responses, "status"]
    rows = []
    rows_meta = []
    for mode in modes:
        cells = [base.replace(**{spec.parameter: value}) for value in spec.values]
        for value, outcome in zip(spec.values,
                                  solve_many(mode, cells, config.solver)):
            if isinstance(outcome, Exception):   # a typed solver error
                metrics, status = {}, f"error: {outcome}"
            else:
                metrics, status = _solution_metrics(outcome), "ok"
            row = [mode.value, spec.parameter, repr(float(value))]
            row += [_fmt(metrics.get(name)) for name in spec.responses]
            row.append(status)
            rows.append(row)
            if status == "ok":
                rows_meta.append({"mode": mode.value, "value": value,
                                  "metrics": {name: metrics.get(name)
                                              for name in spec.responses}})
    report = _report(
        "sweep", config,
        sweep={
            "parameter": spec.parameter,
            "values": list(spec.values),
            "responses": list(spec.responses),
            "modes": [m.value for m in modes],
        },
        argmax=_sweep_argmax(rows_meta),
        failed_rows=sum(1 for row in rows if row[-1] != "ok"))
    return {"sweep.csv": _csv_table(header, rows), "run_report.json": report}


def run_verify(config: ScenarioConfig) -> dict:
    """Aggregate residual scans, value-consistency deltas, certification
    reports, and steady-state orderings into one pass/fail report."""
    params = config.effective_params
    solutions, checks = {}, []
    for mode in config.modes:
        try:
            solutions[mode] = solve(mode, params, config.solver)
        except (SolverError, ParameterError, ValueError) as exc:
            checks.append({"name": f"solve-{mode.value}", "passed": False,
                           "note": str(exc)})
    for mode, solution in solutions.items():
        scan = residual_scan(solution, params)
        checks.append({
            "name": f"hjb-residual-scan-{mode.value}",
            "passed": bool(scan <= config.solver.hjb_tolerance),
            "metric": float(scan),
            "tolerance": config.solver.hjb_tolerance,
        })
        try:
            trajectory = simulate(solution, config.sim, params)
            for role in solution.roles:
                numeric = profits.discounted_profit(trajectory, role, params)
                analytic = profits.value_at(solution, role, params.H0)
                delta = abs(numeric - analytic) / max(abs(analytic), 1e-9)
                checks.append({
                    "name": f"value-consistency-{mode.value}-{role}",
                    "passed": bool(delta <= VERIFY_VALUE_TOL),
                    "metric": float(delta),
                    "tolerance": VERIFY_VALUE_TOL,
                })
        except (profits.HorizonError, SimulationError, ValueError) as exc:
            checks.append({"name": f"value-consistency-{mode.value}",
                           "passed": False, "note": str(exc)})
        try:
            certification = oracle.equilibrium_check(solution, params)
            checks.append({
                "name": f"equilibrium-certification-{mode.value}",
                "passed": bool(certification.passed),
                "details": certification.to_dict(),
            })
        except (oracle.OracleError, ValueError) as exc:
            checks.append({"name": f"equilibrium-certification-{mode.value}",
                           "passed": False, "note": str(exc)})
        if mode is GameMode.STACKELBERG:
            x_ss = float(solution.subsidy(solution.H_d))
            flags = [f for f in solution.diagnostics.flags
                     if "x_f" in f or "subsidy" in f]
            in_range = 0.0 <= x_ss < 1.0
            checks.append({
                "name": "subsidy-share-range-gs",
                "passed": bool(in_range or flags),
                "metric": x_ss,
                "note": "; ".join(flags) if flags
                else "x_f(H_d) inside [0, 1)",
            })
    ordered = [m for m in ALL_MODES if m in solutions]
    if len(ordered) == 3:
        gd, gs, gc = (solutions[m] for m in ALL_MODES)
        h_ordering = gc.H_d > gs.H_d > gd.H_d
        checks.append({
            "name": "steady-state-ordering",
            "passed": bool(h_ordering),
            "metric": {"gd": float(gd.H_d), "gs": float(gs.H_d),
                       "gc": float(gc.H_d)},
            "note": "H_d must rank gc > gs > gd",
        })
        totals = {m.value: float(profits.total_value_at(solutions[m],
                                                        solutions[m].H_d))
                  for m in ALL_MODES}
        checks.append({
            "name": "joint-value-ordering",
            "passed": bool(totals["gc"] > totals["gs"] > totals["gd"]),
            "metric": totals,
            "note": "total steady-state value must rank gc > gs > gd",
        })
    passed = all(check["passed"] for check in checks)
    return {"run_report.json": _report("verify", config, passed=passed,
                                       checks=checks)}


def emit_results(artifacts: dict, directory) -> list:
    """Write artifacts into directory and return the written file names.

    Text artifacts are written verbatim; mappings/lists are serialized as
    sorted-key JSON. On any failure every file written by this call,
    including the partially written one, is removed before re-raising.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, content in artifacts.items():
            path = directory / name
            if isinstance(content, (dict, list)):
                text = json.dumps(content, indent=2, sort_keys=True,
                                  default=_json_default) + "\n"
            elif isinstance(content, str):
                text = content
            else:
                raise TypeError(
                    f"artifact {name!r} must be text or a JSON-serializable "
                    f"mapping, got {type(content).__name__}")
            written.append(path)  # before the write, so a torn write is removed
            path.write_text(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return [str(path) for path in written]

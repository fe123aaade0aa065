"""Experiment runners: scenario configuration, mode comparisons, parameter
sweeps, verification reports, and file output.

All tables are plain delimited text built from shortest round-trip float
formatting, so identical configurations produce byte-identical tables. The
run report is a JSON document carrying solver diagnostics, library versions,
a config echo, and the only timestamp in any artifact.

run_compare and run_verify follow one rule: a pooled task carries its cell
or mode from its solve to its finished output, and the calling process only
assembles the outputs. A run_compare task is one cell, a mode with or
without sink trading: it solves, simulates and tabulates the cell and
builds its summary row and report entry, and the caller writes the summary,
the trajectory tables in cell order and the report. The tasks run on forked
worker processes: as many as the CPUs this process may use, at most one per
task. The first call that needs them forks them, and they serve every later
run_compare and run_verify call until the process exits, so only callers
making repeated calls gain. A worker sees module state as of its own fork
and keeps its caches, such as the formatted time column, and the memory the
caller held at that fork. A spawned worker would import numpy and the
package again. There is no setting for the workers. On one CPU, on a
platform without fork, while other threads run, or in a worker or a child
forked after them, the same per-task function runs in the calling process,
and the tables, the summary and the report are the same.

run_verify uses the same workers, one task per selected mode, the longest
first (VERIFY_ORDER). A task solves its mode, certifies it with
oracle.equilibrium_check, which runs the mode's grid replies, nearly all of
the run's time, and prices its residual-scan and value-consistency checks.
The calling process only assembles the tasks' checks in the scenario's mode
order, with the subsidy-share check and the orderings, which read the
returned solutions. A single-mode verify is one task, and runs in the
calling process without forking.
"""

from __future__ import annotations

import atexit
import csv
import dataclasses
import io
import json
import os
import platform
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, oracle, profits
from .model import (
    GameMode,
    GameSolution,
    ModelParams,
    ParameterError,
    VALUE_LAYOUT,
    validate_params,
)
from .simulate import (
    SimConfig,
    SimulationError,
    simulate,
    trajectory_table,
)
from .solver import (BACKEND_CLOSED_FORM, SolverConfig, SolverError, _solve_columns,
                     _stack_fields, _values_and_policies, residual_scan, solve,
                     solve_many)

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

# cells per array pass along a sweep line: the pass's transient arrays, not
# the line's length, set a sweep's peak memory
SWEEP_CHUNK = 4096

ALL_MODES = (GameMode.DECENTRALIZED, GameMode.STACKELBERG,
             GameMode.CENTRALIZED)

# run_verify's modes, longest task first. A mode's serial task (solve,
# certification, scan and value checks) takes, median over the 24 scenarios
# of bench verify seeds 1-3 (best of 5 each, the modes interleaved), 10.2 ms
# for gc, 6.9 ms for gd and 7.0 ms for gs (2-vCPU VM, Python 3.11, numpy
# 2.4); gd and gs tie, and on two workers either order ends as soon. Mapped
# in this order, the tasks balance the workers by Graham's
# longest-processing-time rule (SIAM J. Appl. Math. 17(2), 1969).
VERIFY_ORDER = (GameMode.CENTRALIZED, GameMode.DECENTRALIZED,
                GameMode.STACKELBERG)


class ConfigError(ValueError):
    """Raised when a configuration document cannot be parsed or validated."""


def _require_number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float64's range
        raise ConfigError(f"config field {name} must be a finite number, got "
                          f"an integer of {len(str(abs(value)))} digits") from None


def _require_out(value) -> str:
    """An output directory from a config or the --out flag; an empty path
    would resolve to the working directory."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config field out must be a non-empty string, "
                          f"got {value!r}")
    return value


def _parse_modes(raw, where: str) -> tuple:
    if isinstance(raw, str):
        raw = ALL_MODES if raw.strip().lower() == "all" else [raw]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{where} must be 'all', a mode name, or a non-empty "
                          f"list of mode names, got {raw!r}")
    modes = []
    for item in raw:
        try:
            mode = GameMode.from_string(item)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if mode in modes:
            raise ConfigError(f"{where} lists mode {mode.value!r} twice")
        modes.append(mode)
    return tuple(modes)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sensitivity study.

    parameter names any exogenous model field; values is the evaluation
    grid; responses picks steady-state quantities to tabulate, each once;
    modes of None inherits the scenario's mode selection.
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
        try:
            values = tuple(float(v) for v in self.values)
        except OverflowError as exc:
            raise ConfigError(f"sweep values must be finite numbers: {exc}") from None
        if not values:
            raise ConfigError("sweep values must be a non-empty list")
        for v in values:
            if not np.isfinite(v):
                raise ConfigError(f"sweep value {v!r} is not finite")
        object.__setattr__(self, "values", values)
        responses = tuple(self.responses)
        for i, r in enumerate(responses):
            if r not in RESPONSES:
                raise ConfigError(f"unknown sweep response {r!r}; expected a "
                                  f"subset of {', '.join(RESPONSES)}")
            if r in responses[:i]:
                raise ConfigError(f"sweep responses list {r!r} twice")
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
        kwargs["modes"] = section["modes"]
    return SweepSpec(**kwargs)


def _parse_section(doc: dict, name: str, cls):
    """cls built from the doc's name section. Its keys are cls's fields, and
    a field takes a number where its default is a float, else a string."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be an object, got {section!r}")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key not in kinds:
            raise ConfigError(f"unknown {name} key {key!r}; expected a subset "
                              f"of {', '.join(sorted(kinds))}")
        if kinds[key] is float:
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
    except ValueError as exc:  # also an integer past Python's digit limit
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
        kwargs["modes"] = doc["modes"]
    if "sink_trading" in doc:
        if not isinstance(doc["sink_trading"], bool):
            raise ConfigError(f"config field sink_trading must be a boolean, "
                              f"got {doc['sink_trading']!r}")
        kwargs["sink_trading"] = doc["sink_trading"]
    if "out" in doc:
        kwargs["out"] = _require_out(doc["out"])
    kwargs["sim"] = _parse_section(doc, "sim", SimConfig)
    kwargs["solver"] = _parse_section(doc, "solver", SolverConfig)
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
    """The scenario as plain JSON data, every field of ScenarioConfig and its
    parts by name: tuples become lists and modes their values."""
    return json.loads(json.dumps(dataclasses.asdict(config),
                                 default=_json_default))


def _responses(mode: GameMode, values, policies, H) -> tuple:
    """The RESPONSES at states H, in their order, from a mode's (A, B, C) per
    role and its policies in the layout of solver._closed_loop: floats from
    one solution (solver._values_and_policies), or a sweep part's columns.
    A value of a role the mode lacks is None."""
    (f1, f0), (r1, r0), _ = policies
    at = {role: (A * H + B) * H + C
          for role, (A, B, C) in zip(VALUE_LAYOUT[mode], values)}
    return (H, f1 * H + f0, r1 * H + r0, at.get("farmer"), at.get("retailer"),
            profits._chain_total(at))


def _coefficients(solution: GameSolution) -> dict:
    """The summary's coefficient columns, A to F, None where the solution's
    mode has no such coefficient."""
    return {**dict.fromkeys(SUMMARY_COLUMNS[2:8]), **solution.coefficients}


def _compare_cell(task: tuple) -> tuple:
    """One compare cell from its (mode, sink, params, solver config, sim
    config) task: its summary row, its run-report entry and its trajectory
    table, or None where a typed solve or simulation error stopped it, which
    the row and the entry then carry as their status. Runs in a worker
    process when run_compare has a pool."""
    mode, sink, params, solver_config, sim = task
    entry = {"mode": mode.value, "sink_trading": sink, "p_c": params.p_c}
    try:
        solution = solve(mode, params, solver_config)
        table = trajectory_table(simulate(solution, sim, params))
    except (SolverError, ParameterError, SimulationError, ValueError) as exc:
        entry["status"] = f"error: {exc}"
        return [mode.value, sink, *[""] * (len(SUMMARY_COLUMNS) - 3),
                entry["status"]], entry, None
    values, policies = _values_and_policies(solution)
    ss = _responses(mode, values, policies, solution.H_d)
    H0 = _responses(mode, values, policies, params.H0)
    x_ss = (float(solution.subsidy(solution.H_d))
            if mode is GameMode.STACKELBERG else None)
    coefficients = _coefficients(solution)
    # in the order of SUMMARY_COLUMNS
    cells = [*coefficients.values(), solution.alpha, *ss[:3], x_ss, *H0[3:],
             *ss[3:], solution.diagnostics.max_hjb_residual]
    entry.update(status="ok",
                 trajectory_file=f"trajectory_{mode.value}_sink_{sink}.csv",
                 diagnostics=solution.diagnostics.to_dict(),
                 coefficients=coefficients,
                 metrics=dict(zip(RESPONSES, ss)))
    return [mode.value, sink, *map(_fmt, cells), "ok"], entry, table


def _usable_cpus() -> int:
    """The CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# The workers as (pid, task pipe end, result pipe end), kept until exit or a
# failed call, and the pid of the one process that uses them, the one that
# forked them; a worker, or a child forked after them, runs its tasks here.
_workers: list = []
_owner = None


def _fork_worker() -> None:
    """Fork one more worker onto _workers. It answers each (fn, task) it reads
    with (True, fn(task)), or (False, the exception raised), until EOF."""
    import gc
    import signal
    from multiprocessing.connection import Pipe
    (task_r, task_w), (result_r, result_w) = Pipe(False), Pipe(False)
    pid = os.fork()
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller's to take
            # so that no inherited object is collected here and closes a
            # descriptor number that the closerange below frees for reuse
            gc.freeze()
            # only stdio and its own two ends stay open, so it reads EOF once
            # the caller is gone, however that ended; lo + 1 > 0, as
            # os.closerange(0, 0) would close every descriptor
            keep = sorted({0, 1, 2, task_r.fileno(), result_w.fileno()})
            for lo, hi in zip(keep, [*keep[1:], os.sysconf("SC_OPEN_MAX")]):
                os.closerange(lo + 1, hi)
            while True:
                fn, task = task_r.recv()
                try:
                    reply = True, fn(task)
                except Exception as exc:  # raised again in the caller
                    reply = False, exc
                result_w.send(reply)
        except EOFError:
            os._exit(0)
        finally:
            os._exit(1)
    task_r.close()
    result_w.close()
    _workers.append((pid, task_w, result_r))


def _close_workers() -> dict:
    """SIGKILL and reap the workers this process forked, busy or stuck ones
    too; their exit codes by pid, negative for a signal."""
    import signal
    codes = {}
    while _owner == os.getpid() and _workers:
        pid, tasks, results = _workers.pop()
        tasks.close()
        results.close()
        os.kill(pid, signal.SIGKILL)
        codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return codes


def _pool_map(fn, tasks: list) -> list:
    """[fn(task) for task in tasks] in task order, each task sent to the first
    free worker, forked as needed up to min(usable CPUs, len(tasks)); or run
    here where that is one, where os.fork is missing, where other threads run
    (a fork copies none, and the workers serve one caller at a time) or where
    another process forked the workers. Any exception ends the workers before
    it reaches the caller; a worker that dies gives a ChildProcessError."""
    global _owner
    want = min(_usable_cpus(), len(tasks))
    if (want < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or _owner not in (None, os.getpid())):
        return list(map(fn, tasks))
    # imported here: milliseconds that solve and sweep never need
    from multiprocessing.connection import wait
    _owner, replies, busy = os.getpid(), [None] * len(tasks), {}
    pending, free = iter(enumerate(tasks)), _workers
    try:
        while len(_workers) < want:
            _fork_worker()
        try:
            while True:
                # zip draws a task only for a free worker
                for worker, (index, task) in zip(free, pending):
                    worker[1].send((fn, task))
                    busy[worker[2]] = worker, index
                if not busy:
                    break
                free = []
                for end in wait(list(busy)):
                    worker, index = busy.pop(end)
                    replies[index] = end.recv()
                    free.append(worker)
        except (EOFError, OSError):
            code = _close_workers()[worker[0]]
            raise ChildProcessError(f"worker process {worker[0]} ended during "
                                    f"the call with exit status {code}") from None
        for done, value in replies:
            if not done:
                raise value
    except BaseException:
        _close_workers()
        raise
    return [value for _, value in replies]


atexit.register(_close_workers)


def run_compare(config: ScenarioConfig) -> dict:
    """Solve, simulate, and tabulate each selected mode with and without
    sink trading.

    Returns an artifact mapping: one summary table, one trajectory table per
    successful cell, and the run report. Solver and simulation failures are
    recorded in the cell's status and the run continues. Each cell is one
    _compare_cell task, from its solve to its row, report entry and table,
    on forked worker processes (see _pool_map); this process only assembles
    them in cell order.
    """
    base = config.effective_params
    sinks = ((("on", base), ("off", base.without_sink_trading()))
             if base.p_c > 0 else (("off", base),))
    rows, entries, tables = zip(*_pool_map(_compare_cell, [
        (mode, sink, params, config.solver, config.sim)
        for mode in config.modes for sink, params in sinks]))
    artifacts = {entry["trajectory_file"]: table
                 for entry, table in zip(entries, tables) if table is not None}
    return {"summary.csv": _csv_table(SUMMARY_COLUMNS, rows), **artifacts,
            "run_report.json": _report("compare", config, cells=list(entries))}


def _sweep_argmax(mode: GameMode, responses, solved: list) -> list:
    """Peak detection per response over one mode's successful sweep points,
    given as (parameter value, metrics) pairs."""
    found = []
    for response in responses:
        points = [(value, metrics[response]) for value, metrics in solved
                  if metrics[response] is not None]
        if not points:
            continue
        idx = int(np.argmax([q for _, q in points]))
        # interior in parameter value: sweep values need not be sorted
        values = [v for v, _ in points]
        found.append({
            "mode": mode.value,
            "response": response,
            "argmax_parameter_value": points[idx][0],
            "max_response_value": points[idx][1],
            "interior_peak": bool(min(values) < points[idx][0]
                                  < max(values)),
            "points": len(points),
        })
    return found


# as Python floats do, overflow leaves inf, and inf - inf nan, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _sweep_part(mode: GameMode, cfg: SolverConfig, fields, odd, cell) -> tuple:
    """Cells of a sweep line as solver._solve_columns takes them: each cell's
    typed error or None, and one dict of RESPONSES at H_d per solved cell:
    _responses on the array stage's columns, or, on the paper backend, on
    each of solve_many's solutions."""
    if cfg.backend == BACKEND_CLOSED_FORM:
        entries = solve_many(mode, [cell(i) for i in range(fields.shape[1])], cfg)
        errors = [e if isinstance(e, Exception) else None for e in entries]
        rows = [_responses(mode, *_values_and_policies(e), e.H_d)
                for e, error in zip(entries, errors) if error is None]
    else:
        errors, _, (values, policies, _, _, H_d), _ = _solve_columns(
            mode, cfg, fields, odd, cell)
        rows = zip(*([None] * len(H_d) if x is None else x.tolist()
                     for x in _responses(mode, values, policies, H_d)))
    return errors, [dict(zip(RESPONSES, row)) for row in rows]


def run_sweep(spec: Optional[SweepSpec], config: ScenarioConfig) -> dict:
    """Tabulate steady-state responses along a one-parameter grid.

    The base and the swept column are stacked once, and each mode solves
    the line in parts of SWEEP_CHUNK cells, as columns (see _sweep_part).
    Invalid or unsolvable points become rows with an error status rather
    than disappearing; the run report counts them per mode by exception
    class. It carries argmax detection per mode and response, flagging
    whether the peak is interior to the swept range. A p_c sweep needs sink
    trading: the swept price would replace the zero price that
    sink_trading=False sets.
    """
    spec = config.sweep if spec is None else spec
    if spec is None:
        raise ConfigError("no sweep specified: pass a SweepSpec or add a "
                          "'sweep' section to the config")
    if spec.parameter == "p_c" and not config.sink_trading:
        raise ConfigError("sweep parameter 'p_c' needs sink trading, but "
                          "sink_trading is false")
    modes = config.modes if spec.modes is None else spec.modes
    base, points = config.effective_params, spec.values
    fields, odd = (x.repeat(len(points), axis=-1) for x in _stack_fields([base]))
    fields[ModelParams.field_names().index(spec.parameter)] = points
    header = ["mode", "parameter", "value", *spec.responses, "status"]
    rows, argmax, failed = [], [], {}
    for mode in modes:
        solved, classes = [], failed.setdefault(mode.value, {})
        for lo in range(0, len(points), SWEEP_CHUNK):
            part = slice(lo, lo + SWEEP_CHUNK)
            errors, responses = _sweep_part(
                mode, config.solver, fields[:, part], odd[part],
                lambda i: base.replace(**{spec.parameter: points[lo + i]}))
            responses = iter(responses)
            for value, error in zip(points[part], errors):
                if error is None:
                    metrics, status = next(responses), "ok"
                    solved.append((value, metrics))
                else:   # a typed solver error
                    metrics, status, kind = {}, f"error: {error}", type(error).__name__
                    classes[kind] = classes.get(kind, 0) + 1
                rows.append([mode.value, spec.parameter, repr(float(value)),
                             *(_fmt(metrics.get(name)) for name in spec.responses), status])
        argmax += _sweep_argmax(mode, spec.responses, solved)
    report = _report(
        "sweep", config,
        sweep={
            "parameter": spec.parameter,
            "values": list(spec.values),
            "responses": list(spec.responses),
            "modes": [m.value for m in modes],
        },
        argmax=argmax,
        failed_rows=sum(1 for row in rows if row[-1] != "ok"),
        failed_rows_by_class=failed)
    return {"sweep.csv": _csv_table(header, rows), "run_report.json": report}


def _verify_mode(task: tuple) -> tuple:
    """One mode's part of run_verify from its (mode, params, solver config,
    sim config) task: the mode's solution and its checks (the residual
    scan, value consistency per role and the certification by
    oracle.equilibrium_check), or the typed error that stopped its solve
    and no checks. Runs in a worker process when run_verify has a pool."""
    mode, params, solver_config, sim = task
    try:
        solution = solve(mode, params, solver_config)
    except (SolverError, ParameterError, ValueError) as exc:
        return exc, []
    scan = residual_scan(solution, params)
    checks = [{
        "name": f"hjb-residual-scan-{mode.value}",
        "passed": bool(scan <= solver_config.hjb_tolerance),
        "metric": float(scan),
        "tolerance": solver_config.hjb_tolerance,
    }]
    try:
        trajectory = simulate(solution, sim, params)
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
    name = f"equilibrium-certification-{mode.value}"
    try:
        certification = oracle.equilibrium_check(solution)
    except (oracle.OracleError, ValueError) as exc:
        checks.append({"name": name, "passed": False, "note": str(exc)})
    else:
        checks.append({"name": name, "passed": bool(certification.passed),
                       "details": certification.to_dict()})
    return solution, checks


def run_verify(config: ScenarioConfig) -> dict:
    """Aggregate residual scans, value-consistency deltas, certification
    reports, and steady-state orderings into one pass/fail report.

    Each selected mode is one _verify_mode task, the longest first
    (VERIFY_ORDER), on forked worker processes (see _pool_map)."""
    # the leader sample's numpy.random, inherited by any worker this call
    # forks; not at module level, where every cold solve would pay for it
    import numpy.random  # noqa: F401
    params = config.effective_params
    modes = sorted(config.modes, key=VERIFY_ORDER.index)
    done = dict(zip(modes, _pool_map(_verify_mode, [
        (mode, params, config.solver, config.sim) for mode in modes])))
    solutions = {mode: done[mode][0] for mode in config.modes
                 if not isinstance(done[mode][0], Exception)}
    checks = [{"name": f"solve-{mode.value}", "passed": False,
               "note": str(done[mode][0])}
              for mode in config.modes if mode not in solutions]
    for mode, solution in solutions.items():
        checks += done[mode][1]
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
    if len(solutions) == 3:
        gd, gs, gc = (solutions[m] for m in ALL_MODES)
        h_ordering = gc.H_d > gs.H_d > gd.H_d
        checks.append({
            "name": "steady-state-ordering",
            "passed": bool(h_ordering),
            "metric": {"gd": float(gd.H_d), "gs": float(gs.H_d),
                       "gc": float(gc.H_d)},
            "note": "H_d must rank gc > gs > gd",
        })
        totals = {m.value: _responses(m, *_values_and_policies(solutions[m]),
                                      solutions[m].H_d)[-1] for m in ALL_MODES}
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

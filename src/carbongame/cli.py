"""Command-line front end.

Subcommands: solve (coefficients to standard output), simulate (trajectory
table), compare (mode comparison tables), sweep (sensitivity table), verify
(certification report; nonzero exit when a check fails). Every subcommand
accepts a JSON config plus overriding flags; results print to standard
output unless --out points at a directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from .experiments import (
    ALL_MODES,
    ConfigError,
    ScenarioConfig,
    _report,
    _require_out,
    emit_results,
    load_config,
    run_compare,
    run_sweep,
    run_verify,
)
from .model import GameMode, ParameterError
from .oracle import OracleError
from .simulate import SimulationError, simulate, trajectory_table
from .solver import SolverError, solve

__all__ = ["main"]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario document")
    parser.add_argument("--mode", choices=["gd", "gs", "gc", "all"],
                        help="cooperation mode selection")
    parser.add_argument("--no-sink-trading", action="store_true",
                        help="force the carbon-sink price to zero")
    parser.add_argument("--out", metavar="DIR",
                        help="write result files into DIR")
    parser.add_argument("--backend", choices=["residual", "paper"],
                        help="coefficient backend")
    parser.add_argument("--horizon", type=float, metavar="T",
                        help="simulation horizon")
    parser.add_argument("--step", type=float, metavar="H",
                        help="simulation step size")


def _build_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    updates = {}
    if args.mode:   # the flag decides the modes of every command
        updates["modes"] = (ALL_MODES if args.mode == "all"
                            else (GameMode.from_string(args.mode),))
        if config.sweep is not None:
            updates["sweep"] = dataclasses.replace(config.sweep, modes=None)
    if args.no_sink_trading:
        updates["sink_trading"] = False
    if args.out is not None:
        updates["out"] = _require_out(args.out)
    if args.backend:
        updates["solver"] = dataclasses.replace(config.solver,
                                                backend=args.backend)
    sim_updates = {}
    if args.horizon is not None:
        sim_updates["T"] = args.horizon
    if args.step is not None:
        sim_updates["h"] = args.step
    if sim_updates:
        updates["sim"] = dataclasses.replace(config.sim, **sim_updates)
    return config.replace(**updates) if updates else config


def _solution_lines(solution) -> list:
    lines = [f"[{solution.mode.value}]",
             f"backend = {solution.diagnostics.backend}"]
    lines += [f"{name} = {float(value)!r}"
              for name, value in solution.coefficients.items()]
    lines.append(f"alpha = {float(solution.alpha)!r}")
    lines.append(f"H_d = {float(solution.H_d)!r}")
    for role in ("farmer", "retailer"):
        policy = solution.policies[role]
        label = "E_f" if role == "farmer" else "E_r"
        lines.append(f"{label} = {float(policy.g1)!r} * H + {float(policy.g0)!r}")
    leader = solution.policies["retailer"]
    if leader.has_subsidy:
        lines.append(f"x_f = ({float(leader.n1)!r} * H + {float(leader.n0)!r}) / "
                     f"({float(leader.d1)!r} * H + {float(leader.d0)!r})")
    residual = solution.diagnostics.max_hjb_residual
    if residual is not None:
        lines.append(f"max_hjb_residual = {residual!r}")
    for flag in solution.diagnostics.flags:
        lines.append(f"flag: {flag}")
    return lines


def _cmd_solve(config: ScenarioConfig) -> int:
    blocks = []
    report_cells = []
    for mode in config.modes:
        solution = solve(mode, config.effective_params, config.solver)
        blocks.append("\n".join(_solution_lines(solution)))
        report_cells.append({"mode": mode.value,
                             "diagnostics": solution.diagnostics.to_dict()})
    print("\n\n".join(blocks))
    if config.out:
        report = _report("solve", config, cells=report_cells)
        _emit({"run_report.json": report}, config.out)
    return 0


def _cmd_simulate(config: ScenarioConfig) -> int:
    if config.out is None and len(config.modes) != 1:
        raise ConfigError("simulate prints a single mode to standard output; "
                          "pass --mode gd|gs|gc or --out DIR")
    artifacts = {}
    for mode in config.modes:
        solution = solve(mode, config.effective_params, config.solver)
        trajectory = simulate(solution, config.sim, config.effective_params)
        artifacts[f"trajectory_{mode.value}.csv"] = trajectory_table(trajectory)
    if config.out is not None:
        artifacts["run_report.json"] = _report("simulate", config)
    # without --out there is one mode, and its table prints
    _emit_or_print(artifacts, config, next(iter(artifacts)))
    return 0


def _emit(artifacts: dict, out: str) -> None:
    for path in emit_results(artifacts, out):
        print(f"wrote {path}", file=sys.stderr)


def _emit_or_print(artifacts: dict, config: ScenarioConfig,
                   table_name: str) -> None:
    if config.out is None:
        print(artifacts[table_name], end="")
    else:
        _emit(artifacts, config.out)


def _cmd_compare(config: ScenarioConfig) -> int:
    _emit_or_print(run_compare(config), config, "summary.csv")
    return 0


def _cmd_sweep(config: ScenarioConfig) -> int:
    _emit_or_print(run_sweep(None, config), config, "sweep.csv")
    return 0


def _cmd_verify(config: ScenarioConfig) -> int:
    artifacts = run_verify(config)
    report = artifacts["run_report.json"]
    for check in report["checks"]:
        line = f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}"
        if "metric" in check:
            line += f" metric={check['metric']}"
        if "tolerance" in check:
            line += f" tolerance={check['tolerance']}"
        if check.get("note"):
            line += f" ({check['note']})"
        print(line)
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
          f"({len(report['checks'])} checks)")
    if config.out:
        _emit(artifacts, config.out)
    return 0 if report["passed"] else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="carbongame",
        description="Solve, simulate, and verify the two-player carbon "
                    "emission reduction game.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    descriptions = {
        "solve": "print equilibrium coefficients and policies",
        "simulate": "print or write closed-loop trajectory tables",
        "compare": "tabulate all modes with and without sink trading",
        "sweep": "tabulate steady-state responses along a parameter grid",
        "verify": "run residual, consistency, and certification checks",
    }
    for name, handler in handlers.items():
        sub = subparsers.add_parser(name, help=descriptions[name])
        _add_common_flags(sub)
        sub.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        return args.handler(config)
    except (ConfigError, ParameterError, SolverError, SimulationError,
            OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded scenarios, the timed operation, output checks.

Scenario ``i`` of a run depends only on (seed, i), so a repeated seed gives
the same inputs whatever the speed of the code. The timed operation goes
through the carbongame module attributes (``experiments.run_sweep`` and so
on), which is where a tracer installs its wrappers. The checks run outside
the timed region and need no committed reference: they re-derive what they
compare against with the library's own solver, simulator and accounting.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from carbongame import experiments
from carbongame.experiments import ScenarioConfig, SweepSpec
from carbongame.model import GameMode, ModelParams, ParameterError
from carbongame.profits import discounted_profit, total_value_at, value_at
from carbongame.simulate import SimConfig, TRAJECTORY_COLUMNS, simulate
from carbongame.solver import SolverError, residual_scan, solve

# Parameters perturbed around the baseline calibration by log-uniform factors.
DRAWN = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "p_c", "delta",
         "rho", "theta")
BASELINE = ModelParams()
SWEEP_SPREAD = 1.0      # factors in e^[-1, 1]: reaches every solver outcome
SWEEP_POINTS = 40       # grid points per swept parameter and mode
SWEEP_SAMPLE = 10       # ok rows re-solved per sweep scenario
SWEEP_STREAM = 1        # random stream of a seed's sweep design
VERIFY_STREAM = 2       # random stream of a seed's verify design
COMPARE_SPREAD = 0.3
VERIFY_SPREAD = 0.1     # e^[-0.2, 0.2] breaks the gc > gs > gd orderings
                        # on about 1 draw in 80; e^[-0.1, 0.1] on none of 1500
INTEGRATORS = ("exact", "fourth-order-fixed-step")
VALUE_TOL = 1e-3        # discounted_profit against value_at, relative
ROW_TOL = 1e-12         # sweep row against a fresh solve, relative


def perturbed(rng: np.random.Generator, spread: float) -> ModelParams:
    factors = np.exp(rng.uniform(-spread, spread, len(DRAWN)))
    return BASELINE.replace(**{name: float(getattr(BASELINE, name) * f)
                               for name, f in zip(DRAWN, factors)})


@dataclass
class Checked:
    """Output-check result of one scenario.

    cells are the units of work (a sweep grid point in one mode, a compare
    (mode, sink, integrator) triple, a verified mode); ok counts solved
    cells, or passed checks on verify; attempted and failed count the
    checked operations.
    """

    cells: int
    ok: int
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Sweep:
    name = "sweep"
    scenarios = 10         # scenarios per run
    bases = 8              # sweeps per scenario: 80 bases per run, since
                           # ok_frac varies more between bases than along a
                           # sweep; and a scenario's cost varies with its
                           # bases' outcomes, which eight of them average

    def scenario(self, seed: int, index: int) -> tuple:
        """(configs, 0): eight bases, each with one parameter swept."""
        return tuple(self._base(seed, index * self.bases + k)
                     for k in range(self.bases)), 0

    def _base(self, seed: int, index: int) -> ScenarioConfig:
        """A base draw and one parameter swept around it.

        The run's bases form a Latin hypercube: each parameter's range is
        cut into one stratum per base and every stratum is used once. The
        swept parameter cycles through a seeded order of all nine. Both keep
        the mix of solver outcomes, and so ok_frac and the cost per cell,
        alike from seed to seed.
        """
        total = self.scenarios * self.bases
        rng = np.random.default_rng([seed, SWEEP_STREAM])
        strata = np.argsort(rng.random((len(DRAWN), total)), axis=1)
        within = rng.random((len(DRAWN), total))
        order = rng.permutation(len(DRAWN))
        unit = (strata[:, index] + within[:, index]) / total
        params = BASELINE.replace(**{
            name: float(getattr(BASELINE, name)
                        * np.exp(SWEEP_SPREAD * (2.0 * u - 1.0)))
            for name, u in zip(DRAWN, unit)})
        parameter = DRAWN[order[index % len(DRAWN)]]
        center = getattr(params, parameter)
        values = center * np.exp(np.linspace(-SWEEP_SPREAD, SWEEP_SPREAD,
                                              SWEEP_POINTS))
        spec = SweepSpec(parameter=parameter,
                         values=tuple(float(v) for v in values))
        return ScenarioConfig(params=params, sweep=spec)

    def cells(self, configs: tuple) -> int:
        return sum(len(c.modes) * len(c.sweep.values) for c in configs)

    def run(self, configs: tuple, directory: Path) -> list:
        return [experiments.run_sweep(None, config) for config in configs]

    def fingerprint(self, artifacts: list) -> bytes:
        return "".join(a["sweep.csv"] for a in artifacts).encode()

    def check(self, configs, artifacts, rng, directory: Path) -> Checked:
        out = Checked(cells=0, ok=0, attempted=0, failed=0)
        for config, sweep in zip(configs, artifacts):
            one = self._check_one(config, sweep, rng)
            out.cells += one.cells
            out.ok += one.ok
            out.attempted += one.attempted
            out.failed += one.failed
            out.problems += one.problems
        return out

    def _check_one(self, config, artifacts, rng) -> Checked:
        rows = list(csv.DictReader(io.StringIO(artifacts["sweep.csv"])))
        if len(rows) != self.cells((config,)):
            raise ValueError(f"{len(rows)} sweep rows, expected "
                             f"{self.cells((config,))}")
        out = Checked(cells=len(rows), ok=0, attempted=len(rows), failed=0)
        ok_rows = []
        for row in rows:
            if row["status"] != "ok":
                continue   # a typed solver error: an outcome
            out.ok += 1
            values = [float(row[r]) for r in config.sweep.responses
                      if row[r] != ""]
            if all(math.isfinite(v) for v in values):
                ok_rows.append(row)
            else:
                out.failed += 1
                out.problems.append(f"non-finite sweep row {row}")
        picks = (rng.choice(len(ok_rows), size=min(SWEEP_SAMPLE, len(ok_rows)),
                            replace=False) if ok_rows else [])
        for k in picks:
            problem = self._resolve(config, ok_rows[int(k)])
            if problem:
                out.failed += 1
                out.problems.append(problem)
        return out

    @staticmethod
    def _resolve(config: ScenarioConfig, row: dict):
        mode = GameMode.from_string(row["mode"])
        params = config.effective_params.replace(
            **{config.sweep.parameter: float(row["value"])})
        sol = solve(mode, params, config.solver)
        H_d = sol.H_d
        fresh = {"H_d": H_d,
                 "E_f_at_H_d": sol.policies["farmer"].effort(H_d),
                 "E_r_at_H_d": sol.policies["retailer"].effort(H_d),
                 "total_value_at_H_d": total_value_at(sol, H_d)}
        if mode is not GameMode.CENTRALIZED:
            fresh["farmer_value_at_H_d"] = sol.values["farmer"].value(H_d)
            fresh["retailer_value_at_H_d"] = sol.values["retailer"].value(H_d)
        where = f"{row['mode']} {config.sweep.parameter}={row['value']}"
        for name, value in fresh.items():
            if not _close(float(row[name]), float(value), ROW_TOL):
                return f"{where}: {name} {row[name]} != {float(value)!r}"
        if not (sol.alpha < 0 and all(math.isfinite(float(v))
                                      for v in fresh.values())):
            return f"{where}: alpha {sol.alpha} or a non-finite response"
        scan = residual_scan(sol, params)
        if not scan <= config.solver.hjb_tolerance:
            return f"{where}: residual scan {scan:.3e}"
        return None


class Compare:
    name = "compare"
    scenarios = 10         # draws differ in cost by about 15%; ten average it

    def scenario(self, seed: int, index: int) -> tuple:
        """(config, 0): one draw near the baseline."""
        rng = np.random.default_rng([seed, index])
        return ScenarioConfig(params=perturbed(rng, COMPARE_SPREAD)), 0

    def cells(self, config: ScenarioConfig) -> int:
        return 2 * len(config.modes) * len(INTEGRATORS)

    def run(self, config: ScenarioConfig, directory: Path) -> dict:
        """run_compare and emit_results once per integrator. Both are in one
        scenario because their costs differ by a third: a median over
        scenarios that alternate between them would jump between the two."""
        artifacts = {}
        for integrator in INTEGRATORS:
            cfg = config.replace(sim=SimConfig(integrator=integrator))
            out = experiments.run_compare(cfg)
            experiments.emit_results(out, directory / integrator)
            artifacts[integrator] = out
        return artifacts

    def fingerprint(self, artifacts: dict) -> bytes:
        return "".join(text for out in artifacts.values()
                       for name, text in sorted(out.items())
                       if name.endswith(".csv")).encode()

    def check(self, config, artifacts, rng, directory: Path) -> Checked:
        """Check the files as written: each trajectory table parses back to
        a fresh simulation exactly, and its discounted profit matches the
        analytic value."""
        out = Checked(cells=0, ok=0, attempted=0, failed=0)
        for integrator in INTEGRATORS:
            cfg = config.replace(sim=SimConfig(integrator=integrator))
            where = directory / integrator
            json.loads((where / "run_report.json").read_text())
            rows = list(csv.DictReader(io.StringIO(
                (where / "summary.csv").read_text())))
            if len(rows) != 2 * len(config.modes):
                raise ValueError(f"{len(rows)} summary rows, expected "
                                 f"{2 * len(config.modes)}")
            out.cells += len(rows)
            out.attempted += len(rows)
            for row in rows:
                if row["status"] != "ok":
                    continue   # a typed solver error: an outcome
                out.ok += 1
                problem = self._check_cell(cfg, row, where)
                if problem:
                    out.failed += 1
                    out.problems.append(f"{integrator} {problem}")
        return out

    @staticmethod
    def _check_cell(config: ScenarioConfig, row: dict, directory: Path):
        mode = GameMode.from_string(row["mode"])
        params = config.effective_params
        if row["sink_trading"] == "off":
            params = params.without_sink_trading()
        name = f"trajectory_{mode.value}_sink_{row['sink_trading']}.csv"
        lines = (directory / name).read_text().splitlines()
        if lines[0] != ",".join(TRAJECTORY_COLUMNS):
            return f"{name}: header {lines[0]!r}"
        columns = list(zip(*(line.split(",") for line in lines[1:])))
        sol = solve(mode, params, config.solver)
        traj = simulate(sol, config.sim, params)
        if len(columns[0]) != len(traj):
            return f"{name}: {len(columns[0])} rows, expected {len(traj)}"
        for cells, col in zip(columns, TRAJECTORY_COLUMNS):
            if col == "x_f" and mode is not GameMode.STACKELBERG:
                if any(cells):
                    return f"{name}: x_f cells outside gs"
                continue
            parsed = np.array(cells, dtype=float)
            if not np.all(np.isfinite(parsed)):
                return f"{name}: non-finite {col}"
            if not np.array_equal(parsed, getattr(traj, col)):
                return f"{name}: {col} does not round-trip"
        for role in sol.roles:
            numeric = discounted_profit(traj, role, params)
            analytic = value_at(sol, role, params.H0)
            if not abs(numeric - analytic) <= VALUE_TOL * max(abs(analytic), 1e-9):
                return f"{name}: {role} profit {numeric!r} vs value {analytic!r}"
        return None


class Verify:
    name = "verify"
    # Draws differ in cost: most take about 3 s on a 2-vCPU VM, and some
    # take 4 to 5 s. Eight, with the baseline, keep a run under a minute.
    scenarios = 8

    def scenario(self, seed: int, index: int) -> tuple:
        """(config, redrawn): the baseline first, then perturbations.

        The perturbations form a Latin hypercube, as on sweep, so that every
        seed's draws cover the range alike. A draw on which
        some mode raises a typed solver error (about 1 in 150, the gs
        balance gate of ROADMAP item 5) is redrawn within its strata,
        because run_verify cannot certify that mode; sweep and compare count
        that defect, and redrawn reports how often it was met here.
        """
        if index == 0:
            return ScenarioConfig(), 0
        draws = self.scenarios - 1
        rng = np.random.default_rng([seed, VERIFY_STREAM])
        strata = np.argsort(rng.random((len(DRAWN), draws)), axis=1)[:, index - 1]
        for attempt in range(100):
            within = np.random.default_rng([seed, index, attempt]).random(len(DRAWN))
            unit = (strata + within) / draws
            params = BASELINE.replace(**{
                name: float(getattr(BASELINE, name)
                            * np.exp(VERIFY_SPREAD * (2.0 * u - 1.0)))
                for name, u in zip(DRAWN, unit)})
            try:
                for mode in GameMode:
                    solve(mode, params)
            except (SolverError, ParameterError):
                continue
            return ScenarioConfig(params=params), attempt
        raise RuntimeError(f"no solvable verify draw for seed {seed}")

    def cells(self, config: ScenarioConfig) -> int:
        return len(config.modes)

    def run(self, config: ScenarioConfig, directory: Path) -> dict:
        return experiments.run_verify(config)

    def fingerprint(self, artifacts: dict) -> bytes:
        # the report's checks; the report itself carries a timestamp
        return json.dumps(artifacts["run_report.json"]["checks"],
                          sort_keys=True, default=repr).encode()

    def check(self, config, artifacts, rng, directory: Path) -> Checked:
        checks = artifacts["run_report.json"]["checks"]
        out = Checked(cells=self.cells(config), ok=0, attempted=len(checks),
                      failed=0)
        for check in checks:
            metric = check.get("metric")
            finite = not isinstance(metric, float) or math.isfinite(metric)
            if check["passed"] and finite:
                out.ok += 1
            else:
                out.failed += 1
                out.problems.append(f"check {check['name']} failed")
        return out


WORKLOADS = {w.name: w for w in (Sweep(), Compare(), Verify())}

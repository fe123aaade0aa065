"""Config parsing, comparison/sweep/verify runners, and artifact emission."""

import csv
import dataclasses
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import carbongame
from carbongame import (
    BalanceGateError,
    ComplexRootError,
    ConfigError,
    HorizonError,
    ModelParams,
    NoCandidateError,
    NoRealBranchError,
    OracleError,
    ParameterError,
    ScanGateError,
    ScenarioConfig,
    SimConfig,
    SimulationError,
    SolverConfig,
    SolverError,
    SweepSpec,
    UnstableModelError,
    emit_results,
    equilibrium_check,
    load_config,
    run_compare,
    run_sweep,
    run_verify,
    solve,
    solve_many,
)
from carbongame import experiments, oracle, profits
from carbongame.experiments import (
    ALL_MODES,
    RESPONSES,
    SUMMARY_COLUMNS,
    _json_default,
    _sweep_argmax,
)

from reference_values import CASES

QUICK_SIM = SimConfig(T=2.0, h=0.1)
HUGE = 10 ** 400   # an integer beyond float64's range: float() overflows


def _write(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _rows(table: str) -> list:
    return list(csv.reader(io.StringIO(table)))


def _summary_by_cell(artifacts) -> dict:
    rows = _rows(artifacts["summary.csv"])
    assert rows[0] == list(SUMMARY_COLUMNS)
    return {(r[0], r[1]): dict(zip(SUMMARY_COLUMNS, r)) for r in rows[1:]}


def _report_text(report) -> str:
    trimmed = {k: v for k, v in report.items() if k != "timestamp"}
    return json.dumps(trimmed, sort_keys=True, default=_json_default)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_the_baseline_scenario(tmp_path):
    config = load_config(_write(tmp_path, {}))
    assert config.params == ModelParams()
    assert [m.value for m in config.modes] == ["gd", "gs", "gc"]
    assert config.sink_trading is True
    assert config.sim == SimConfig()
    assert config.solver == SolverConfig()
    assert config.sweep is None
    assert config.out is None


def test_full_config_round_trip(tmp_path):
    doc = {
        "lambda_f": 450, "p_c": 0.8, "modes": ["gd", "gs"],
        "sink_trading": False, "out": "results",
        "sim": {"T": 20.0, "h": 0.02, "integrator": "fourth-order-fixed-step"},
        "solver": {"backend": "paper"},
        "sweep": {"parameter": "mu_f", "min": 1.0, "max": 2.0, "count": 5,
                  "responses": ["H_d"], "modes": "all"},
    }
    config = load_config(_write(tmp_path, doc))
    assert config.params.lambda_f == 450.0
    assert config.params.p_c == 0.8
    assert config.effective_params.p_c == 0.0   # toggle wins
    assert [m.value for m in config.modes] == ["gd", "gs"]
    assert config.sim.T == 20.0
    assert config.solver.backend == "paper-closed-form"
    assert config.sweep.parameter == "mu_f"
    assert config.sweep.values == pytest.approx((1.0, 1.25, 1.5, 1.75, 2.0))
    assert config.sweep.responses == ("H_d",)
    assert [m.value for m in config.sweep.modes] == ["gd", "gs", "gc"]
    assert config.out == "results"


def test_the_report_echoes_every_scenario_field_as_plain_json(tmp_path):
    doc = {
        "lambda_f": 450, "modes": ["gs", "gd"], "sink_trading": False,
        "out": "results",
        "sim": {"T": 20.0, "h": 0.02, "integrator": "fourth-order-fixed-step"},
        "solver": {"backend": "paper", "tolerance": 1e-11, "hjb_tolerance": 1e-7,
                   "follower_convention": "paper-printed"},
        "sweep": {"parameter": "mu_f", "values": [1.0, 2], "responses": ["H_d"],
                  "modes": "gc"},
    }
    echo = experiments._report("sweep", load_config(_write(tmp_path, doc)))["config"]
    assert echo == {
        "params": {**dataclasses.asdict(ModelParams()), "lambda_f": 450.0},
        "modes": ["gs", "gd"], "sink_trading": False, "out": "results",
        "sim": doc["sim"],
        "solver": {**doc["solver"], "backend": "paper-closed-form"},
        "sweep": {"parameter": "mu_f", "values": [1.0, 2.0],
                  "responses": ["H_d"], "modes": ["gc"]},
    }
    assert json.loads(json.dumps(echo)) == echo
    assert experiments._config_echo(ScenarioConfig())["sweep"] is None


def test_config_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'lambda_x'"):
        load_config(_write(tmp_path, {"lambda_x": 1.0}))
    with pytest.raises(ConfigError,
                       match="config field lambda_f must be a number, got 'abc'"):
        load_config(_write(tmp_path, {"lambda_f": "abc"}))
    with pytest.raises(ConfigError, match=r"lambda_f > 0 violated \(got -1\.0\)"):
        load_config(_write(tmp_path, {"lambda_f": -1}))
    with pytest.raises(ConfigError, match="unknown sim key 'dt'"):
        load_config(_write(tmp_path, {"sim": {"dt": 0.1}}))
    with pytest.raises(ConfigError, match="sim section: T must be > 0"):
        load_config(_write(tmp_path, {"sim": {"T": -5}}))
    with pytest.raises(ConfigError, match="unknown solver key 'max_iter'"):
        load_config(_write(tmp_path, {"solver": {"max_iter": 50}}))
    with pytest.raises(ConfigError, match="sink_trading must be a boolean"):
        load_config(_write(tmp_path, {"sink_trading": "yes"}))
    with pytest.raises(ConfigError, match="unknown config key 'workers'"):
        load_config(_write(tmp_path, {"workers": 2}))
    with pytest.raises(ConfigError, match="unknown game mode 'nash'"):
        load_config(_write(tmp_path, {"modes": ["nash"]}))
    with pytest.raises(ConfigError,
                       match="config field out must be a non-empty string, "
                             "got ''"):
        load_config(_write(tmp_path, {"out": ""}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        path = tmp_path / "broken.json"
        path.write_text("{")
        load_config(path)


def test_sweep_section_validation(tmp_path):
    with pytest.raises(ConfigError, match="needs a 'parameter' field"):
        load_config(_write(tmp_path, {"sweep": {"values": [1.0]}}))
    with pytest.raises(ConfigError,
                       match="either 'values' or 'min'/'max'/'count', not both"):
        load_config(_write(tmp_path, {"sweep": {"parameter": "mu_f",
                                                "values": [1.0], "min": 1.0}}))
    with pytest.raises(ConfigError, match="sweep range form needs max, count"):
        load_config(_write(tmp_path, {"sweep": {"parameter": "mu_f",
                                                "min": 1.0}}))
    with pytest.raises(ConfigError, match="unknown sweep key 'step'"):
        load_config(_write(tmp_path, {"sweep": {"parameter": "mu_f",
                                                "values": [1.0], "step": 2}}))
    with pytest.raises(ConfigError,
                       match="sweep count must be a positive integer, got 0"):
        load_config(_write(tmp_path, {"sweep": {"parameter": "mu_f", "min": 1.0,
                                                "max": 2.0, "count": 0}}))
    with pytest.raises(ConfigError,
                       match="sweep modes: unknown game mode 'nash'"):
        load_config(_write(tmp_path, {"sweep": {"parameter": "mu_f",
                                                "values": [1.0],
                                                "modes": ["nash"]}}))
    with pytest.raises(ConfigError, match="is not a model parameter"):
        SweepSpec(parameter="size", values=(1.0,))
    with pytest.raises(ConfigError, match="unknown sweep response 'alpha'"):
        SweepSpec(parameter="mu_f", values=(1.0,), responses=("alpha",))
    with pytest.raises(ConfigError, match="sweep values must be a non-empty list"):
        SweepSpec(parameter="mu_f", values=())
    with pytest.raises(ConfigError, match="sweep values must be finite numbers"):
        SweepSpec(parameter="mu_f", values=(1.0, HUGE))


@pytest.mark.parametrize("text, message", [
    ('{"sweep": {"parameter": "p_c", "values": [Infinity]}}',
     "sweep value inf is not finite"),
    ('{"sweep": {"parameter": "p_c", "values": [0.5], "responses": []}}',
     "sweep responses must be non-empty"),
    ('{"sweep": [0.5]}', "sweep section must be an object, got [0.5]"),
    ('{"sweep": {"parameter": "p_c", "values": 0.5}}',
     "sweep values must be a list, got 0.5"),
    ('{"sweep": {"parameter": "p_c", "values": [0.5], "responses": "H_d"}}',
     "sweep responses must be a list, got 'H_d'"),
    ('{"sim": 2}', "sim section must be an object, got 2"),
    ('{"solver": {"backend": 1}}',
     "config field solver.backend must be a string, got 1"),
    ('[]', "config {path} must be a JSON object, got list"),
], ids=["infinite-sweep-value", "no-responses", "sweep-not-object",
        "values-not-list", "responses-not-list", "sim-not-object",
        "backend-not-string", "document-not-object"])
def test_config_error_messages(tmp_path, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message.format(path=path)


def test_every_section_field_refuses_a_value_of_the_wrong_kind(tmp_path):
    kinds = {"sim": {"T": "number", "h": "number", "integrator": "string"},
             "solver": {"backend": "string", "tolerance": "number",
                        "hjb_tolerance": "number",
                        "follower_convention": "string"}}
    for section, cls in (("sim", SimConfig), ("solver", SolverConfig)):
        assert list(kinds[section]) == [f.name for f in dataclasses.fields(cls)]
        for key, kind in kinds[section].items():
            wrong = "0.5" if kind == "number" else 0.5
            with pytest.raises(ConfigError) as err:
                load_config(_write(tmp_path, {section: {key: wrong}}))
            assert str(err.value) == (f"config field {section}.{key} must be "
                                      f"a {kind}, got {wrong!r}")


@pytest.mark.parametrize("doc, field", [
    ({"Q0": HUGE}, "Q0"),
    ({"sim": {"T": HUGE}}, "sim.T"),
    ({"solver": {"tolerance": HUGE}}, "solver.tolerance"),
    ({"sweep": {"parameter": "p_c", "values": [0.5, HUGE]}}, "sweep values"),
    ({"sweep": {"parameter": "p_c", "min": 0.0, "max": HUGE, "count": 2}},
     "sweep max"),
], ids=["param", "sim", "solver", "sweep-values", "sweep-range"])
def test_an_integer_beyond_float_range_is_a_config_error(tmp_path, doc, field):
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, doc))
    assert str(err.value) == (f"config field {field} must be a finite number, "
                              f"got an integer of 401 digits")


def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path):
    # Python refuses to read an int of more than 4,300 digits from text
    path = tmp_path / "scenario.json"
    path.write_text('{"Q0": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="config field Q0|is not valid JSON"):
        load_config(path)


def test_scenario_config_validation():
    with pytest.raises(ConfigError, match="must be 'all', a mode name"):
        ScenarioConfig(modes=[])
    single = ScenarioConfig(modes="gs")
    assert [m.value for m in single.modes] == ["gs"]


@pytest.mark.parametrize("modes, twice", [
    (["gd", "gd"], "gd"),
    (["gs", "gc", "Stackelberg"], "gs"),
    (("gc", "gd", ALL_MODES[2]), "gc"),
], ids=["same-name", "name-and-alias", "name-and-member"])
def test_a_mode_listed_twice_is_a_config_error(tmp_path, modes, twice):
    # a repeated mode would write its sweep rows and compare cells twice
    message = f"^modes lists mode '{twice}' twice$"
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(modes=modes)
    with pytest.raises(ConfigError,
                       match=f"^sweep modes lists mode '{twice}' twice$"):
        SweepSpec(parameter="p_c", values=(1.0,), modes=modes)
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, {"modes": [getattr(m, "value", m)
                                                for m in modes]}))


@pytest.mark.parametrize("responses, twice", [
    (["H_d", "H_d"], "H_d"),
    (["E_f_at_H_d", "H_d", "total_value_at_H_d", "H_d"], "H_d"),
], ids=["adjacent", "apart"])
def test_a_response_listed_twice_is_a_config_error(tmp_path, responses, twice):
    # a repeated response would write its column, and report its argmax, twice
    message = f"^sweep responses list '{twice}' twice$"
    with pytest.raises(ConfigError, match=message):
        SweepSpec(parameter="p_c", values=(1.0,), responses=responses)
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, {"sweep": {"parameter": "p_c", "values": [1.0],
                                                "responses": responses}}))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def baseline_compare():
    return run_compare(ScenarioConfig(sim=QUICK_SIM))


def test_compare_artifacts_and_frozen_totals(baseline_compare):
    artifacts = baseline_compare
    expected = {"summary.csv", "run_report.json"}
    expected |= {f"trajectory_{m}_sink_{s}.csv"
                 for m in ("gd", "gs", "gc") for s in ("on", "off")}
    assert set(artifacts) == expected
    cells = _summary_by_cell(artifacts)
    assert len(cells) == 6
    for mode, total_H0, total_ss in (
            ("gd", 14685.388437165526, 31370.37624860025),
            ("gs", 16682.068652411952, 36281.532636601565),
            ("gc", 19441.41038635786, 53150.62615755829)):
        row = cells[(mode, "on")]
        assert row["status"] == "ok"
        assert float(row["value_total_H0"]) == pytest.approx(total_H0, rel=1e-12)
        assert float(row["value_total_ss"]) == pytest.approx(total_ss, rel=1e-12)
    gd_on = cells[("gd", "on")]
    assert float(gd_on["A"]) == pytest.approx(CASES["baseline"]["gd"]["A"],
                                              rel=1e-9)
    assert float(gd_on["H_d"]) == pytest.approx(CASES["baseline"]["gd"]["H_d"],
                                                rel=1e-9)
    assert gd_on["x_f_ss"] == ""      # no cost sharing outside the leader mode
    assert gd_on["F"] == ""
    gc_on = cells[("gc", "on")]
    assert gc_on["value_f_H0"] == "" and gc_on["value_r_H0"] == ""
    off = cells[("gd", "off")]
    assert float(off["H_d"]) == pytest.approx(CASES["no_sink"]["gd"]["H_d"],
                                              rel=1e-9)


def test_compare_report_structure(baseline_compare):
    report = baseline_compare["run_report.json"]
    assert report["command"] == "compare"
    assert report["config"]["params"]["lambda_f"] == 500.0
    assert {c["mode"] for c in report["cells"]} == {"gd", "gs", "gc"}
    for cell in report["cells"]:
        assert cell["status"] == "ok"
        assert cell["trajectory_file"] in baseline_compare
        assert cell["diagnostics"]["backend"] == "residual"
    assert set(report["versions"]) == {"carbongame", "numpy", "python"}


def test_compare_runs_a_single_cell_without_sink_price():
    artifacts = run_compare(ScenarioConfig(params=ModelParams(p_c=0.0),
                                           modes="gd", sim=QUICK_SIM))
    cells = _summary_by_cell(artifacts)
    assert set(cells) == {("gd", "off")}
    assert set(artifacts) == {"summary.csv", "trajectory_gd_sink_off.csv",
                              "run_report.json"}


def test_sink_toggle_is_equivalent_to_zero_price():
    toggled = run_compare(ScenarioConfig(sink_trading=False, modes="gd",
                                         sim=QUICK_SIM))
    zeroed = run_compare(ScenarioConfig(params=ModelParams(p_c=0.0),
                                        modes="gd", sim=QUICK_SIM))
    assert toggled["summary.csv"] == zeroed["summary.csv"]
    assert toggled["trajectory_gd_sink_off.csv"] == \
        zeroed["trajectory_gd_sink_off.csv"]


def test_compare_is_deterministic(baseline_compare):
    again = run_compare(ScenarioConfig(sim=QUICK_SIM))
    for name, content in baseline_compare.items():
        if name == "run_report.json":
            assert _report_text(again[name]) == _report_text(content)
        else:
            assert again[name] == content


def test_compare_records_failures_as_rows():
    config = ScenarioConfig(params=ModelParams(lambda_f=350.0, p_c=1.2),
                            sim=QUICK_SIM)
    artifacts = run_compare(config)
    cells = _summary_by_cell(artifacts)
    assert len(cells) == 6
    bad = cells[("gc", "on")]
    assert bad["status"].startswith("error: unstable model")
    assert bad["A"] == "" and bad["H_d"] == ""
    assert "trajectory_gc_sink_on.csv" not in artifacts
    assert "trajectory_gc_sink_off.csv" in artifacts
    report_bad = [c for c in artifacts["run_report.json"]["cells"]
                  if c["mode"] == "gc" and c["sink_trading"] == "on"]
    assert report_bad[0]["status"].startswith("error: unstable model")


DIVERGING_RK4 = SimConfig(T=4000.0, h=10.0, integrator="fourth-order-fixed-step")


def test_compare_records_a_diverging_rk4_step_as_the_cell_error():
    artifacts = run_compare(ScenarioConfig(modes="gd", sim=DIVERGING_RK4))
    cells = _summary_by_cell(artifacts)
    assert set(cells) == {("gd", "on"), ("gd", "off")}
    for cell in cells.values():
        assert cell["status"].startswith("error: fourth-order-fixed-step path "
                                         "is not finite from t = ")
        assert "step h = 10.0" in cell["status"]
    assert not any(name.startswith("trajectory_") for name in artifacts)


RK4 = SimConfig(integrator="fourth-order-fixed-step")

# (usable CPUs, whether the platform can fork): only two CPUs that can fork
# give a pool; one CPU, or a platform without fork, runs in this process
PROCESS_SETUPS = ((1, True), (2, True), (2, False))
POOLED = (2, True)
_FORK = os.fork
_SRC = str(Path(carbongame.__file__).resolve().parents[1])


@pytest.fixture
def fresh_workers():
    # the workers live as long as this process: end them before a test that
    # patches a function they call, so that its pooled runs fork from the
    # patched module, and again after it
    experiments._close_workers()
    yield
    experiments._close_workers()


def _set_processes(monkeypatch, cpus, forks):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    if forks:
        monkeypatch.setattr(os, "fork", _FORK)
    else:
        monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(sim=RK4),
    ScenarioConfig(params=ModelParams(p_c=0.0), sim=QUICK_SIM),
    ScenarioConfig(modes="gd", sim=DIVERGING_RK4),
], ids=["exact", "rk4", "one-cell-per-mode", "diverging-rk4"])
def test_pooled_and_serial_compare_agree(monkeypatch, tmp_path, config,
                                         fresh_workers):
    # each simulation appends the id of the process it ran in; the forked
    # workers inherit the patched module attribute
    pids = tmp_path / "pids"
    real = experiments.simulate

    def spy(*args):
        with open(pids, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(experiments, "simulate", spy)
    runs = {}
    for cpus, forks in PROCESS_SETUPS:
        _set_processes(monkeypatch, cpus, forks)
        runs[cpus, forks] = run_compare(config)
        ran_in, parent = set(pids.read_text().split()), str(os.getpid())
        pids.unlink()
        assert (parent not in ran_in) if (cpus, forks) == POOLED else (ran_in == {parent})
    pooled = runs.pop(POOLED)
    for serial in runs.values():
        assert serial.keys() == pooled.keys()
        for name, content in serial.items():
            if name == "run_report.json":
                assert _report_text(pooled[name]) == _report_text(content)
            else:
                assert pooled[name] == content
    if config.sim is DIVERGING_RK4:
        statuses = [c["status"] for c in pooled["run_report.json"]["cells"]]
        assert len(statuses) == 2
        assert all(s.startswith("error: fourth-order-fixed-step path is not "
                                "finite from t = ") for s in statuses)


def _verify_checks(monkeypatch, config, cpus, forks=True) -> str:
    _set_processes(monkeypatch, cpus, forks)
    checks = run_verify(config)["run_report.json"]["checks"]
    return json.dumps(checks, sort_keys=True, default=_json_default)


STRESSED = ModelParams(lambda_f=350.0, p_c=1.2)   # gc's solve fails typed


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(sink_trading=False),
    ScenarioConfig(modes="gs"),
    ScenarioConfig(params=STRESSED),
], ids=["all-modes", "no-sink", "gs-alone", "stressed"])
def test_pooled_and_serial_verify_agree(monkeypatch, tmp_path, config,
                                        fresh_workers):
    # each solve and the leader sample append the id of the process they ran
    # in; the forked workers inherit the patched module attributes. A pooled
    # run solves and certifies each mode in a worker, and a single mode is
    # one task, which runs in this process
    pids = {"solve": tmp_path / "solve", "sample": tmp_path / "sample"}

    def spy(name, real):
        def record(*args):
            with open(pids[name], "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args)
        return record

    monkeypatch.setattr(experiments, "solve", spy("solve", experiments.solve))
    monkeypatch.setattr(oracle, "leader_improvement_sample",
                        spy("sample", oracle.leader_improvement_sample))
    runs = {}
    for cpus, forks in PROCESS_SETUPS:
        runs[cpus, forks] = _verify_checks(monkeypatch, config, cpus, forks)
        ran_in = {name: path.read_text().split() for name, path in pids.items()}
        parent = str(os.getpid())
        for path in pids.values():
            path.unlink()
        assert len(ran_in["solve"]) == len(config.modes)
        assert len(ran_in["sample"]) == 1
        for where in ran_in.values():
            if (cpus, forks) == POOLED and len(config.modes) > 1:
                assert parent not in where
            else:
                assert set(where) == {parent}
        # no call starts a thread
        assert threading.active_count() == 1
    assert len(set(runs.values())) == 1
    if config.params is STRESSED:
        # the typed solver error crossed the worker pipe
        (failed,) = [c for c in json.loads(runs[POOLED]) if not c["passed"]]
        assert failed["name"] == "solve-gc"
        assert failed["note"].startswith("unstable model: ")


@pytest.mark.parametrize("failing, note", [
    ({("gd", "retailer")}, "gd retailer"),
    ({("gd", "farmer"), ("gd", "retailer")}, "gd farmer"),
    ({("gs", "leader")}, "gs leader"),
    ({("gs", "farmer"), ("gs", "leader")}, "gs farmer"),
    ({("gc", "joint")}, "gc joint"),
], ids=["gd-retailer", "gd-both", "gs-leader", "gs-both", "gc-joint"])
def test_a_failing_part_gives_its_mode_the_serial_note(monkeypatch, failing,
                                                       note, fresh_workers):
    # a mode's note is the error its check meets first, pooled or not,
    # and the other modes still certify
    real_reply = oracle.grid_best_response
    real_sample = oracle.leader_improvement_sample

    def reply(params, mode, role, *rest):
        if (mode.value, role) in failing:
            raise OracleError(f"{mode.value} {role}")
        return real_reply(params, mode, role, *rest)

    def sample(solution):
        if ("gs", "leader") in failing:
            raise OracleError("gs leader")
        return real_sample(solution)

    monkeypatch.setattr(oracle, "grid_best_response", reply)
    monkeypatch.setattr(oracle, "leader_improvement_sample", sample)
    runs = {cpus: _verify_checks(monkeypatch, ScenarioConfig(), cpus)
            for cpus in (1, 2)}
    assert runs[1] == runs[2]
    certifications = {c["name"].rsplit("-", 1)[1]: c
                      for c in json.loads(runs[2])
                      if c["name"].startswith("equilibrium-certification-")}
    mode = note.split()[0]
    assert certifications.pop(mode) == {
        "name": f"equilibrium-certification-{mode}", "passed": False,
        "note": note}
    assert len(certifications) == 2
    assert all(c["passed"] for c in certifications.values())


def test_verify_certifies_each_mode_as_equilibrium_check(monkeypatch):
    # run_verify's certification details are equilibrium_check's report,
    # pooled or on one CPU
    expected = {
        f"equilibrium-certification-{mode.value}": json.loads(json.dumps(
            equilibrium_check(solve(mode, ModelParams())).to_dict(),
            default=_json_default))
        for mode in ALL_MODES}
    for cpus in (1, 2):
        checks = json.loads(_verify_checks(monkeypatch, ScenarioConfig(),
                                           cpus))
        details = {c["name"]: c["details"] for c in checks
                   if c["name"] in expected}
        assert details == expected


def test_usable_cpus_without_cpu_affinity(monkeypatch):
    # platforms without sched_getaffinity count every CPU, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._usable_cpus() == 1


ERRORS = [SolverError("solver failure"),
          NoCandidateError("no candidates for the stable branch"),
          NoRealBranchError("no real (A, M) branch of the coupled quadratic balances"),
          BalanceGateError("collected balance farmer H^1 residual 1.000e-03 exceeds "
                           "tolerance 1.0e-12"),
          ScanGateError("stationarity-equation residual scan nan exceeds configured "
                        "bound 1.0e-08"),
          ComplexRootError("Delta^GD", -2.5e-3),
          UnstableModelError([0.25, 1.5]),
          ParameterError("rho > 0 violated (got -1.0)"),
          SimulationError("no attracting steady state: alpha = 0.1 >= 0"),
          HorizonError("horizon too short"),
          OracleError("policy iteration did not converge"),
          ConfigError("unknown config key 'x'")]


def _returned(error):
    return error


def test_every_public_error_survives_a_pickle_round_trip(monkeypatch):
    # a worker process returns a cell's error to the parent through pickle,
    # here through the forked pool
    public = {obj for obj in map(carbongame.__dict__.get, carbongame.__all__)
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert {type(e) for e in ERRORS} == public
    _set_processes(monkeypatch, *POOLED)
    for error, pooled in zip(ERRORS, experiments._pool_map(_returned, ERRORS)):
        for again in (pickle.loads(pickle.dumps(error)), pooled):
            assert type(again) is type(error)
            assert str(again) == str(error)
            assert vars(again) == vars(error)


def _pid(_):
    return os.getpid()


def _nested(_):
    return os.getpid(), experiments._pool_map(_pid, [0, 0])


def _worker_pids() -> list:
    return [pid for pid, _, _ in experiments._workers]


def test_pooled_calls_reuse_the_workers_and_start_no_thread(monkeypatch,
                                                            fresh_workers):
    threads = threading.active_count()
    runs = []
    for _ in range(2):
        runs.append(_verify_checks(monkeypatch, ScenarioConfig(), *POOLED))
        pids = _worker_pids()
        # the first free worker takes the next task, so both take one
        assert sorted(set(experiments._pool_map(_pid, [0, 0]))) == sorted(pids)
        assert threading.active_count() == threads
    assert len(pids) == 2 and os.getpid() not in pids
    assert runs[0] == runs[1] == _verify_checks(monkeypatch, ScenarioConfig(), 1)


def test_workers_grow_to_the_largest_call_and_are_never_forked_again(
        monkeypatch, fresh_workers):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    for tasks, workers in ((3, 3), (2, 3), (1, 3), (4, 4), (3, 4)):
        before = _worker_pids()
        ran = experiments._pool_map(_pid, [0] * tasks)
        assert len(_worker_pids()) == workers
        assert _worker_pids()[:len(before)] == before
        assert (ran == [os.getpid()]) if tasks == 1 else (os.getpid() not in ran)


def _in_child(fn):
    """fn() run in a child this process forks, as JSON, and the child's pid."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write, json.dumps(fn()).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as out:
        result = json.load(out)
    os.waitpid(pid, 0)
    return result, pid


def _pooled_in_child():
    ran = experiments._pool_map(_pid, [0] * 3)
    workers = _worker_pids()
    experiments._close_workers()
    return ran, workers


def test_only_the_process_that_forked_the_workers_uses_them(monkeypatch,
                                                            fresh_workers):
    _set_processes(monkeypatch, *POOLED)
    # a child forked before this process first pools forks its own workers
    monkeypatch.setattr(experiments, "_owner", None)
    (ran, workers), child = _in_child(_pooled_in_child)
    assert len(workers) == 2 and child not in workers
    assert set(ran) <= set(workers) and os.getpid() not in workers
    assert experiments._owner is None and _worker_pids() == []
    # a worker, and a child forked after the workers, run a pooled call
    # in-process
    for worker, ran in experiments._pool_map(_nested, [0, 0]):
        assert worker in _worker_pids() and ran == [worker, worker]
    assert experiments._owner == os.getpid()
    (ran, workers), child = _in_child(_pooled_in_child)
    assert ran == [child] * 3 and workers == _worker_pids()


def test_a_worker_killed_mid_call_fails_that_call_alone(monkeypatch, tmp_path,
                                                         fresh_workers):
    # the worker that takes the leader sample kills itself, once; the call
    # ends every worker, and the next one forks new workers
    marker = tmp_path / "kill"
    real = oracle.leader_improvement_sample

    def sample(solution):
        try:
            marker.unlink()
        except FileNotFoundError:
            return real(solution)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(oracle, "leader_improvement_sample", sample)
    serial = _verify_checks(monkeypatch, ScenarioConfig(), 1)
    marker.touch()
    with pytest.raises(ChildProcessError, match="exit status -9") as failed:
        _verify_checks(monkeypatch, ScenarioConfig(), *POOLED)
    dead = int(re.fullmatch(r"worker process (\d+) ended during the call "
                            r"with exit status -9", str(failed.value))[1])
    assert experiments._workers == []
    assert _verify_checks(monkeypatch, ScenarioConfig(), *POOLED) == serial
    assert len(_worker_pids()) == 2 and dead not in _worker_pids()


# runs one pooled verify, prints its workers' pids, then waits for stdin to close
_POOLED_CALLER = """
import sys
from carbongame import ScenarioConfig, experiments, run_verify
experiments._usable_cpus = lambda: 2
run_verify(ScenarioConfig())
print(*(pid for pid, _, _ in experiments._workers), flush=True)
sys.stdin.read()
"""


def _running(pid: int) -> bool:
    """Whether pid runs; a zombie, which only waits to be reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_no_worker_outlives_its_caller(end):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-c", _POOLED_CALLER], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as caller:
        pids = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(pids) == 2 and all(map(_running, pids))
        # stdio and each worker's own two pipe ends, nothing of the caller's
        assert [len(os.listdir(f"/proc/{pid}/fd")) for pid in pids] == [5, 5]
        if end == "sigkill":
            caller.kill()
    assert caller.returncode == (-signal.SIGKILL if end == "sigkill" else 0)
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(map(_running, pids))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_match_the_reference_solutions():
    spec = SweepSpec(parameter="mu_f", values=(1.0, 1.5, 2.0), modes=("gd",))
    artifacts = run_sweep(spec, ScenarioConfig(sim=QUICK_SIM))
    rows = _rows(artifacts["sweep.csv"])
    assert rows[0] == ["mode", "parameter", "value", *RESPONSES, "status"]
    assert len(rows) == 4
    by_value = {float(r[2]): r for r in rows[1:]}
    h_d = dict(zip(rows[0], by_value[1.5]))["H_d"]
    assert float(h_d) == pytest.approx(CASES["baseline"]["gd"]["H_d"], rel=1e-9)
    h_d2 = dict(zip(rows[0], by_value[2.0]))["H_d"]
    assert float(h_d2) == pytest.approx(
        CASES["strong_farmer_impact"]["gd"]["H_d"], rel=1e-9)
    report = artifacts["run_report.json"]
    assert report["command"] == "sweep"
    assert report["failed_rows"] == 0
    peaks = {p["response"]: p for p in report["argmax"] if p["mode"] == "gd"}
    assert peaks["H_d"]["argmax_parameter_value"] == 2.0
    assert peaks["H_d"]["interior_peak"] is False
    assert peaks["H_d"]["points"] == 3


def _sweep_by_solutions(spec: SweepSpec, config: ScenarioConfig) -> tuple:
    """sweep.csv as rows built from solve_many's entries through their
    policies, values and profits.total_value_at, and the failed rows'
    classes per mode."""
    base = config.effective_params
    cells = [base.replace(**{spec.parameter: value}) for value in spec.values]
    rows, failed = [], {}
    for mode in config.modes if spec.modes is None else spec.modes:
        failed[mode.value] = {}
        for value, entry in zip(spec.values, solve_many(mode, cells, config.solver)):
            if isinstance(entry, Exception):
                metrics, status = {}, f"error: {entry}"
                name = type(entry).__name__
                failed[mode.value][name] = failed[mode.value].get(name, 0) + 1
            else:
                H_d, values, status = entry.H_d, entry.values, "ok"
                metrics = {
                    "H_d": H_d,
                    "E_f_at_H_d": entry.policies["farmer"].effort(H_d),
                    "E_r_at_H_d": entry.policies["retailer"].effort(H_d),
                    "farmer_value_at_H_d": values["farmer"].value(H_d)
                    if "farmer" in values else None,
                    "retailer_value_at_H_d": values["retailer"].value(H_d)
                    if "retailer" in values else None,
                    "total_value_at_H_d": profits.total_value_at(entry, H_d)}
            rows.append([mode.value, spec.parameter, repr(value),
                         *(experiments._fmt(metrics.get(r)) for r in spec.responses),
                         status])
    header = ["mode", "parameter", "value", *spec.responses, "status"]
    return experiments._csv_table(header, rows), failed


def _e1_line(seed: int) -> tuple:
    """A base drawn in e^+-1 around the baseline, and one of its drawn
    parameters swept over e^+-1 around the base."""
    rng = np.random.default_rng(seed)
    drawn = ("lambda_f", "lambda_r", "mu_f", "mu_r", "omega", "p_c", "delta",
             "rho", "theta")
    base = ModelParams().replace(**{name: getattr(ModelParams(), name)
                                    * float(np.exp(rng.uniform(-1.0, 1.0)))
                                    for name in drawn})
    name = drawn[seed % len(drawn)]
    values = getattr(base, name) * np.exp(np.linspace(-1.0, 1.0, 17))
    return SweepSpec(parameter=name, values=values), ScenarioConfig(params=base)


PC_LINE = SweepSpec(parameter="p_c", values=np.linspace(0.0, 2.5, 40))
SWEEP_LINES = {
    **{f"e1-{seed}": _e1_line(seed) for seed in (3, 11, 14, 26)},
    "invalid-values": (SweepSpec(parameter="lambda_f",
                                 values=[-1.0, 0.0, 1e-300, 500.0, 1e300]),
                       ScenarioConfig()),
    "invalid-base": (SweepSpec(parameter="p_c", values=[0.5, 1.0]),
                     ScenarioConfig(params=ModelParams(rho=True))),
    "int-base": (SweepSpec(parameter="rho", values=[-0.7, 0.7]),
                 ScenarioConfig(params=ModelParams(rho=-1, Q0=300, D0=250, p=25))),
    "paper-backend": (PC_LINE, ScenarioConfig(
        solver=SolverConfig(backend="paper-closed-form"))),
    "paper-printed": (PC_LINE, ScenarioConfig(
        solver=SolverConfig(follower_convention="paper-printed"))),
    "no-sink-trading": (SweepSpec(parameter="mu_f", values=np.linspace(0.5, 3.0, 9)),
                        ScenarioConfig(sink_trading=False)),
}


@pytest.mark.parametrize("chunk", [experiments.SWEEP_CHUNK, 7])
@pytest.mark.parametrize("line", sorted(SWEEP_LINES))
def test_sweep_rows_are_those_of_the_solutions(monkeypatch, line, chunk):
    # the array stage's columns give every row the solutions give, error
    # strings included, in one part or in parts of 7 cells
    monkeypatch.setattr(experiments, "SWEEP_CHUNK", chunk)
    spec, config = SWEEP_LINES[line]
    artifacts = run_sweep(spec, config)
    table, failed = _sweep_by_solutions(spec, config)
    assert artifacts["sweep.csv"] == table
    report = artifacts["run_report.json"]
    assert report["failed_rows_by_class"] == failed
    assert report["failed_rows"] == sum(sum(f.values()) for f in failed.values())


def test_sweep_and_compare_agree_to_the_last_digit(baseline_compare):
    spec = SweepSpec(parameter="mu_f", values=(1.5,), modes=("gd",))
    sweep_rows = _rows(run_sweep(spec, ScenarioConfig(sim=QUICK_SIM))["sweep.csv"])
    sweep_H_d = dict(zip(sweep_rows[0], sweep_rows[1]))["H_d"]
    compare_H_d = _summary_by_cell(baseline_compare)[("gd", "on")]["H_d"]
    assert sweep_H_d == compare_H_d


def test_sweep_keeps_failed_points_as_rows():
    spec = SweepSpec(parameter="p_c", values=(0.0, 2.5), modes=("gd",))
    artifacts = run_sweep(spec, ScenarioConfig(sim=QUICK_SIM))
    rows = _rows(artifacts["sweep.csv"])
    assert len(rows) == 3
    ok, bad = rows[1], rows[2]
    assert ok[-1] == "ok"
    assert bad[-1].startswith("error: complex root: discriminant Delta^GD")
    assert all(cell == "" for cell in bad[3:-1])
    report = artifacts["run_report.json"]
    assert report["failed_rows"] == 1
    assert report["failed_rows_by_class"] == {"gd": {"ComplexRootError": 1}}
    peak = [p for p in report["argmax"] if p["response"] == "H_d"][0]
    assert peak["points"] == 1


def test_sweep_peak_is_interior_by_parameter_value_not_row_order():
    # H_d rises with p_c, so the peak is at the largest value, listed second
    spec = SweepSpec(parameter="p_c", values=(0.0, 1.0, 0.5),
                     responses=("H_d",))
    artifacts = run_sweep(spec, ScenarioConfig(modes=("gc",), sim=QUICK_SIM))
    assert [row[2] for row in _rows(artifacts["sweep.csv"])[1:]] == [
        "0.0", "1.0", "0.5"]
    [peak] = artifacts["run_report.json"]["argmax"]
    assert peak["argmax_parameter_value"] == 1.0
    assert peak["interior_peak"] is False
    # a peak at the middle value is interior even when listed last
    solved = [(v, {"H_d": q}) for v, q in ((0.0, 1.0), (1.0, 2.0), (0.5, 3.0))]
    [peak] = _sweep_argmax(ALL_MODES[0], ("H_d",), solved)
    assert peak["mode"] == "gd"
    assert peak["argmax_parameter_value"] == 0.5
    assert peak["interior_peak"] is True


def test_sweep_argmax_skips_a_response_blank_in_every_row():
    # gc has no per-role values, so its farmer value has no peak; each mode's
    # peaks follow the mode order, then the response order
    spec = SweepSpec(parameter="p_c", values=(0.5, 1.0),
                     responses=("farmer_value_at_H_d", "H_d"),
                     modes=("gc", "gd"))
    artifacts = run_sweep(spec, ScenarioConfig(sim=QUICK_SIM))
    rows = _rows(artifacts["sweep.csv"])
    assert [(r[0], r[3], r[-1]) for r in rows[1:3]] == [("gc", "", "ok")] * 2
    peaks = artifacts["run_report.json"]["argmax"]
    assert [(p["mode"], p["response"], p["points"]) for p in peaks] == [
        ("gc", "H_d", 2), ("gd", "farmer_value_at_H_d", 2), ("gd", "H_d", 2)]


def test_sweep_without_a_spec_is_an_error():
    with pytest.raises(ConfigError, match="no sweep specified"):
        run_sweep(None, ScenarioConfig(sim=QUICK_SIM))


def test_a_sink_price_sweep_needs_sink_trading():
    # the swept p_c replaces the zero price sink_trading=False sets, so every
    # nonzero point would trade sinks under a report that says it does not
    spec = SweepSpec(parameter="p_c", values=(0.0, 0.5))
    message = "^sweep parameter 'p_c' needs sink trading, but sink_trading is false$"
    with pytest.raises(ConfigError, match=message):
        run_sweep(spec, ScenarioConfig(sink_trading=False))
    with pytest.raises(ConfigError, match=message):
        run_sweep(None, ScenarioConfig(sink_trading=False, sweep=spec))
    # any other parameter sweeps with sink trading off
    other = SweepSpec(parameter="mu_f", values=(1.5,), modes=("gd",))
    rows = _rows(run_sweep(other, ScenarioConfig(sink_trading=False))["sweep.csv"])
    assert float(rows[1][3]) == solve("gd", ModelParams(p_c=0.0)).H_d


# ---------------------------------------------------------------------------
# verify and emission
# ---------------------------------------------------------------------------

def test_verify_baseline_passes_every_check():
    artifacts = run_verify(ScenarioConfig())
    report = artifacts["run_report.json"]
    assert report["command"] == "verify"
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 14
    assert names.count("subsidy-share-range-gs") == 1
    assert "steady-state-ordering" in names
    assert "joint-value-ordering" in names
    for check in report["checks"]:
        assert check["passed"] is True, check["name"]
    scan = [c for c in report["checks"] if c["name"] == "hjb-residual-scan-gd"][0]
    assert scan["metric"] <= scan["tolerance"]


def test_verify_reports_failures_without_raising():
    config = ScenarioConfig(params=ModelParams(lambda_f=350.0, p_c=1.2),
                            modes="gc")
    report = run_verify(config)["run_report.json"]
    assert report["passed"] is False
    solve_check = [c for c in report["checks"] if c["name"] == "solve-gc"][0]
    assert solve_check["passed"] is False
    assert "unstable model" in solve_check["note"]


def test_verify_fails_value_consistency_on_a_diverging_rk4_step():
    report = run_verify(ScenarioConfig(modes="gd", sim=DIVERGING_RK4))
    report = report["run_report.json"]
    assert report["passed"] is False
    check = [c for c in report["checks"]
             if c["name"] == "value-consistency-gd"][0]
    assert check["passed"] is False
    assert "is not finite from t = " in check["note"]
    assert "step h = 10.0" in check["note"]


def test_emit_results_writes_and_reports_paths(tmp_path):
    target = tmp_path / "nested" / "out"
    artifacts = {"table.csv": "a,b\n1,2\n", "report.json": {"z": 1, "a": [2]}}
    written = emit_results(artifacts, target)
    assert [p.rsplit("/", 1)[-1] for p in written] == ["table.csv", "report.json"]
    assert (target / "table.csv").read_text() == "a,b\n1,2\n"
    text = (target / "report.json").read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"z": 1, "a": [2]}
    assert text.index('"a"') < text.index('"z"')   # sorted keys


def test_emit_results_cleans_up_on_failure(tmp_path):
    target = tmp_path / "out"
    for bad, message in (({"bad.bin": 123}, "artifact 'bad.bin' must be text"),
                         ({"bad.json": {"value": object()}},
                          "^object is not JSON serializable$")):
        with pytest.raises(TypeError, match=message):
            emit_results({"good.csv": "x\n", **bad}, target)
        assert list(target.iterdir()) == []


def test_emit_results_writes_numpy_values_as_plain_json(tmp_path):
    report = {"scalar": np.float64(0.25), "count": np.int64(3),
              "flag": np.bool_(True), "row": np.array([1.5, -2.0])}
    emit_results({"report.json": report}, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == {
        "scalar": 0.25, "count": 3, "flag": True, "row": [1.5, -2.0]}


"""Config parsing, comparison/sweep/verify runners, and artifact emission."""

import csv
import io
import json
import os
import pickle

import pytest

import carbongame
from carbongame import (
    ComplexRootError,
    ConfigError,
    HorizonError,
    ModelParams,
    OracleError,
    ParameterError,
    ScenarioConfig,
    SimConfig,
    SimulationError,
    SolverConfig,
    SolverError,
    SweepSpec,
    UnstableModelError,
    emit_results,
    load_config,
    run_compare,
    run_sweep,
    run_verify,
)
from carbongame import experiments, oracle
from carbongame.experiments import (
    RESPONSES,
    SUMMARY_COLUMNS,
    _json_default,
    _sweep_argmax,
)

from reference_values import CASES

QUICK_SIM = SimConfig(T=2.0, h=0.1)


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
    with pytest.raises(ConfigError, match="is not a model parameter"):
        SweepSpec(parameter="size", values=(1.0,))
    with pytest.raises(ConfigError, match="unknown sweep response 'alpha'"):
        SweepSpec(parameter="mu_f", values=(1.0,), responses=("alpha",))
    with pytest.raises(ConfigError, match="sweep values must be a non-empty list"):
        SweepSpec(parameter="mu_f", values=())


def test_scenario_config_validation():
    with pytest.raises(ConfigError, match="must be 'all', a mode name"):
        ScenarioConfig(modes=[])
    single = ScenarioConfig(modes="gs")
    assert [m.value for m in single.modes] == ["gs"]


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


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(sim=RK4),
    ScenarioConfig(params=ModelParams(p_c=0.0), sim=QUICK_SIM),
    ScenarioConfig(modes="gd", sim=DIVERGING_RK4),
], ids=["exact", "rk4", "one-cell-per-mode", "diverging-rk4"])
def test_pooled_and_serial_compare_agree(monkeypatch, tmp_path, config):
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
    for cpus in (1, 2):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
        runs[cpus] = run_compare(config)
        ran_in, parent = set(pids.read_text().split()), str(os.getpid())
        pids.unlink()
        assert (ran_in == {parent}) if cpus == 1 else (parent not in ran_in)
    serial, pooled = runs[1], runs[2]
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


ERRORS = [SolverError("no candidates for the stable branch"),
          ComplexRootError("Delta^GD", -2.5e-3),
          UnstableModelError([0.25, 1.5]),
          ParameterError("rho > 0 violated (got -1.0)"),
          SimulationError("no attracting steady state: alpha = 0.1 >= 0"),
          HorizonError("horizon too short"),
          OracleError("policy iteration did not converge"),
          ConfigError("unknown config key 'x'")]


def test_every_public_error_survives_a_pickle_round_trip():
    # a worker process returns a cell's error to the parent through pickle
    public = {obj for obj in map(carbongame.__dict__.get, carbongame.__all__)
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert {type(e) for e in ERRORS} == public
    for error in ERRORS:
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is type(error)
        assert str(again) == str(error)
        assert vars(again) == vars(error)


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
    rows_meta = [{"mode": "gd", "value": v, "metrics": {"H_d": q}}
                 for v, q in ((0.0, 1.0), (1.0, 2.0), (0.5, 3.0))]
    [peak] = _sweep_argmax(rows_meta)
    assert peak["argmax_parameter_value"] == 0.5
    assert peak["interior_peak"] is True


def test_sweep_without_a_spec_is_an_error():
    with pytest.raises(ConfigError, match="no sweep specified"):
        run_sweep(None, ScenarioConfig(sim=QUICK_SIM))


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
    artifacts = {"good.csv": "x\n", "bad.bin": 123}
    with pytest.raises(TypeError, match="artifact 'bad.bin' must be text"):
        emit_results(artifacts, target)
    assert list(target.iterdir()) == []

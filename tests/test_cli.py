"""Command-line behavior: argument plumbing, output layout, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carbongame
from carbongame import TRAJECTORY_COLUMNS
from carbongame.cli import main

from reference_values import CASES

FAST = ["--horizon", "2.0", "--step", "0.1"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _printed(lines, name):
    hits = [line for line in lines if line.startswith(f"{name} = ")]
    assert len(hits) == 1, f"{name}: {hits}"
    return float(hits[0].split(" = ", 1)[1])


def test_solve_prints_coefficients_and_policies(capsys):
    code, out, _ = _run(capsys, ["solve", "--mode", "gd"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[gd]"
    assert lines[1] == "backend = residual"
    gd = CASES["baseline"]["gd"]
    for name in ("A", "M", "alpha", "H_d"):
        assert _printed(lines, name) == pytest.approx(gd[name], rel=1e-9)
    assert any(line.startswith("E_f = ") and " * H + " in line for line in lines)
    assert any(line.startswith("max_hjb_residual = ") for line in lines)
    assert not any(line.startswith("x_f") for line in lines)


def test_solve_all_modes_in_order(capsys):
    code, out, _ = _run(capsys, ["solve", "--mode", "all"])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == ["[gd]", "[gs]", "[gc]"]
    assert any(line.startswith("x_f = (") and ") / (" in line
               for line in blocks[1].splitlines())
    assert "F = " in blocks[1]
    gc_lines = blocks[2].splitlines()
    assert not any(line.startswith(("M = ", "N = ")) for line in gc_lines)
    assert _printed(gc_lines, "A") == pytest.approx(
        CASES["baseline"]["gc"]["A"], rel=1e-9)


def test_solve_honors_config_file(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"lambda_f": 350.0, "p_c": 1.2}))
    code, out, _ = _run(capsys, ["solve", "--config", str(path),
                                 "--mode", "gd"])
    assert code == 0
    gd = CASES["cheap_abatement_pricey_sink"]["gd"]
    assert _printed(out.splitlines(), "A") == pytest.approx(gd["A"], rel=1e-9)


def test_solve_backend_flag(capsys):
    code, out, _ = _run(capsys, ["solve", "--mode", "gc",
                                 "--backend", "paper"])
    assert code == 0
    assert "backend = paper-closed-form" in out.splitlines()


def test_no_sink_trading_matches_a_zero_price(capsys, tmp_path):
    code, toggled, _ = _run(capsys, ["solve", "--mode", "gd",
                                     "--no-sink-trading"])
    assert code == 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"p_c": 0.0}))
    code, zeroed, _ = _run(capsys, ["solve", "--mode", "gd",
                                    "--config", str(path)])
    assert code == 0
    assert toggled == zeroed


def test_simulate_prints_one_trajectory(capsys):
    code, out, _ = _run(capsys, ["simulate", "--mode", "gs", *FAST])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 22          # header plus T/h + 1 samples
    assert out.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.1


def test_simulate_refuses_multiple_modes_on_stdout(capsys):
    code, _, err = _run(capsys, ["simulate", *FAST])
    assert code == 1
    assert err.strip() == ("error: simulate prints a single mode to standard "
                           "output; pass --mode gd|gs|gc or --out DIR")


def test_simulate_writes_one_file_per_mode(capsys, tmp_path):
    out_dir = tmp_path / "runs"
    code, out, err = _run(capsys, ["simulate", "--mode", "all", *FAST,
                                   "--out", str(out_dir)])
    assert code == 0
    assert out == ""
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["run_report.json", "trajectory_gc.csv",
                     "trajectory_gd.csv", "trajectory_gs.csv"]
    assert err.count("wrote ") == 4
    table = (out_dir / "trajectory_gd.csv").read_text()
    assert table.splitlines()[0] == ",".join(TRAJECTORY_COLUMNS)


@pytest.mark.parametrize("command", ["solve", "simulate", "compare", "sweep",
                                     "verify"])
def test_every_report_opens_with_one_envelope(capsys, tmp_path, command):
    # verify keeps the default grid, whose horizon its value checks need
    grid = [] if command == "verify" else FAST
    argv = [command, "--mode", "gd", *grid, "--out", str(tmp_path)]
    if command == "sweep":
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": {"parameter": "p_c",
                                              "values": [0.5]}}))
        argv += ["--config", str(path)]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["command"] == command
    assert report["timestamp"].endswith("+00:00")
    assert set(report["versions"]) == {"carbongame", "numpy", "python"}
    assert report["config"]["modes"] == ["gd"]
    T, h = (40.0, 0.01) if command == "verify" else (2.0, 0.1)
    assert report["config"]["sim"] == {"T": T, "h": h, "integrator": "exact"}


def test_compare_prints_the_summary_table(capsys):
    code, out, _ = _run(capsys, ["compare", "--mode", "gd", *FAST])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mode,sink_trading,A,B,C,M,N,F,alpha,H_d,")
    assert len(lines) == 3           # with and without sink trading
    assert lines[1].startswith("gd,on,")
    assert lines[2].startswith("gd,off,")


def test_compare_out_directory_is_reproducible(capsys, tmp_path):
    args = ["compare", "--mode", "gd", *FAST]
    code, _, _ = _run(capsys, [*args, "--out", str(tmp_path / "a")])
    assert code == 0
    code, _, _ = _run(capsys, [*args, "--out", str(tmp_path / "b")])
    assert code == 0
    read = lambda d, n: (tmp_path / d / n).read_text()
    assert read("a", "summary.csv") == read("b", "summary.csv")
    assert read("a", "trajectory_gd_sink_on.csv") == \
        read("b", "trajectory_gd_sink_on.csv")
    reports = [json.loads(read(d, "run_report.json")) for d in ("a", "b")]
    for report in reports:
        report.pop("timestamp")
        report["config"].pop("out")
    assert reports[0] == reports[1]


def test_sweep_uses_the_config_section(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "sim": {"T": 2.0, "h": 0.1},
        "sweep": {"parameter": "mu_f", "values": [1.0, 1.5],
                  "modes": ["gd"], "responses": ["H_d", "E_f_at_H_d"]},
    }))
    code, out, _ = _run(capsys, ["sweep", "--config", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode,parameter,value,H_d,E_f_at_H_d,status"
    assert len(lines) == 3
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["mode"] == "gd" and row["value"] == "1.5"
    assert float(row["H_d"]) == pytest.approx(CASES["baseline"]["gd"]["H_d"],
                                              rel=1e-9)
    assert row["status"] == "ok"


def test_sweep_without_a_section_fails_cleanly(capsys):
    code, _, err = _run(capsys, ["sweep"])
    assert code == 1
    assert err.startswith("error: no sweep specified")


@pytest.mark.parametrize("doc, where", [
    ({"modes": ["gd", "gd"]}, "modes"),
    ({"sweep": {"parameter": "p_c", "values": [1.0], "modes": ["gs", "GS"]}},
     "sweep modes"),
], ids=["scenario", "sweep"])
def test_a_mode_listed_twice_exits_one(capsys, tmp_path, doc, where):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["sweep", "--config", str(path)])
    assert (code, out) == (1, "")
    mode = doc.get("modes", ["gs"])[0]
    assert err == f"error: {where} lists mode '{mode}' twice\n"


def test_a_response_listed_twice_exits_one(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"sweep": {"parameter": "p_c", "values": [0.5],
                                          "responses": ["H_d", "H_d"]}}))
    code, out, err = _run(capsys, ["sweep", "--config", str(path)])
    assert (code, out, err) == (1, "", "error: sweep responses list 'H_d' twice\n")


@pytest.mark.parametrize("flag, modes", [("gs", ["gs"]), ("all", ["gd", "gs", "gc"])])
def test_the_mode_flag_overrides_the_sweep_modes(capsys, tmp_path, flag, modes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"sweep": {"parameter": "p_c", "values": [0.1, 0.5],
                                          "modes": ["gd"]}}))
    out_dir = tmp_path / "out"
    code, _, _ = _run(capsys, ["sweep", "--config", str(path), "--mode", flag,
                               "--out", str(out_dir)])
    assert code == 0
    rows = [line.split(",") for line in
            (out_dir / "sweep.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[2], r[-1]) for r in rows] == [
        (mode, value, "ok") for mode in modes for value in ("0.1", "0.5")]
    report = json.loads((out_dir / "run_report.json").read_text())
    assert report["sweep"]["modes"] == modes
    assert report["config"]["sweep"]["modes"] is None
    # without the flag the section's modes hold
    code, out, _ = _run(capsys, ["sweep", "--config", str(path)])
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["gd", "gd"]


@pytest.mark.parametrize("doc, flags", [({"sink_trading": False}, []),
                                        ({}, ["--no-sink-trading"])],
                         ids=["config", "flag"])
def test_a_sink_price_sweep_without_sink_trading_exits_one(capsys, tmp_path, doc,
                                                           flags):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**doc, "sweep": {"parameter": "p_c",
                                                 "values": [0.0, 0.5]}}))
    code, out, err = _run(capsys, ["sweep", "--config", str(path), *flags])
    assert (code, out) == (1, "")
    assert err == ("error: sweep parameter 'p_c' needs sink trading, "
                   "but sink_trading is false\n")


def test_verify_single_mode_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--mode", "gd"])
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS hjb-residual-scan-gd metric=")
               for line in lines)
    assert any(line.startswith("PASS value-consistency-gd-farmer")
               for line in lines)
    assert any(line.startswith("PASS equilibrium-certification-gd")
               for line in lines)
    assert lines[-1] == "overall: PASS (4 checks)"
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_flags_the_closed_form_backend(capsys):
    code, out, _ = _run(capsys, ["verify", "--mode", "gd",
                                 "--backend", "paper"])
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL hjb-residual-scan-gd") for line in lines)
    assert lines[-1].startswith("overall: FAIL")


def test_verify_writes_the_report(capsys, tmp_path):
    out_dir = tmp_path / "verify"
    code, _, _ = _run(capsys, ["verify", "--mode", "gd",
                               "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "run_report.json").read_text())
    assert report["command"] == "verify"
    assert report["passed"] is True


def test_errors_reach_stderr_with_exit_one(capsys, tmp_path):
    code, _, err = _run(capsys, ["solve", "--config",
                                 str(tmp_path / "missing.json")])
    assert code == 1
    assert err.startswith("error: ")

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lambda_f": -1}))
    code, _, err = _run(capsys, ["solve", "--config", str(path)])
    assert code == 1
    assert "lambda_f > 0 violated" in err


@pytest.mark.parametrize("command", ["compare", "simulate", "sweep"])
def test_empty_out_directory_is_a_config_error(capsys, tmp_path, monkeypatch,
                                               command):
    # an empty path would resolve to the working directory
    path = tmp_path / "empty_out.json"
    path.write_text(json.dumps({"out": "", "modes": "gd",
                                "sweep": {"parameter": "p_c",
                                          "values": [0.5]}}))
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, [command, "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error: config field out must be a non-empty string, "
                   "got ''\n")
    assert [p.name for p in tmp_path.iterdir()] == ["empty_out.json"]


@pytest.mark.parametrize("config_out", [None, "from_config"])
def test_empty_out_flag_is_a_config_error(capsys, tmp_path, monkeypatch,
                                          config_out):
    # an empty flag is refused, not read as no flag: it neither prints to
    # standard output nor falls back to the config's directory
    argv = ["compare", "--mode", "gd", *FAST, "--out", ""]
    if config_out is not None:
        path = tmp_path / "with_out.json"
        path.write_text(json.dumps({"out": config_out}))
        argv += ["--config", str(path)]
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == ("error: config field out must be a non-empty string, "
                   "got ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["compare", "simulate", "verify"])
def test_negative_initial_level_is_a_config_error(capsys, tmp_path, command):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"H0": -1.0}))
    code, out, err = _run(capsys, [command, "--config", str(path),
                                   "--mode", "gd"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "H0 >= 0 violated (got -1.0)" in err


@pytest.mark.parametrize("command", ["compare", "simulate", "verify"])
def test_initial_level_is_not_a_sim_key(capsys, tmp_path, command):
    # the initial level is the model parameter H0 alone
    path = tmp_path / "sim_h0.json"
    path.write_text(json.dumps({"sim": {"H0": 3.0}}))
    code, out, err = _run(capsys, [command, "--config", str(path),
                                   "--mode", "gd"])
    assert code == 1
    assert out == ""
    assert err == ("error: unknown sim key 'H0'; expected a subset of "
                   "T, h, integrator\n")


def test_verify_simulates_from_the_model_initial_level(capsys, tmp_path):
    # the trajectory and the analytic value at H0 start from one level
    path = tmp_path / "h0.json"
    path.write_text(json.dumps({"H0": 3.0}))
    code, out, _ = _run(capsys, ["verify", "--config", str(path),
                                 "--mode", "gd"])
    assert code == 0
    lines = out.splitlines()
    for role in ("farmer", "retailer"):
        assert any(line.startswith(f"PASS value-consistency-gd-{role} ")
                   for line in lines), out
    assert lines[-1] == "overall: PASS (4 checks)"


@pytest.mark.parametrize("grid", [["--horizon", "inf"],
                                  ["--horizon", "1e300", "--step", "1e-300"]],
                         ids=["infinite-horizon", "overflowing-sample-count"])
def test_unbounded_sampling_grid_exits_one(capsys, grid):
    code, out, err = _run(capsys, ["simulate", "--mode", "gd", *grid])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_an_integer_beyond_float_range_exits_one(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"Q0": 1' + "0" * 400 + "}")
    code, out, err = _run(capsys, ["solve", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err == ("error: config field Q0 must be a finite number, got an "
                   "integer of 401 digits\n")


def test_solve_prints_each_flag_on_its_own_line(capsys, tmp_path):
    # at p_c = 1 the leader's subsidy share leaves [0, 1) below 2*H_d
    path = tmp_path / "pricey_sink.json"
    path.write_text(json.dumps({"p_c": 1.0}))
    code, out, _ = _run(capsys, ["solve", "--mode", "gs", "--config", str(path)])
    assert code == 0
    flags = [line for line in out.splitlines() if line.startswith("flag: ")]
    assert flags == ["flag: x_f outside [0, 1) on part of [0, 25.13] "
                     "(first at H = 12.57, last at H = 25.13)"]


def test_diverging_rk4_step_exits_one(capsys, tmp_path):
    path = tmp_path / "rk4.json"
    path.write_text(json.dumps({"sim": {"integrator": "fourth-order-fixed-step"}}))
    code, out, err = _run(capsys, ["simulate", "--config", str(path),
                                   "--mode", "gd", "--horizon", "4000",
                                   "--step", "10"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: fourth-order-fixed-step path is not finite")
    assert "step h = 10.0" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# --- every runtime path runs without scipy ---------------------------------

_SRC = str(Path(carbongame.__file__).resolve().parents[1])

_PROGRAM = """
import sys
sys.modules["scipy"] = None   # every scipy import now raises ImportError
import carbongame
from carbongame.cli import main
code = main({argv!r}) if {argv!r} else 0
loaded = sorted(name for name, module in sys.modules.items()
                if module is not None)
print("LOADED:" + ",".join(loaded))
sys.exit(code)
"""


def _fresh_process(argv):
    """The modules loaded after running argv in a new interpreter, with
    every scipy import blocked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM.format(argv=argv)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    marker, _, loaded = proc.stdout.splitlines()[-1].partition(":")
    assert marker == "LOADED"
    return [name for name in loaded.split(",") if name]


@pytest.mark.parametrize("argv", [[], ["solve", "--mode", "all"], ["compare"],
                                  ["sweep"], ["verify", "--mode", "all"]],
                         ids=["import", "solve", "compare", "sweep", "verify"])
def test_runtime_paths_run_with_scipy_blocked(argv, tmp_path):
    if argv == ["compare"]:
        argv = ["compare", "--out", str(tmp_path / "cmp")]
    if argv == ["sweep"]:
        # 40 points per mode through the batched solver, some past the
        # gd and gc complex-root thresholds
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": {"parameter": "p_c", "min": 0.0,
                                                "max": 2.5, "count": 40}}))
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "sw")]
    assert [m for m in _fresh_process(argv) if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv", [[], ["solve", "--mode", "all"]],
                         ids=["import", "solve"])
def test_process_pool_modules_load_only_for_compare(argv):
    # compare imports them when it forks its workers; about 17 ms that
    # would otherwise land on every cold start
    loaded = _fresh_process(argv)
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded

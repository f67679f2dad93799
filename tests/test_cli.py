"""CLI behavior: files written, exit codes, flag handling."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tiltobs
from tiltobs.cli import main
from tiltobs.harness import CSV_HEADER, SWEEP_HEADER, config_text, load_config


def read_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_simulate_writes_outputs(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "run.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 1002
    report = read_report(tmp_path / "report.txt")
    assert float(report["tilt_convergence_time"]) <= 1.5
    echoed = load_config(tmp_path / "effective.cfg")
    assert echoed.gains.alpha == 19.8
    assert "run.csv" in capsys.readouterr().out


def test_simulate_config_and_seed_override(tmp_path):
    cfg_path = tmp_path / "my.cfg"
    cfg_path.write_text(
        "duration = 1.0\nnoise.gyro_std = 0.04\noutput.csv = series.csv\n"
    )
    rc = main([
        "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--seed", "7",
    ])
    assert rc == 0
    assert (tmp_path / "o" / "series.csv").exists()
    echoed = load_config(tmp_path / "o" / "effective.cfg")
    assert echoed.seed == 7
    assert echoed.duration == 1.0


def test_analyze_report_facts(tmp_path):
    rc = main(["analyze", "--out", str(tmp_path), "--basin-samples", "50"])
    assert rc == 0
    report = read_report(tmp_path / "analysis.txt")
    assert float(report["gain_ratio"]) == pytest.approx(0.2502295684113866)
    assert float(report["unstable_root"]) == pytest.approx(6.125115478765394)
    assert float(report["field_norm_at_zero"]) <= 1e-12
    assert float(report["field_norm_at_flipped"]) <= 1e-12
    assert report["basin_converged"] == "50"
    assert report["basin_v_monotone"] == "True"
    quantiles = [float(report[f"basin_convergence_s.p{q}"]) for q in (50, 90, 99)]
    assert quantiles == sorted(quantiles)
    assert 0.0 < quantiles[0] and quantiles[-1] <= float(report["basin_slowest_convergence_s"])


def test_analyze_huge_basin_fails_cleanly(tmp_path, capsys):
    # a 4.8 GB record: refused before the basin is drawn
    tracemalloc.start()
    try:
        rc = main(["analyze", "--out", str(tmp_path), "--basin-samples", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --basin-samples 100000: a batch of 100000 starts")
    assert peak < 1_000_000
    assert not (tmp_path / "analysis.txt").exists()


def test_sweep_grid(tmp_path):
    rc = main([
        "sweep", "--out", str(tmp_path),
        "--alphas", "19.8,1.0", "--betas", "10",
    ])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert ",ok," in lines[1]
    assert ",rejected," in lines[2]


def test_sweep_base_config_may_break_the_gain_rule(tmp_path, capsys):
    # every cell replaces the base gains, so only the other keys are checked
    bad_gains = tmp_path / "bad_gains.cfg"
    bad_gains.write_text("gains.alpha = 1.0\ngains.beta = 10.0\n")
    rc = main([
        "sweep", "--config", str(bad_gains), "--out", str(tmp_path / "o"),
        "--alphas", "19.8", "--betas", "10",
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["ok"]

    bad_dt = tmp_path / "bad_dt.cfg"
    bad_dt.write_text("dt = -0.1\n")
    rc = main([
        "sweep", "--config", str(bad_dt), "--out", str(tmp_path / "p"),
        "--alphas", "19.8", "--betas", "10",
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: dt ")
    assert not (tmp_path / "p" / "sweep.csv").exists()

    # no cell replaces g0: the base config's own is checked, before any cell runs
    bad_g0 = tmp_path / "bad_g0.cfg"
    bad_g0.write_text("gains.g0 = -9.81\n")
    rc = main([
        "sweep", "--config", str(bad_g0), "--out", str(tmp_path / "q"),
        "--alphas", "19.8", "--betas", "10",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: gains.g0 must be finite and positive, got -9.81\n"
    assert not (tmp_path / "q" / "sweep.csv").exists()
    assert not (tmp_path / "q" / "effective.cfg").exists()


def test_sweep_diverged_cell_keeps_the_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("duration = 0.5\n")
    rc = main([
        "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--alphas", "19.8,5000", "--betas", "1",
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["ok", "diverged"]
    assert "1 diverged" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["analyze", "--basin-samples", "0"], "--basin-samples"),
        (["analyze", "--basin-samples", "-3"], "--basin-samples"),
        (["simulate", "--threshold", "-1"], "--threshold"),
        (["sweep", "--alphas", "19.8", "--betas", "10", "--threshold", "-1"], "--threshold"),
        (["error-ode", "--dt", "0"], "--dt"),
        (["error-ode", "--duration", "-1"], "--duration"),
        (["error-ode", "--dt", "nan"], "--dt"),
        (["error-ode", "--terr0=nan,0,0"], "--terr0"),
        (["error-ode", "--terr0=inf,0,0"], "--terr0"),
        (["error-ode", "--terr0=0,0"], "--terr0"),
        (["error-ode", "--verr0=nan,0,0"], "--verr0"),
        (["error-ode", "--verr0=inf,0,0"], "--verr0"),
        (["sweep", "--alphas", "19.8,inf", "--betas", "10"], "--alphas"),
        (["sweep", "--alphas", "nan", "--betas", "10"], "--alphas"),
        (["sweep", "--alphas", "19.8", "--betas", "10,x"], "--betas"),
        (["sweep", "--alphas", "19.8", "--betas", ","], "--betas"),
    ],
)
def test_bad_numeric_flag_names_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path)])
    assert info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command", [["simulate"], ["sweep", "--alphas", "19.8", "--betas", "10"]]
)
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as info:
        main(command + ["--seed", "-1", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "argument --seed: must be an integer >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_negative_seed_in_config_names_the_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = -3\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


def test_error_ode_default_start_matches_simulator(tmp_path):
    rc = main(["error-ode", "--out", str(tmp_path), "--duration", "1"])
    assert rc == 0
    lines = (tmp_path / "error_ode.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    # default start: the config's requested tilt error projected onto the
    # sphere of unit estimates, i.e. the error the simulator applies
    assert first[4:7] == pytest.approx([-0.941208928, 0.140929679, 0.692974628])
    last = [float(v) for v in lines[-1].split(",")]
    assert last[7] < first[7]  # V dropped


def test_error_ode_explicit_start(tmp_path):
    rc = main([
        "error-ode", "--out", str(tmp_path),
        "--verr0", "0.1,0,0", "--terr0", "0,0.5,0", "--duration", "0.5",
    ])
    assert rc == 0
    lines = (tmp_path / "error_ode.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    assert first[1:4] == pytest.approx([0.1, 0.0, 0.0])
    terr = np.array(first[4:7])
    assert np.linalg.norm(np.array([0, 0, 1.0]) - terr) == pytest.approx(1.0)


def test_error_ode_degenerate_start_fails_cleanly(tmp_path, capsys):
    rc = main(["error-ode", "--out", str(tmp_path), "--terr0", "0,0,1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_error_ode_step_past_rk4_limit_fails_cleanly(tmp_path, capsys):
    # alpha*dt = 19.8 * 0.2 = 3.96 is past RK4's 2.785: the run would blow up
    rc = main(["error-ode", "--out", str(tmp_path), "--dt", "0.2", "--duration", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 0.2 ") and "alpha*dt = 3.96" in err
    assert not (tmp_path / "error_ode.csv").exists()


def test_overflowing_step_count_fails_cleanly(tmp_path, capsys):
    # duration / dt overflows to inf: an error line naming both, no traceback
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("duration = 1e300\ndt = 1e-300\n")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: duration / dt = 1e+300 / 1e-300 ")
    rc = main(["error-ode", "--out", str(tmp_path / "e"), "--duration", "1e300", "--dt", "1e-300"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: duration / dt = 1e+300 / 1e-300 ")
    assert not (tmp_path / "e" / "error_ode.csv").exists()


def test_bad_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gains.alpha = -5\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "gains.alpha" in err


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--out", str(tmp_path)])  # missing --alphas/--betas
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_module_entry_point(tmp_path):
    # the child imports the same sources as this test, however pytest found them
    src = str(Path(tiltobs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "tiltobs", "simulate", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "report.txt").exists()


COMMANDS = {
    "simulate": (["simulate"], "run.csv"),
    "analyze": (["analyze", "--basin-samples", "5"], "analysis.txt"),
    "sweep": (["sweep", "--alphas", "19.8", "--betas", "10"], "sweep.csv"),
    "error-ode": (["error-ode"], "error_ode.csv"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_effective_config_is_the_run_config(tmp_path, command):
    cfg_path = tmp_path / "my.cfg"
    cfg_path.write_text("duration = 0.5\ngains.alpha = 15.0\nseed = 2\n")
    argv, output = COMMANDS[command]
    out = tmp_path / "o"
    rc = main(argv + ["--config", str(cfg_path), "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert (out / output).exists()
    expected = load_config(cfg_path)
    expected.seed = 4
    assert config_text(load_config(out / "effective.cfg")) == config_text(expected)


@pytest.mark.parametrize(
    "argv,output",
    [
        (["error-ode", "--dt", "0.2", "--duration", "4"], "error_ode.csv"),
        (["analyze", "--basin-samples", "100000"], "analysis.txt"),
        (["error-ode", "--duration", "0.0004"], "error_ode.csv"),
    ],
)
def test_failing_run_saves_no_effective_config(tmp_path, argv, output):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / output).exists()
    assert not (tmp_path / "effective.cfg").exists()

"""CLI behavior: files written, exit codes, flag handling."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tiltobs
from tiltobs.cli import main
from tiltobs.harness import CSV_HEADER, SCHEMA, SWEEP_HEADER, config_text, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("config", ["reference", "noisy"])
def test_simulate_outputs_match_golden_digests(tmp_path, golden, config, seed):
    cfg_path = CONFIGS / f"{config}.cfg"
    rc = main(["simulate", "--config", str(cfg_path), "--seed", str(seed), "--out", str(tmp_path)])
    assert rc == 0
    cfg = load_config(cfg_path)
    for name in (cfg.output.csv, cfg.output.report, "effective.cfg"):
        golden(f"simulate {config}.cfg seed {seed}: {name}", tmp_path / name)


def test_simulate_of_whole_blocks_matches_golden_digest(tmp_path, golden):
    # 2048 steps: two whole blocks of 1024, the final mark joining the second
    cfg_path = tmp_path / "n2048.cfg"
    cfg_path.write_text("duration = 2.048\nnoise.gyro_std = 0.04\nnoise.accel_std = 0.2\n")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len((tmp_path / "o" / "run.csv").read_text().splitlines()) == 1 + 205 + 1
    for name in ("run.csv", "report.txt"):
        golden(f"simulate 2048 steps: {name}", tmp_path / "o" / name)


@pytest.mark.parametrize("key,group", [
    ("pivot.accel_amp", "pivot.*"),
    ("pivot.rate0", "pivot.*"),
    ("pivot.world_rotvec", "pivot.*"),
    ("mount.rate_amp", "mount.rate_*"),
])
def test_scene_that_overflows_is_named_by_its_keys(tmp_path, capsys, key, group):
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(f"duration = 1\n{key} = 1e300,0,0\n")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and group in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--alphas", "19.8,10", "--betas", "10"]])
def test_initial_attitude_that_overflows_is_named_by_its_key(tmp_path, capsys, argv):
    # a rotvec whose squared angle overflows makes a non-finite initial
    # attitude, which no pivot.* key made: the error names init.attitude_rotvec,
    # while one under the overflow runs
    for value, rc_want in (("0,0,1e155", 1), ("-1e300,0,0", 1), ("0,0,1e154", 0)):
        (tmp_path / "rv.cfg").write_text(
            f"duration = 0.01\ninit.attitude_mode = rotvec\ninit.attitude_rotvec = {value}\n")
        out = tmp_path / f"o{rc_want}"
        rc = main([*argv, "--config", str(tmp_path / "rv.cfg"), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == rc_want, (value, err)
        if rc_want:
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert "init.attitude_rotvec" in err[0] and "pivot" not in err[0], err
            assert not out.exists()


@pytest.mark.parametrize("line", [
    "mount.noise_std = 1e300",
    "noise.accel_std = 1e300",
    "noise.gyro_std = 1e300",
    "mount.kp = 1e160",
    "mount.p0 = 1e300,0,0",
    "mount.p_ref = 1e300,0,0",
])
def test_divergence_on_absurd_inputs_names_their_keys(tmp_path, capsys, line):
    # the observer's inputs stay finite, up to 1e301, but no pendulum makes them:
    # the block is refused before the observer steps it, naming the keys that
    # make them; every sweep cell shares those keys, so a sweep fails as a whole
    cfg_path = tmp_path / "absurd.cfg"
    cfg_path.write_text(f"duration = 1\n{line}\n")
    for argv in (["simulate"], ["sweep", "--alphas", "19.8,10", "--betas", "10"]):
        rc = main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "mount." in err[0] or "noise." in err[0], err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", [k for k, (_, _, parse) in SCHEMA.items() if parse is not str])
def test_numeric_key_at_any_magnitude_runs_or_fails_in_one_line(tmp_path, capsys, key):
    # every value, in both signs (for a vector, as its first or its last entry),
    # runs cleanly or fails with one error: line; no numpy warning reaches stderr
    vector = SCHEMA[key][2] is tiltobs.harness._parse_vec
    bad = []
    for value in (s + m for m in ("0", "1e-320", "1e-300", "1e160", "1e300") for s in "+-"):
        for text in ((f"{value},0,0", f"0,0,{value}") if vector else (value,)):
            (tmp_path / "fuzz.cfg").write_text(f"duration = 0.01\n{key} = {text}\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(["simulate", "--config", str(tmp_path / "fuzz.cfg"),
                           "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
            if not (rc == 0 and not err or rc == 1 and len(err) == 1
                    and err[0].startswith("error: ")):
                bad.append((text, rc, err))
    assert bad == []


@pytest.mark.parametrize("argv", [
    ["simulate"], ["sweep", "--alphas", "19.8,10", "--betas", "10"], ["error-ode"],
])
def test_start_past_any_pendulum_is_named_as_the_start(tmp_path, capsys, argv):
    # a start velocity error past INPUT_BOUND is refused before anything runs,
    # naming its key, not the divergence it would cause; every sweep cell
    # shares the key, so a sweep fails as a whole
    for value in ("1e160,0,0", "0,0,-1e300", "0,1.5e6,0"):
        (tmp_path / "start.cfg").write_text(f"duration = 0.01\ninit.vel_err = {value}\n")
        rc = main([*argv, "--config", str(tmp_path / "start.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: init.vel_err "), err
        assert not (tmp_path / "o").exists()


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


def test_analyze_report_facts(tmp_path, golden):
    rc = main(["analyze", "--out", str(tmp_path), "--basin-samples", "50"])
    assert rc == 0
    golden("analyze seed 0: analysis.txt", tmp_path / "analysis.txt")
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


def test_analyze_seed_7_matches_golden_digest(tmp_path, golden):
    rc = main(["analyze", "--out", str(tmp_path), "--basin-samples", "20", "--seed", "7"])
    assert rc == 0
    golden("analyze seed 7: analysis.txt", tmp_path / "analysis.txt")


def test_analyze_never_holds_the_basin_record(tmp_path):
    # 200 starts at 1001 marks, one every 10 ms step: a record would be 9.6 MB
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dt = 0.01\ndecimation = 1\n")
    tracemalloc.start()
    try:
        rc = main(["analyze", "--config", str(cfg), "--out", str(tmp_path),
                   "--basin-samples", "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4_000_000


def test_analyze_huge_basin_fails_cleanly(tmp_path, capsys):
    # 10^9 start-steps, minutes of stepping: refused before the basin is drawn
    tracemalloc.start()
    try:
        rc = main(["analyze", "--out", str(tmp_path), "--basin-samples", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --basin-samples 100000: 100000 starts of 10000 steps")
    assert peak < 1_000_000
    assert not (tmp_path / "analysis.txt").exists()


def test_sweep_grid(tmp_path, golden):
    # the benchmark's 4x4 grid at seed 0: 4 cells break the gain rule
    rc = main([
        "sweep", "--out", str(tmp_path), "--seed", "0",
        "--alphas", "5.0,10.0,19.8,30.0", "--betas", "1.0,5.0,10.0,20.0",
    ])
    assert rc == 0
    golden("sweep 4x4 seed 0: sweep.csv", tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    statuses = [line.split(",")[2] for line in lines[1:]]
    assert statuses == ["ok"] + ["rejected"] * 3 + ["ok"] * 3 + ["rejected"] + ["ok"] * 8


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


def test_sweep_rejects_a_gain_whose_square_overflows(tmp_path):
    # 1e200**2 overflows a float: that cell is rejected, the sweep goes on
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("duration = 0.5\n")
    rc = main([
        "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--alphas", "19.8,1e200", "--betas", "10",
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["ok", "rejected"]


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


def test_divergence_is_named_at_a_block_end_before_the_next_mark(tmp_path, capsys, caplog):
    # marks every 2000 steps, blocks of 1024: the state is checked at each
    # block's end too, so a blow-up is named at step 1024, before mark 2000
    cfg_path = tmp_path / "sparse.cfg"
    cfg_path.write_text("duration = 2\ndecimation = 2000\ngains.alpha = 5000\ngains.beta = 1\n")
    named = "estimator state diverged by step 1024 (t = 1.024 s) at alpha*dt = 5;"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {named}"), err
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
               "--alphas", "5000,19.8", "--betas", "1"])
    assert rc == 0
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["diverged", "ok"]
    assert f"sweep cell alpha=5000.0 beta=1.0: {named}" in caplog.text


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


def test_error_ode_default_start_matches_simulator(tmp_path, golden):
    rc = main(["error-ode", "--out", str(tmp_path), "--duration", "1"])
    assert rc == 0
    golden("error-ode default start: error_ode.csv", tmp_path / "error_ode.csv")
    lines = (tmp_path / "error_ode.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    # default start: the config's requested tilt error projected onto the
    # sphere of unit estimates, i.e. the error the simulator applies
    assert first[4:7] == pytest.approx([-0.941208928, 0.140929679, 0.692974628])
    last = [float(v) for v in lines[-1].split(",")]
    assert last[7] < first[7]  # V dropped


def test_error_ode_explicit_start(tmp_path, golden):
    rc = main([
        "error-ode", "--out", str(tmp_path),
        "--verr0", "0.1,0,0", "--terr0", "0,0.5,0", "--duration", "0.5",
    ])
    assert rc == 0
    golden("error-ode explicit start: error_ode.csv", tmp_path / "error_ode.csv")
    lines = (tmp_path / "error_ode.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    assert first[1:4] == pytest.approx([0.1, 0.0, 0.0])
    terr = np.array(first[4:7])
    assert np.linalg.norm(np.array([0, 0, 1.0]) - terr) == pytest.approx(1.0)


def test_error_ode_dyadic_step_matches_golden_digest(tmp_path, golden):
    # a power-of-two step makes every mark time an exact dyadic, whose
    # 9-digit form pads with zeros (0.5078125 is "0.50781250")
    rc = main(["error-ode", "--out", str(tmp_path), "--dt", "0.0009765625", "--duration", "1"])
    assert rc == 0
    golden("error-ode dyadic step: error_ode.csv", tmp_path / "error_ode.csv")
    lines = (tmp_path / "error_ode.csv").read_text().splitlines()
    assert lines[1].startswith("0.00000000,") and lines[-1].startswith("1.00000000,")
    assert any(line.startswith("0.50781250,") for line in lines)


def test_error_ode_effective_config_reruns_its_flags(tmp_path):
    # --duration, --dt, --verr0 and --terr0 replace their config keys, so the
    # saved config alone writes the same rows again
    rc = main(["error-ode", "--out", str(tmp_path / "a"), "--dt", "0.0009765625",
               "--duration", "1", "--verr0", "0.1,0,0", "--terr0", "0,0.5,0"])
    assert rc == 0
    rerun = ["error-ode", "--config", str(tmp_path / "a" / "effective.cfg")]
    assert main(rerun + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "error_ode.csv").read_bytes()
    assert len(first.splitlines()) == 1 + 104
    assert (tmp_path / "b" / "error_ode.csv").read_bytes() == first


def test_error_ode_degenerate_start_fails_cleanly(tmp_path, capsys):
    rc = main(["error-ode", "--out", str(tmp_path), "--terr0", "0,0,1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,key", [
    ("--verr0=2e6,0,0", "init.vel_err"),
    ("--verr0=1e300,0,0", "init.vel_err"),
    ("--terr0=0,0,3", "init.tilt_err"),
], ids=["verr0-past-bound", "verr0-overflowing", "terr0-past-bound"])
def test_error_ode_flag_is_held_to_its_key_bound(tmp_path, capsys, flag, key):
    # a flag replaces its config key and gets that key's checks, so a value the
    # config refuses is refused as the key before the run, and nothing is
    # written; a start that would overflow in step 1 is refused here too
    rc = main(["error-ode", flag, "--duration", "0.1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
    assert not (tmp_path / "o").exists()


def test_error_ode_step_past_rk4_limit_fails_cleanly(tmp_path, capsys):
    # alpha*dt = 19.8 * 0.2 = 3.96 is past RK4's 2.785: the run would blow up
    rc = main(["error-ode", "--out", str(tmp_path), "--dt", "0.2", "--duration", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 0.2 ") and "alpha*dt = 3.96" in err
    assert not (tmp_path / "error_ode.csv").exists()


def test_analyze_step_past_rk4_limit_fails_before_the_basin(tmp_path, capsys, monkeypatch):
    # alpha*dt = 3000 * 1e-3 = 3.0: the step check comes first, so the basin
    # sampler, which would search a thin basin for a minute, is never called
    def no_basin(*args):
        raise AssertionError("sample_basin was called")

    monkeypatch.setattr(tiltobs.analysis, "sample_basin", no_basin)
    cfg_path = tmp_path / "stiff.cfg"
    cfg_path.write_text("gains.alpha = 3000\n")
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(cfg_path), "--out", str(out), "--basin-samples", "1"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dt = 0.001 ")
    assert "alpha*dt = 3.0 " in err[0]
    assert not out.exists()


def test_failed_run_removes_only_the_out_levels_it_made(tmp_path, capsys):
    # an existing --out, empty or not, outlives a failed run; levels the run
    # made below it go, deepest first
    cfg_path = tmp_path / "stiff.cfg"
    cfg_path.write_text("gains.alpha = 3000\n")
    kept, empty = tmp_path / "kept", tmp_path / "empty"
    kept.mkdir()
    empty.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for out in (kept, kept / "a" / "b", empty):
        argv = ["analyze", "--config", str(cfg_path), "--out", str(out), "--basin-samples", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: dt = 0.001 ")
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine\n"
    assert empty.is_dir() and list(empty.iterdir()) == []


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


BAD_GAIN_RULE = (
    "error: gains.beta/gains.alpha: gains violate beta*g0 < alpha**2 "
    "(beta*g0=98.10000000000001, alpha**2=1.0)\n"
)
BAD_ALPHA = "error: gains.alpha must be finite and positive, got -5.0\n"
BAD_G0 = "error: gains.g0 must be finite and positive, got -9.81\n"
BAD_DT = "error: dt must be positive, got -0.1\n"


# each config's stderr line per command, in COMMANDS order: simulate, analyze,
# sweep, error-ode; a sweep replaces the base alpha and beta in every cell, so
# it runs, and the settings are checked before the gains
BAD_CONFIGS = {
    "gains.alpha = 1.0\ngains.beta = 10.0\n": [BAD_GAIN_RULE, BAD_GAIN_RULE, "", BAD_GAIN_RULE],
    "gains.alpha = -5\n": [BAD_ALPHA, BAD_ALPHA, "", BAD_ALPHA],
    "gains.g0 = -9.81\n": [BAD_G0] * 4,
    "dt = -0.1\ngains.alpha = -5\n": [BAD_DT] * 4,
}


def test_bad_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text, errors in BAD_CONFIGS.items():
        bad.write_text(text)
        for (argv, _), expected in zip(COMMANDS.values(), errors):
            rc = main(argv + ["--config", str(bad), "--out", str(tmp_path / "o")])
            assert (rc, capsys.readouterr().err) == (1 if expected else 0, expected), (text, argv)


def test_output_name_that_collides_writes_nothing(tmp_path, capsys):
    # the saved config would overwrite the run CSV
    bad = tmp_path / "bad.cfg"
    bad.write_text("output.csv = effective.cfg\n")
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: output.csv must be a bare file name")
    assert not out.exists()


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
    "simulate": (["simulate"], ["run.csv", "report.txt"]),
    "analyze": (["analyze", "--basin-samples", "5"], ["analysis.txt"]),
    "sweep": (["sweep", "--alphas", "19.8", "--betas", "10"], ["sweep.csv"]),
    "error-ode": (["error-ode"], ["error_ode.csv"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_effective_config_is_the_run_config(tmp_path, command):
    cfg_path = tmp_path / "my.cfg"
    cfg_path.write_text("duration = 0.5\ngains.alpha = 15.0\nseed = 2\n")
    argv, outputs = COMMANDS[command]
    out = tmp_path / "o"
    rc = main(argv + ["--config", str(cfg_path), "--seed", "4", "--out", str(out)])
    assert rc == 0
    # the command's files and the effective config, and nothing else
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "effective.cfg"])
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
    out = tmp_path / "o"
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    assert not (out / output).exists()
    assert not (out / "effective.cfg").exists()
    assert not out.exists()  # --out is made only once a run has succeeded


def test_sweep_cell_not_converged_by_its_end_has_an_empty_time(tmp_path):
    # 0.3 s is too short for the reference gains to bring the tilt error under 0.05
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("duration = 0.3\n")
    rc = main([
        "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
        "--alphas", "19.8", "--betas", "10",
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    row = dict(zip(SWEEP_HEADER.split(","), lines[1].split(",")))
    assert row["status"] == "ok" and float(row["final_tilt_err_norm"]) >= 0.05
    assert row["convergence_time"] == ""


def test_analyze_fails_cleanly_where_the_basin_is_too_thin(tmp_path, capsys, monkeypatch):
    # at alpha = 5000 the sampler keeps almost no candidate; a low cap keeps this fast
    monkeypatch.setattr(tiltobs.analysis, "BASIN_MAX_DRAWS_PER_START", 100)
    cfg_path = tmp_path / "stiff.cfg"
    cfg_path.write_text("gains.alpha = 5000\ndt = 1e-4\n")
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(cfg_path), "--out", str(out), "--basin-samples", "20"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: basin sampling at alpha = 5000.0 kept ")
    assert not (out / "analysis.txt").exists()
    assert not (out / "effective.cfg").exists()

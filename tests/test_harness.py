"""End-to-end simulation harness tests.

The heavier scenario runs (reference 10 s closed loop) live in
test_acceptance.py; here we cover config handling, the record/CSV contracts,
determinism, and the self-consistency floors of the closed loop.
"""

import collections
import copy
import dataclasses
import gc
import itertools
import math
import logging
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltobs import harness, plant
from tiltobs.analysis import MAX_STEPS
from tiltobs.harness import (
    ATTITUDE_MODES,
    CSV_HEADER,
    SCHEMA,
    SWEEP_HEADER,
    ExperimentConfig,
    build_scene,
    config_gains,
    config_text,
    csv_cell,
    csv_text,
    format_number,
    key_value_text,
    load_config,
    parse_config,
    run_csv,
    run_report,
    run_simulation,
    sweep,
    validate_config,
)

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
NOISY_CFG = REFERENCE_CFG.with_name("noisy.cfg")


def zero_error_config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.init.tilt_err = np.zeros(3)
    cfg.init.attitude_mode = "consistent"
    return cfg


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    ref = ExperimentConfig()
    assert config_text(cfg) == config_text(ref)
    assert cfg.gains.alpha == 19.8
    assert cfg.gains.beta == 10.0
    assert cfg.dt == 1e-3
    assert np.array_equal(cfg.init.tilt_err, [-1.87, 0.28, 0.39])


def test_config_assignments_and_comments():
    text = """
    # scenario overrides
    gains.alpha = 12.5
    gains.beta = 3.0   # still stable: 3*9.81 < 12.5^2
    duration = 2.5
    init.tilt_err = 0.1, -0.2, 0.3
    output.csv = other.csv
    """
    cfg = parse_config(text)
    assert cfg.gains.alpha == 12.5
    assert cfg.gains.beta == 3.0
    assert cfg.duration == 2.5
    assert np.allclose(cfg.init.tilt_err, [0.1, -0.2, 0.3])
    assert cfg.output.csv == "other.csv"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("gains.alpha = -1", "gains.alpha"),
        ("gains.beta = 0", "gains.beta"),
        ("gains.beta = 40", "gains.beta"),  # 40*9.81 > 19.8^2
        ("gains.g0 = -9.81", "gains.g0"),
        ("gains.g0 = 0", "gains.g0"),
        ("bogus.key = 1", "bogus.key"),
        ("dt = -0.1", "dt"),
        ("decimation = 0", "decimation"),
        ("init.tilt_err = 1, 2", "init.tilt_err"),
        ("init.tilt_err = 0, 0, 2.01", "init.tilt_err"),
        ("init.attitude_mode = sideways", "init.attitude_mode"),
        ("duration = soon", "duration"),
        ("no equals sign here", "key = value"),
        ("seed = -3", "seed"),
        ("gains.alpha = 1e200", "gains.alpha"),  # alpha**2 overflows
        ("output.csv = effective.cfg", "output.csv"),
        ("output.report = run.csv", "output.report"),
        ("output.csv =", "output.csv"),
        ("output.report = ..", "output.report"),
        ("output.csv = out/run.csv", "output.csv"),
    ],
)
def test_bad_config_names_the_problem(line, fragment):
    # parse_config checks the settings; the gains are checked where they are made
    with pytest.raises(ValueError) as info:
        config_gains(parse_config(line))
    assert fragment in str(info.value)


def test_config_key_set_twice_is_refused_naming_both_lines():
    # a repeated key would silently take its last value
    text = "# gains\ngains.alpha = 19.8\ngains.alpha = 5\n"
    with pytest.raises(ValueError) as info:
        parse_config(text)
    assert str(info.value) == "line 3: config key 'gains.alpha' is already set on line 2"


@pytest.mark.parametrize(
    "line,key",
    [
        ("noise.gyro_std = nan", "noise.gyro_std"),
        ("mount.p0 = inf, 0, 1", "mount.p0"),
        ("gains.alpha = -inf", "gains.alpha"),
        ("duration = nan", "duration"),
        ("init.tilt_err = 0, nan, 0", "init.tilt_err"),
    ],
)
def test_non_finite_config_value_names_key_and_line(line, key):
    with pytest.raises(ValueError) as info:
        parse_config("# scenario\n" + line)
    assert key in str(info.value)
    assert "line 2" in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        "duration = 1e300\ndt = 1e-300",  # the step count overflows to inf
        "duration = 100.0001\ndt = 1e-4",  # one step past the cap
    ],
)
def test_step_count_past_the_cap_is_rejected_by_key(text):
    # rejected before anything is allocated; no huge run is ever started
    with pytest.raises(ValueError, match="duration / dt") as info:
        parse_config(text)
    assert str(MAX_STEPS) in str(info.value)


def test_non_finite_value_set_in_code_is_rejected_by_key():
    cfg = ExperimentConfig()
    cfg.noise.gyro_std = float("nan")
    with pytest.raises(ValueError, match="noise.gyro_std"):
        run_simulation(cfg)


@pytest.mark.parametrize("name", ["run#1.csv", " run.csv", "run.csv\n", "a\nb.csv"])
def test_text_value_that_cannot_read_back_is_rejected_by_key(name):
    # config_text would write these so that parse_config reads back another
    # name ('#' starts a comment, values are stripped, lines are split)
    cfg = ExperimentConfig()
    cfg.output.csv = name
    with pytest.raises(ValueError, match="output.csv"):
        validate_config(cfg)


def test_config_text_round_trip():
    cfg = ExperimentConfig()
    cfg.gains.alpha = 7.25
    cfg.gains.beta = 3.0
    cfg.seed = 42
    cfg.init.tilt_err = np.array([0.3, -0.1, 1.7])
    cfg.mount.noise_std = 0.0125
    # a hand-built config may hold numpy scalars; they are written as numbers
    scalars = ExperimentConfig(duration=np.float64(0.5), seed=np.int64(3))
    for cfg in (cfg, scalars):
        text = config_text(cfg)
        assert config_text(parse_config(text)) == text
    assert "duration = 0.5\n" in text and "seed = 3\n" in text


@st.composite
def valid_configs(draw):
    """Random finite configs that pass validation."""
    num = partial(st.floats, allow_nan=False, allow_infinity=False)

    def vec(bound=1e6):
        coord = num(min_value=-bound, max_value=bound)
        return st.lists(coord, min_size=3, max_size=3).map(np.array)

    file_name = st.text(min_size=1, max_size=12).filter(
        lambda s: "#" not in s and s == s.strip() and len(s.splitlines()) == 1
        and s not in (".", "..", "effective.cfg") and Path(s).name == s
    )
    cfg = ExperimentConfig()
    cfg.dt = draw(num(min_value=1e-6, max_value=1.0))
    cfg.duration = cfg.dt * draw(num(min_value=1.0, max_value=1e4))
    cfg.decimation = draw(st.integers(1, 10_000))
    cfg.seed = draw(st.integers(0, 2**63))
    cfg.gains.alpha = draw(num(min_value=1e-3, max_value=1e3))
    cfg.gains.g0 = draw(num(min_value=0.1, max_value=100.0))
    ratio = draw(num(min_value=1e-3, max_value=0.999))
    cfg.gains.beta = ratio * cfg.gains.alpha**2 / cfg.gains.g0
    cfg.noise.gyro_std = draw(num(min_value=0.0, max_value=10.0))
    cfg.noise.accel_std = draw(num(min_value=0.0, max_value=10.0))
    cfg.init.vel_err = draw(vec())
    cfg.init.tilt_err = draw(vec(1.15))  # norm below 2 by construction
    cfg.init.attitude_mode = draw(st.sampled_from(ATTITUDE_MODES))
    cfg.init.attitude_rotvec = draw(vec())
    for name in ("accel_amp", "accel_freq", "accel_phase", "rate0", "world_rotvec"):
        setattr(cfg.pivot, name, draw(vec()))
    for name in ("rate_amp", "rate_freq", "rate_phase", "p_ref", "p0"):
        setattr(cfg.mount, name, draw(vec()))
    cfg.mount.kp = draw(num(min_value=0.0, max_value=100.0))
    cfg.mount.noise_std = draw(num(min_value=0.0, max_value=1.0))
    cfg.mount.noise_tau = draw(num(min_value=1e-6, max_value=100.0))
    cfg.output.csv = draw(file_name)
    cfg.output.report = draw(file_name.filter(lambda s: s != cfg.output.csv))
    return cfg


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_text_round_trip_property(cfg):
    # configs hold arrays, so compare their text rather than the objects
    validate_config(cfg)
    text = config_text(cfg)
    assert config_text(parse_config(text)) == text


def test_save_and_load_config(tmp_path):
    cfg = ExperimentConfig()
    cfg.duration = 1.25
    path = tmp_path / "run.cfg"
    path.write_text(config_text(cfg))
    again = load_config(path)
    assert config_text(again) == config_text(cfg)


def test_reference_config_lists_every_key_at_its_default():
    # configs/reference.cfg documents the format: every config key once, in
    # SCHEMA order, each at its default except the output file names
    text = REFERENCE_CFG.read_text()
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    keys = [line.split("=", 1)[0].strip() for line in lines if line]
    assert keys == list(SCHEMA)
    cfg = parse_config(text)
    cfg.output = ExperimentConfig().output
    assert config_text(cfg) == config_text(ExperimentConfig())


# ---------------------------------------------------------------------------
# record and CSV contracts


def short_run(**overrides):
    cfg = ExperimentConfig()
    cfg.duration = 0.5
    for key, value in overrides.items():
        head, _, tail = key.partition(".")
        if tail:
            setattr(getattr(cfg, head), tail, value)
        else:
            setattr(cfg, head, value)
    return run_simulation(cfg)


def test_row_count_default_reference_run():
    log = run_simulation(ExperimentConfig())
    assert len(log.t) == 1001  # 10 s / 1 ms, decimation 10, plus t=0
    assert log.t[0] == 0.0
    assert log.t[-1] == pytest.approx(10.0)
    assert np.all(np.diff(log.t) > 0)


def test_final_row_always_recorded():
    # 500 steps, decimation 7: last multiple is 497, so 500 is appended
    log = short_run(decimation=7)
    assert len(log.t) == 73
    assert log.t[-1] == pytest.approx(0.5)
    assert log.t[-2] == pytest.approx(0.497)


def test_csv_shape_and_header():
    log = short_run(decimation=50)
    lines = run_csv(log).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(log.t)
    assert all(len(line.split(",")) == 21 for line in lines)


def test_csv_numbers_plain_decimal():
    log = short_run(decimation=50, **{"noise.gyro_std": 0.04, "noise.accel_std": 0.2})
    body = run_csv(log).splitlines()[1:]
    for line in body:
        for fieldnum in line.split(","):
            assert "e" not in fieldnum and "E" not in fieldnum
            float(fieldnum)  # parseable


def test_format_number_examples():
    assert format_number(0.0) == "0.00000000"
    assert format_number(-0.0) == "0.00000000"
    assert format_number(1.0) == "1.00000000"
    assert format_number(0.05) == "0.0500000000"
    assert format_number(-123456789.0) == "-123456789"
    tiny = format_number(1e-12)
    assert "e" not in tiny and float(tiny) == 1e-12


# where printf's 9 digits and Dragon4's could part: zeros, the smallest
# subnormal, both neighbours of each power of ten, carries, exact dyadics
# (0.5 is "0.50000000"), a half-way tie and values at or past 1e9
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-20, 12)]
ADVERSARIAL_NUMBERS = [
    0.0, 5e-324,
    *POWERS_OF_TEN,
    *(math.nextafter(p, 0.0) for p in POWERS_OF_TEN),
    *(math.nextafter(p, math.inf) for p in POWERS_OF_TEN),
    0.1234567897, 99999999.95, 123456788.5, 123456789.5,
    0.5, 0.0625, 0.0009765625, 1.0, 2.0,
    0.0001220703125,
    999999999.5, 1e9, 1.5e9, 1e15, 1.7976931348623157e308,
]


def test_csv_cell_fields():
    assert csv_cell(None) == ""
    assert csv_cell("rejected") == "rejected"
    assert csv_cell(math.inf) == format_number(math.inf) == "inf"
    assert csv_cell(math.nan) == format_number(math.nan) == "nan"
    assert csv_cell(np.float64(0.5)) == csv_cell(0.5) == "0.50000000"


# values where the array path's flag could go wrong: zeros, the smallest
# subnormal, 1e-300 and 1e9 (the ends of printf's range) and the powers of
# ten, each with both neighbours, short decimals and non-finite values
EDGES = [0.0, 5e-324, 1e-300, 1e9, *POWERS_OF_TEN]
CSV_ARRAY_VALUES = st.one_of(
    st.sampled_from([*EDGES, *(math.nextafter(v, 0.0) for v in EDGES),
                     *(math.nextafter(v, math.inf) for v in EDGES), math.inf, math.nan]),
    st.builds(lambda k, n: k / 10.0**n, st.integers(1, 10**9), st.integers(-10, 20)),
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 21), st.lists(CSV_ARRAY_VALUES, min_size=1, max_size=60),
       st.integers(0, 2**32 - 1))
def test_csv_array_path_is_the_csv_cell_path(n_rows, n_cols, pool, seed):
    # csv_cell field by field is the oracle of the array path; the fields are
    # picked from a drawn pool, so a 40 x 21 array costs a draw of 60 values
    cols = np.random.default_rng(seed).choice(np.array(pool), size=(n_rows, n_cols))
    assert csv_text("h", cols) == csv_text("h", cols.tolist())


def test_csv_array_path_is_format_number_on_adversarial_values():
    values = np.array([x for v in ADVERSARIAL_NUMBERS for x in (v, -v)] + [math.inf, -math.inf,
                                                                         math.nan])
    for cols in (values[:, None], values[None, :], np.resize(values, (16, 21))):
        expect = "".join(",".join(map(format_number, row)) + "\n" for row in cols.tolist())
        assert csv_text("h", cols) == "h\n" + expect


def test_run_csv_memory_peak():
    # the array path formats a few rows per numpy pass and joins a block's
    # lines as it goes: no whole-log lists of Python floats or line strings
    log = run_simulation(load_config(NOISY_CFG))
    tracemalloc.start()
    try:
        run_csv(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["run_simulation", "sweep"])
def test_a_finished_run_frees_its_scene_without_the_cyclic_collector(monkeypatch, command):
    # a cell carries only its state from block to block, and a diverged cell
    # keeps a fresh error, not the one whose traceback holds the frame that ran
    # it: no cycle is left to hold the scene until the cyclic collector ran
    scenes = []
    build = harness.build_scene

    def watched(cfg):
        scene = build(cfg)
        scenes.append(weakref.ref(scene))
        return scene

    monkeypatch.setattr(harness, "build_scene", watched)
    cfg = ExperimentConfig()
    cfg.duration = 0.5
    gc.disable()
    try:
        if command == "sweep":
            rows = sweep(cfg, alphas=[19.8, 5000.0], betas=[1.0], threshold=0.5)
            assert [row["status"] for row in rows] == ["ok", "diverged"]
        else:
            run_simulation(cfg)
        alive = scenes[0]() is not None
    finally:
        gc.enable()
    assert not alive


def test_csv_header_only_and_single_row():
    log = short_run(decimation=50)
    empty = copy.copy(log)
    for name in ("t", "tilt", "tilt_est", "vel_err", "tilt_err", "verr_world",
                 "terr_world", "V", "Vdot", "gyro", "accel"):
        setattr(empty, name, getattr(log, name)[:0])
    assert run_csv(empty) == CSV_HEADER + "\n"

    one = copy.copy(log)
    for name in ("t", "tilt", "tilt_est", "vel_err", "tilt_err", "verr_world",
                 "terr_world", "V", "Vdot", "gyro", "accel"):
        setattr(one, name, getattr(log, name)[:1])
    lines = run_csv(one).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.00000000,")


def test_determinism_bitwise():
    cfg = ExperimentConfig()
    cfg.duration = 1.0
    cfg.noise.gyro_std = 0.04
    cfg.noise.accel_std = 0.2
    a = run_csv(run_simulation(cfg))
    b = run_csv(run_simulation(copy.deepcopy(cfg)))
    assert a == b

    cfg.seed = 1
    c = run_csv(run_simulation(cfg))
    assert a != c


@pytest.mark.parametrize("config", ["reference", "noisy"])
def test_run_log_bits_match_golden_digest(tmp_path, golden, config):
    # every RunLog array at full precision, one line a mark, since the CSV's
    # 9 digits would let a last-bit change through
    log = run_simulation(load_config(REFERENCE_CFG.with_name(f"{config}.cfg")))
    names = [f.name for f in dataclasses.fields(log)
             if isinstance(getattr(log, f.name), np.ndarray) and f.name != "applied_tilt_err0"]
    cols = np.column_stack([getattr(log, name) for name in names])
    lines = [" ".join(["applied_tilt_err0", *map(float.hex, log.applied_tilt_err0.tolist())]),
             " ".join(names), *(" ".join(map(float.hex, row)) for row in cols.tolist())]
    (tmp_path / "run_log.hex").write_text("\n".join(lines) + "\n")
    golden(f"simulate {config}.cfg seed 0: RunLog arrays as float.hex", tmp_path / "run_log.hex")


def test_noise_channels_independent():
    quiet = short_run()
    noisy = short_run(**{"noise.gyro_std": 0.04})
    # only the gyro channel was switched on
    assert np.array_equal(quiet.accel, noisy.accel)
    assert not np.array_equal(quiet.gyro, noisy.gyro)


def test_noise_draw_order_is_pinned():
    # measurement noise comes from child stream 0 of the seed, one (2, 3)
    # block per step: three gyro draws, then three accel draws
    n, seed, gyro_std, accel_std = 500, 5, 0.04, 0.2
    quiet = short_run(seed=seed, decimation=7)
    noisy = short_run(
        seed=seed, decimation=7, **{"noise.gyro_std": gyro_std, "noise.accel_std": accel_std}
    )
    rows = np.rint(quiet.t / 1e-3).astype(int)
    held = np.minimum(rows, n - 1)  # the final row repeats the last sample
    draws = np.random.default_rng([seed, 0]).standard_normal((n, 2, 3))
    assert_allclose(noisy.gyro - quiet.gyro, gyro_std * draws[held, 0], rtol=0, atol=1e-14)
    assert_allclose(noisy.accel - quiet.accel, accel_std * draws[held, 1], rtol=0, atol=1e-13)


def test_report_contents():
    log = run_simulation(ExperimentConfig())
    entries = dict(
        line.split(" = ", 1) for line in key_value_text(run_report(log)).splitlines()
    )
    assert entries["gains.alpha"] == "19.8"
    assert float(entries["gain_ratio"]) == pytest.approx(0.2502295684113866)
    assert float(entries["tilt_convergence_time"]) <= 1.5
    assert float(entries["tilt_err_final_norm"]) < 1e-4
    assert float(entries["v_final"]) < float(entries["v_initial"])
    # the requested initial error is off the unit sphere; the applied one is
    # re-reported and differs
    assert entries["applied_tilt_err0"] != entries["requested_tilt_err0"]
    assert float(entries["runtime_s"]) > 0.0


# ---------------------------------------------------------------------------
# closed-loop consistency (zero initial error, noise-free)


def test_zero_error_stays_zero_default_scene():
    cfg = zero_error_config()
    log = run_simulation(cfg)
    assert np.linalg.norm(log.tilt_err, axis=1).max() < 1e-5
    assert np.linalg.norm(log.applied_tilt_err0) == 0.0


def test_zero_error_stays_zero_gentle_scene():
    # gentle pivot forcing: the discretization floor scales with the pivot
    # forcing amplitude, so the tight bar needs a tame scene (measured
    # 2.1e-7 / 2.9e-7 here, vs 4.1e-6 / 5.9e-6 for the default scene)
    cfg = zero_error_config()
    cfg.pivot.accel_amp = cfg.pivot.accel_amp * 0.05
    cfg.pivot.rate0 = cfg.pivot.rate0 * 0.05
    cfg.mount.noise_std = 0.0
    log = run_simulation(cfg)
    assert np.linalg.norm(log.vel_err, axis=1).max() < 1e-6
    assert np.linalg.norm(log.tilt_err, axis=1).max() < 1e-6


def test_consistency_error_is_second_order_in_dt():
    def floor(dt):
        cfg = zero_error_config()
        cfg.duration = 2.0
        cfg.dt = dt
        cfg.decimation = int(round(0.01 / dt))
        cfg.mount.noise_std = 0.0
        log = run_simulation(cfg)
        return (np.linalg.norm(log.vel_err, axis=1).max(),
                np.linalg.norm(log.tilt_err, axis=1).max())

    coarse = floor(1e-3)
    fine = floor(5e-4)
    for c, f in zip(coarse, fine):
        assert 3.2 < c / f < 4.8  # halving dt quarters the error


def test_blowup_aborts_with_step_index():
    cfg = ExperimentConfig()
    cfg.gains.alpha = 5000.0  # alpha*dt = 5: RK4 far outside its stability region
    cfg.gains.beta = 1.0
    with pytest.raises(RuntimeError, match=r"step \d+"):
        run_simulation(cfg)


def test_phase_timings_add_up_to_runtime():
    cfg = ExperimentConfig()
    cfg.duration = 1.0
    log = run_simulation(cfg)
    assert list(log.timings) == ["rotation", "mount", "sensors", "estimator", "record"]
    assert all(v >= 0.0 for v in log.timings.values())
    assert sum(log.timings.values()) == pytest.approx(log.runtime, rel=0.05)
    assert log.steps_per_s == pytest.approx(1000 / log.timings["estimator"])

    keys = [line.split(" = ", 1)[0] for line in key_value_text(run_report(log)).splitlines()]
    i = keys.index("runtime_s")
    assert keys[i + 1 :] == [
        "time.rotation_s",
        "time.mount_s",
        "time.sensors_s",
        "time.estimator_s",
        "time.record_s",
        "steps_per_s",
    ]


# ---------------------------------------------------------------------------
# gain sweep


def test_sweep_reports_rejected_cells():
    cfg = ExperimentConfig()
    cfg.duration = 0.5
    rows = sweep(cfg, alphas=[19.8, 1.0], betas=[10.0], threshold=0.5)
    by_gains = {(r["alpha"], r["beta"]): r for r in rows}
    assert by_gains[(19.8, 10.0)]["status"] == "ok"
    assert by_gains[(1.0, 10.0)]["status"] == "rejected"
    assert by_gains[(1.0, 10.0)]["convergence_time"] is None

    # each row is a dict in SWEEP_HEADER order, written as it is
    assert all(list(r) == SWEEP_HEADER.split(",") for r in rows)
    lines = csv_text(SWEEP_HEADER, (r.values() for r in rows)).splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    rejected = [line for line in lines if "rejected" in line]
    assert len(rejected) == 1
    assert rejected[0].startswith("1.00000000,10.0000000,rejected,,")


def test_sweep_deterministic_and_seed_varied():
    cfg = ExperimentConfig()
    cfg.duration = 0.5
    cfg.noise.gyro_std = 0.04
    rows1 = sweep(cfg, alphas=[19.8, 15.0], betas=[10.0], threshold=0.5)
    rows2 = sweep(cfg, alphas=[19.8, 15.0], betas=[10.0], threshold=0.5)
    assert [r["final_tilt_err_norm"] for r in rows1] == [
        r["final_tilt_err_norm"] for r in rows2
    ]
    # every cell runs on the base seed's noise: another base seed moves every row
    assert rows1[0]["final_tilt_err_norm"] != rows1[1]["final_tilt_err_norm"]
    cfg.seed = 1
    rows3 = sweep(cfg, alphas=[19.8, 15.0], betas=[10.0], threshold=0.5)
    assert all(a["final_tilt_err_norm"] != b["final_tilt_err_norm"] for a, b in zip(rows1, rows3))


def test_sweep_reports_diverged_cell(caplog):
    cfg = ExperimentConfig()
    cfg.duration = 0.5
    with caplog.at_level(logging.WARNING, logger="tiltobs.harness"):
        rows = sweep(cfg, alphas=[19.8, 5000.0], betas=[1.0], threshold=0.5)
    assert [r["status"] for r in rows] == ["ok", "diverged"]
    assert rows[1]["final_tilt_err_norm"] is None
    assert any("alpha=5000.0" in m and "step" in m and "alpha*dt = 5" in m
               for m in caplog.messages)

    lines = csv_text(SWEEP_HEADER, (r.values() for r in rows)).splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[2].startswith("5000.00000,1.00000000,diverged,")
    assert lines[2].endswith(",,")


def test_sweep_rejects_non_finite_gains():
    cfg = ExperimentConfig()
    cfg.duration = 0.2
    rows = sweep(cfg, alphas=[19.8, math.inf, math.nan], betas=[10.0, math.inf], threshold=0.5)
    assert [r["status"] for r in rows] == ["ok"] + ["rejected"] * 5


def test_sweep_base_config_may_break_the_gain_rule():
    cfg = ExperimentConfig()
    cfg.duration = 0.2
    cfg.gains.alpha = 1.0  # beta*g0 = 98.1 > alpha**2
    cfg.gains.beta = 10.0
    with pytest.raises(ValueError, match="gains"):
        config_gains(cfg)
    rows = sweep(cfg, alphas=[19.8, 1.0], betas=[10.0], threshold=0.5)
    assert [r["status"] for r in rows] == ["ok", "rejected"]
    assert math.isfinite(rows[0]["final_tilt_err_norm"])
    # every cell keeps the base g0, so a bad one fails the sweep, not its cells
    cfg.gains.g0 = -9.81
    with pytest.raises(ValueError, match=r"^gains\.g0 must be finite and positive, got -9.81$"):
        sweep(cfg, alphas=[19.8], betas=[10.0], threshold=0.5)


def test_observer_rows_are_converted_a_block_at_a_time(monkeypatch):
    # each block's input rows reach the loop as an iterator, one call a block;
    # by the first stepped mark, at most one block of them has become Python lists
    real, seen = harness.run_observer, {}

    def spy(gains, dt, rows, state0, marks):
        seen["rows"] = rows
        states = real(gains, dt, rows, state0, marks)
        tracemalloc.start()
        try:
            first = [next(states), next(states)]  # marks 0 and 10
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield from first
        yield from states

    monkeypatch.setattr(harness, "run_observer", spy)
    assert len(run_simulation(ExperimentConfig()).t) == 1001
    assert not isinstance(seen["rows"], (list, tuple))
    assert harness.ROW_BLOCK < 10**4
    tracemalloc.start()
    try:
        block = np.ones((harness.ROW_BLOCK, 9)).tolist()
        one_block = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert seen["peak"] < 2 * one_block, (seen["peak"], one_block, len(block))


def test_sweep_rows_are_the_runs_of_their_cells(monkeypatch):
    # every cell's observer, stepped inside the sweep a block a call, reads
    # the rows of a stand-alone run of the base config with that cell's gains,
    # the same rows for every cell, and yields that run's states, bit for
    # bit, and the cell's row is that run's grade
    cfg = load_config(NOISY_CFG)
    alphas, betas = [19.8, 15.0], [10.0, 5.0]
    runs, observer = {}, harness.run_observer

    def recording_observer(gains, dt, rows, state0, marks):
        # one run's calls, concatenated: keyed by the gains, which differ by cell
        read, states = runs.setdefault(gains, ([], []))
        for state in observer(gains, dt, (read.append(row) or row for row in rows), state0, marks):
            states.append(state)
            yield state

    monkeypatch.setattr(harness, "run_observer", recording_observer)
    rows = sweep(cfg, alphas, betas)
    cells = runs.copy()
    assert len(cells) == 4
    first = np.array(next(iter(cells.values()))[0]).tobytes()
    assert all(np.array(read).tobytes() == first for read, _ in cells.values())
    for row in rows:
        sub = copy.deepcopy(cfg)
        sub.gains.alpha, sub.gains.beta = row["alpha"], row["beta"]
        sub.seed = cfg.seed
        runs.clear()
        alone = run_simulation(sub)
        (gains, (read_alone, states_alone)), = runs.items()
        read, states = cells[gains]
        assert len(read) == len(read_alone) == 10**4
        assert np.array(read).tobytes() == np.array(read_alone).tobytes()
        assert np.array(states).tobytes() == np.array(states_alone).tobytes()
        report = run_report(alone)
        grade = report["tilt_convergence_time"], report["tilt_err_final_norm"]
        assert (row["convergence_time"], row["final_tilt_err_norm"]) == grade
        assert math.isfinite(grade[0])


def test_a_run_is_one_observer_pass_over_all_its_rows(monkeypatch):
    # the run steps its observer a block a call, carrying the state from each
    # block's end to the next block's start; one real pass over every row it
    # read, from the first block's start, to the scene's marks is its oracle,
    # bit for bit, on any host: a state carried from anywhere but the block's
    # end, or rows left unread, shows here
    cfg = load_config(NOISY_CFG)
    real, read, starts, stopped = harness.run_observer, [], [], {}

    def spy(gains, dt, rows, state0, marks):
        starts.append(np.array(state0))
        states = real(gains, dt, (read.append(row) or row for row in rows), state0, marks)
        for mark, state in zip(marks, states):
            stopped[int(mark)] = state
            yield state

    monkeypatch.setattr(harness, "run_observer", spy)
    log = run_simulation(cfg)
    marks = build_scene(cfg).marks
    assert len(read) == 10**4 and len(starts) == -(-10**4 // harness.ROW_BLOCK)
    oracle = np.array(list(real(config_gains(cfg), cfg.dt, read, starts[0], marks)))
    assert oracle[:, 3:].tobytes() == log.tilt_est.tobytes()
    assert oracle.tobytes() == np.array([stopped[m] for m in marks.tolist()]).tobytes()


@pytest.mark.parametrize("decimation", [1, 7])
@pytest.mark.parametrize("steps", [1, 7, 1023, 1024, 1025, 2048])
def test_blocks_cover_each_step_once_and_record_each_mark_once(monkeypatch, steps, decimation):
    # a block is the steps lo:hi, the final mark joining the last block: on
    # either side of a block's edge, each block steps its observer at least
    # once from where the block before ended, every row is read once, and the
    # log holds every mark once, at marks * dt, with the state that one pass
    # over all the rows has there, bit for bit
    cfg = load_config(NOISY_CFG)
    cfg.duration, cfg.decimation = steps * cfg.dt, decimation
    real, read, starts, stopped = harness.run_observer, [], [], {}

    def spy(gains, dt, rows, state0, stops):
        starts.append((stops[0], stops[-1], np.array(state0)))
        states = real(gains, dt, (read.append(row) or row for row in rows), state0, stops)
        for stop, state in zip(stops, states):
            stopped[int(stop)] = state
            yield state

    monkeypatch.setattr(harness, "run_observer", spy)
    log = run_simulation(cfg)
    marks = build_scene(cfg).marks
    assert marks[-1] == steps and len(read) == steps
    assert [(lo, hi) for lo, hi, _ in starts] == [
        (lo, min(lo + harness.ROW_BLOCK, steps)) for lo in range(0, steps, harness.ROW_BLOCK)]
    assert log.t.tobytes() == (marks * cfg.dt).tobytes()
    oracle = np.array(list(real(config_gains(cfg), cfg.dt, read, starts[0][2], marks)))
    assert oracle[:, 3:].tobytes() == log.tilt_est.tobytes()
    assert oracle.tobytes() == np.array([stopped[m] for m in marks.tolist()]).tobytes()


@pytest.mark.parametrize("alphas", [[19.8], [19.8, 15.0, 12.0, 25.0]])
def test_sweep_builds_the_rotation_paths_once(monkeypatch, alphas):
    # 2100 steps: three blocks, each integrating its pivot and mount paths
    # once for every cell, whatever the number of cells run
    calls = []

    def counting_path(*args):
        calls.append(1)
        return rotation_path(*args)

    rotation_path = plant.rotation_path
    monkeypatch.setattr(plant, "rotation_path", counting_path)
    cfg = ExperimentConfig()
    cfg.duration = 2.1
    rows = sweep(cfg, alphas, [10.0], threshold=0.5)
    assert [r["status"] for r in rows] == ["ok"] * len(alphas)
    assert len(calls) == 6  # pivot and mount, once per block


@pytest.mark.parametrize("alphas", [[19.8], [19.8, 15.0, 1.0, 12.0, 25.0]])
def test_sweep_makes_each_noise_basis_block_once(monkeypatch, alphas):
    # 2100 steps: three basis blocks shared by every cell, whatever the number
    # of cells run, each at its block's midpoints, then its marks (1024 + 103,
    # 1024 + 102, and 52 + 6 with the final mark), and so is each block's
    # mount translation, the first of the inputs that the cells share
    sizes, translations = [], []

    def counting_basis(x, m):
        sizes.append(x.size)
        return harmonic_basis(x, m)

    def counting_translation(*args):
        translations.append(1)
        return mount_translation(*args)

    harmonic_basis, mount_translation = plant._harmonic_basis, plant.mount_translation
    monkeypatch.setattr(plant, "_harmonic_basis", counting_basis)
    monkeypatch.setattr(plant, "mount_translation", counting_translation)
    cfg = ExperimentConfig()
    cfg.duration = 2.1
    rows = sweep(cfg, alphas, [10.0], threshold=0.5)
    assert [r["status"] for r in rows].count("ok") == min(len(alphas), 4)
    assert sizes == [1127, 1126, 58]
    assert len(translations) == 3


@pytest.mark.parametrize("alphas,betas,status,blocks", [
    ([5000.0], [1.0], "diverged", 1),  # diverges at step 150, in the first block
    ([1.0], [10.0], "rejected", 0),
])
def test_sweep_makes_no_noise_basis_once_no_cell_runs(monkeypatch, alphas, betas, status, blocks):
    calls = []

    def counting_basis(x, m):
        calls.append(x.size)
        return harmonic_basis(x, m)

    harmonic_basis = plant._harmonic_basis
    monkeypatch.setattr(plant, "_harmonic_basis", counting_basis)
    rows = sweep(ExperimentConfig(), alphas, betas)
    assert [r["status"] for r in rows] == [status]
    assert len(calls) == blocks


def resting_observer(gains, dt, rows, state0, marks):
    """Stands in for the float kernel, which costs seconds under tracing: it
    consumes each mark's rows and yields the initial state."""
    done = 0
    for mark in marks:
        collections.deque(itertools.islice(rows, mark - done), maxlen=0)
        done = mark
        yield np.array(state0)


def test_run_memory_grows_by_under_100_bytes_a_step(monkeypatch):
    # the traced peak of a whole run, scene build included: each block makes
    # its own rotation paths, so only the record at the marks grows with the
    # run (about 20 B a step at decimation 10), never a per-step path
    monkeypatch.setattr(harness, "run_observer", resting_observer)

    def peak(duration):
        cfg = load_config(NOISY_CFG)
        cfg.duration = duration
        tracemalloc.start()
        try:
            run_simulation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0)  # first-call set-up, traced apart
    growth = (peak(40.0) - peak(20.0)) / 20_000
    assert growth < 100, growth


def test_run_memory_peak_at_ten_to_the_five_steps(monkeypatch):
    # the traced peak of a 10^5-step run, scene build included: one block's
    # truth and rows, plus the record at the marks
    monkeypatch.setattr(harness, "run_observer", resting_observer)
    cfg = load_config(NOISY_CFG)
    cfg.duration = 100.0
    run_simulation(cfg)  # first-call set-up, untraced
    tracemalloc.start()
    try:
        run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak


@pytest.mark.parametrize("duration", [2.048, 100.0])  # two whole blocks; 98 blocks
def test_block_rotation_paths_join_into_the_whole_run_path(monkeypatch, duration):
    # each block integrates its pivot and mount paths from the attitudes that
    # the block before it ended at: joined, the blocks' midpoint attitudes are
    # one whole-run rotation_path, to roundoff; a block that restarts from R0
    # or from the identity is off by a turn of the path
    calls, rotation_path = [], plant.rotation_path

    def spy(R0, w_held, dt):
        calls.append(rotation_path(R0, w_held, dt))
        return calls[-1]

    monkeypatch.setattr(plant, "rotation_path", spy)
    monkeypatch.setattr(harness, "run_observer", resting_observer)
    cfg = load_config(NOISY_CFG)
    cfg.duration = duration
    run_simulation(cfg)
    n = round(duration / cfg.dt)
    assert len(calls) == 2 * -(-n // harness.ROW_BLOCK)
    t_mid = (np.arange(n) + 0.5) * cfg.dt
    whole = (rotation_path(build_scene(cfg).R0, plant.pivot_rate(cfg.pivot, t_mid), cfg.dt),
             rotation_path(np.eye(3), plant.mount_rate(cfg.mount, t_mid), cfg.dt))
    for k, (R_mid, _) in enumerate(whole):
        joined = np.concatenate([mid for mid, _ in calls[k::2]])
        assert joined.shape == R_mid.shape
        assert_allclose(joined, R_mid, rtol=0, atol=1e-13)


@pytest.mark.parametrize("run", [
    run_simulation,
    partial(sweep, alphas=[19.8, 15.0], betas=[10.0], threshold=0.5),
])
def test_runs_never_hold_two_noise_basis_blocks(monkeypatch, run):
    made = []

    def watched_basis(t):
        # every block made so far is freed before the next is made
        assert all(ref() is None for ref in made), len(made)
        basis = noise_basis(t)
        made.append(weakref.ref(basis))
        return basis

    noise_basis = plant.noise_basis
    monkeypatch.setattr(plant, "noise_basis", watched_basis)
    cfg = ExperimentConfig()
    cfg.duration = 3.0  # 3000 steps: three blocks
    run(cfg)
    assert len(made) == 3


@pytest.mark.parametrize("decimation", [1, ExperimentConfig().decimation])
def test_sweep_memory_does_not_grow_with_the_cell_count(monkeypatch, decimation):
    # the traced peak past the shared scene, with 2 and with 8 cells of 10^4
    # steps: each extra cell holds its gains, its (6,) state and its grade,
    # under 4 KiB, never a block's inputs or states (a (stops, 6) array whose
    # last row it carried as a view held 68 KB at decimation 1), nor a series
    # as long as the run or its marks
    def scene_then_reset(cfg):
        scene = build(cfg)
        tracemalloc.reset_peak()
        floor.append(tracemalloc.get_traced_memory()[0])
        return scene

    build, floor = harness.build_scene, []
    monkeypatch.setattr(harness, "build_scene", scene_then_reset)
    monkeypatch.setattr(harness, "run_observer", resting_observer)
    cfg = ExperimentConfig()
    cfg.decimation = decimation

    def peak(cells):
        tracemalloc.start()
        try:
            rows = sweep(cfg, [19.8 + i for i in range(cells)], [10.0], threshold=0.5)
            traced = tracemalloc.get_traced_memory()[1] - floor[-1]
        finally:
            tracemalloc.stop()
        assert [r["status"] for r in rows] == ["ok"] * cells
        return traced

    sweep(cfg, [19.8], [10.0], threshold=0.5)  # first-call set-up, untraced
    growth = (peak(8) - peak(2)) / 6
    assert growth < 4096, growth


def test_scene_ignores_seed_gains_and_noise():
    a = ExperimentConfig()
    a.duration = 0.5
    b = copy.deepcopy(a)
    b.seed = 11
    b.gains.alpha, b.gains.beta, b.gains.g0 = 15.0, 5.0, 9.7
    b.noise.gyro_std, b.noise.accel_std = 0.04, 0.2
    b.mount.noise_std, b.mount.kp = 0.1, 3.0
    b.init.vel_err = np.array([0.1, 0.2, 0.3])
    scene_a, scene_b = build_scene(a), build_scene(b)
    for f in dataclasses.fields(scene_a):
        assert getattr(scene_a, f.name).tobytes() == getattr(scene_b, f.name).tobytes(), f.name

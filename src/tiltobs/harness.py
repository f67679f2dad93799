"""Experiment harness: runs the tilt observer against the simulated plant.

Builds the whole scenario from a flat text config (``key = value`` lines,
dotted section prefixes, ``#`` comments), synthesizes IMU data along the
closed-form trajectory, drives the observer step by step, and owns every
output file format: one CSV writer (the run, sweep and error-ODE logs) and
one ``key = value`` format (the reports and the saved config).

Sampling convention: the measurement a step consumes is synthesized at that
step's midpoint (halving the hold error of zero-order-held inputs), and the
recorded row at time t carries the measurement consumed by the step starting
at t (the final row repeats the last one).  All randomness is derived from
the single config seed: child stream 0 feeds measurement noise, child stream
1 feeds the mount's motion disturbance.
"""

from __future__ import annotations

import copy
import itertools
import logging
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import plant
from .analysis import EZ, convergence_time, lyapunov, lyapunov_rate, record_marks, step_count
from .observer import ObserverGains, make_gains, require_positive, run_observer
from .so3 import rotation_between, rotation_exp

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "t,x2_x,x2_y,x2_z,x2hat_x,x2hat_y,x2hat_z,"
    "x1err_x,x1err_y,x1err_z,x2err_x,x2err_y,x2err_z,"
    "V,Vdot,ya_x,ya_y,ya_z,yg_x,yg_y,yg_z"
)
SWEEP_HEADER = "alpha,beta,status,gain_ratio,convergence_time,final_tilt_err_norm"
ERROR_ODE_HEADER = "t,verr_x,verr_y,verr_z,terr_x,terr_y,terr_z,V,Vdot"

ATTITUDE_MODES = ("identity", "consistent", "rotvec")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class GainSettings:
    alpha: float = 19.8
    beta: float = 10.0
    g0: float = 9.81


@dataclass
class NoiseSettings:
    gyro_std: float = 0.0
    accel_std: float = 0.0


@dataclass
class InitSettings:
    vel_err: np.ndarray = plant.vec3_field(0.0, 0.0, 0.0)
    tilt_err: np.ndarray = plant.vec3_field(-1.87, 0.28, 0.39)
    attitude_mode: str = "identity"
    attitude_rotvec: np.ndarray = plant.vec3_field(0.0, 0.0, 0.0)


@dataclass
class OutputSettings:
    csv: str = "run.csv"
    report: str = "report.txt"


@dataclass
class ExperimentConfig:
    duration: float = 10.0
    dt: float = 1e-3
    decimation: int = 10
    seed: int = 0
    gains: GainSettings = field(default_factory=GainSettings)
    noise: NoiseSettings = field(default_factory=NoiseSettings)
    init: InitSettings = field(default_factory=InitSettings)
    pivot: plant.PivotSettings = field(default_factory=plant.PivotSettings)
    mount: plant.MountSettings = field(default_factory=plant.MountSettings)
    output: OutputSettings = field(default_factory=OutputSettings)


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def _parse_int(s: str) -> int:
    return int(s, 0)


def _parse_vec(s: str) -> np.ndarray:
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {s!r}")
    return np.array([_parse_float(p) for p in parts])


_PARSERS = {float: _parse_float, int: _parse_int, str: str, np.ndarray: _parse_vec}


def _schema_entries(cfg: ExperimentConfig):
    """One ``(dotted key, (section or None, field, parser))`` per settings
    field, in declaration order, parsed by the type of its default."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not is_dataclass(value):
            yield f.name, (None, f.name, _PARSERS[type(value)])
            continue
        for g in fields(value):
            yield f"{f.name}.{g.name}", (f.name, g.name, _PARSERS[type(getattr(value, g.name))])


# dotted key -> (section attribute or None for top level, field, parser)
SCHEMA = dict(_schema_entries(ExperimentConfig()))

# the keys a scene is built from (see build_scene); runs that share one scene
# may differ in every other key
SCENE_KEYS = (
    "duration",
    "dt",
    *(key for key in SCHEMA if key.startswith("pivot.")),
    "mount.rate_amp",
    "mount.rate_freq",
    "mount.rate_phase",
    "init.tilt_err",
    "init.attitude_mode",
    "init.attitude_rotvec",
)


def _get(cfg: ExperimentConfig, key: str):
    section, name, _ = SCHEMA[key]
    return getattr(cfg if section is None else getattr(cfg, section), name)


def parse_settings(text: str) -> ExperimentConfig:
    """Parse config text (``key = value`` lines, ``#`` comments) without
    validating the settings; a malformed line, an unknown key or a bad value
    is named by line number and key."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        section, name, parser = SCHEMA[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, name, parsed)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """:func:`parse_settings`, then :func:`validate_config`."""
    cfg = parse_settings(text)
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject configs that cannot be run, naming the offending key."""
    _validate_settings(cfg)
    config_gains(cfg)


def config_gains(cfg: ExperimentConfig) -> ObserverGains:
    """The config's gains; an error names the ``gains.*`` key at fault."""
    try:
        return make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)
    except ValueError as exc:
        # a field check names its field first; the gain rule spans two keys
        name = str(exc).split(" ", 1)[0]
        prefix = "gains." if hasattr(cfg.gains, name) else "gains.beta/gains.alpha: "
        raise ValueError(prefix + str(exc)) from None


def _validate_settings(cfg: ExperimentConfig) -> None:
    """Every check of :func:`validate_config` but the gain checks."""
    for key, (_, _, parser) in SCHEMA.items():
        value = _get(cfg, key)
        if parser in (_parse_float, _parse_vec) and not np.isfinite(value).all():
            raise ValueError(f"{key} must be finite, got {_format_value(value)}")
        # a text value must read back unchanged from its config line
        if parser is str and (
            "#" in value or value != value.strip() or len(value.splitlines()) > 1
        ):
            raise ValueError(
                f"{key} must not hold '#', line breaks or surrounding spaces, got {value!r}"
            )
    if not (cfg.duration > 0.0):
        raise ValueError(f"duration must be positive, got {cfg.duration}")
    if not (cfg.dt > 0.0):
        raise ValueError(f"dt must be positive, got {cfg.dt}")
    step_count(cfg.duration, cfg.dt)  # raises unless 1 <= steps <= MAX_STEPS
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {cfg.decimation}")
    if cfg.noise.gyro_std < 0.0:
        raise ValueError(f"noise.gyro_std must be >= 0, got {cfg.noise.gyro_std}")
    if cfg.noise.accel_std < 0.0:
        raise ValueError(f"noise.accel_std must be >= 0, got {cfg.noise.accel_std}")
    if cfg.mount.noise_std < 0.0:
        raise ValueError(f"mount.noise_std must be >= 0, got {cfg.mount.noise_std}")
    if not (cfg.mount.noise_tau > 0.0):
        raise ValueError(f"mount.noise_tau must be positive, got {cfg.mount.noise_tau}")
    if cfg.mount.kp < 0.0:
        raise ValueError(f"mount.kp must be >= 0, got {cfg.mount.kp}")
    if cfg.init.attitude_mode not in ATTITUDE_MODES:
        raise ValueError(
            f"init.attitude_mode must be one of {ATTITUDE_MODES}, got {cfg.init.attitude_mode!r}"
        )
    n = float(np.linalg.norm(cfg.init.tilt_err))
    if n >= 2.0:
        raise ValueError(f"init.tilt_err norm must be < 2, got {n}")


def _format_value(value) -> str:
    if isinstance(value, np.ndarray):
        return ", ".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def key_value_text(values: dict) -> str:
    """``key = value`` lines, the format of configs and reports alike: floats
    by ``repr``, vectors as comma-separated floats, and a time never reached
    (``None`` or infinite) as ``none``."""
    lines = []
    for key, value in values.items():
        if value is None or (isinstance(value, float) and math.isinf(value)):
            value = "none"
        lines.append(f"{key} = {_format_value(value)}\n")
    return "".join(lines)


def config_text(cfg: ExperimentConfig) -> str:
    """Config serialized back to the text format (round-trips exactly)."""
    return key_value_text({key: _get(cfg, key) for key in SCHEMA})


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(config_text(cfg))


# ---------------------------------------------------------------------------
# simulation


@dataclass
class RunLog:
    """Decimated record of one simulation run."""

    t: np.ndarray
    tilt: np.ndarray  # true tilt x2 = R^T e_z, robot frame
    tilt_est: np.ndarray
    vel_err: np.ndarray  # x1 - x1hat, robot frame
    tilt_err: np.ndarray  # x2 - x2hat, robot frame
    verr_world: np.ndarray  # pivot-rotated errors (autonomous coordinates)
    terr_world: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray
    gyro: np.ndarray  # measurement consumed by the step starting at t
    accel: np.ndarray
    applied_tilt_err0: np.ndarray
    config: ExperimentConfig
    runtime: float
    # wall seconds per phase: rotation (set-up and the scene), mount, sensors,
    # estimator, record
    timings: dict
    steps_per_s: float  # estimator steps per wall second


def _initial_conditions(cfg: ExperimentConfig, world_rot):
    """Base pivot attitude, initial tilt estimate, and the tilt error the
    chosen attitude mode actually realizes."""
    requested = np.asarray(cfg.init.tilt_err, dtype=float)
    mode = cfg.init.attitude_mode
    ez_local = EZ if world_rot is None else world_rot.T @ EZ

    if mode == "consistent":
        # place the true tilt so the requested error sits exactly on the
        # sphere of unit tilt estimates
        n = float(np.linalg.norm(requested))
        if n < 1e-12:
            tilt0 = ez_local
            tilt_hat0 = tilt0.copy()
        else:
            axis = np.cross(requested, EZ)
            if np.linalg.norm(axis) < 1e-12:
                axis = np.cross(requested, np.array([1.0, 0.0, 0.0]))
            axis /= np.linalg.norm(axis)
            tilt0 = 0.5 * requested + np.sqrt(1.0 - 0.25 * n * n) * axis
            tilt_hat0 = tilt0 - requested
        return rotation_between(tilt0, ez_local), tilt_hat0, requested.copy()

    R_base = np.eye(3) if mode == "identity" else rotation_exp(cfg.init.attitude_rotvec)
    R0 = R_base if world_rot is None else world_rot @ R_base
    tilt0 = R0[2]  # row of R = R^T e_z
    return (R_base, *project_tilt_error(tilt0, requested, "init.tilt_err"))


def project_tilt_error(tilt, tilt_err, name: str):
    """The unit tilt estimate nearest ``tilt - tilt_err`` (estimates live on
    the unit sphere) and the tilt error it realizes; ``name`` names the
    requested error in the message when the estimate would be zero."""
    raw = tilt - tilt_err
    n = float(np.linalg.norm(raw))
    if n < 1e-12:
        raise ValueError(f"{name} places the tilt estimate at the zero vector")
    tilt_hat = raw / n
    return tilt_hat, tilt - tilt_hat


@dataclass
class Scene:
    """The part of a run that depends only on the config's :data:`SCENE_KEYS`:
    time grids, initial estimate, both rotation paths and the seed-free
    truth.  Runs that differ only in other keys (seed, gains, noise, mount
    translation) can share one scene."""

    settings: dict  # scene key -> its value as config text
    t_mid: np.ndarray  # step midpoints: samples the estimator consumes
    t_grid: np.ndarray  # step boundaries: samples recorded as truth
    t_all: np.ndarray  # both interleaved: boundaries at even indices, midpoints at odd
    tilt_hat0: np.ndarray
    applied_tilt_err0: np.ndarray
    w_held: np.ndarray  # pivot rate (world frame) at the midpoints
    wm_held: np.ndarray  # mount rate at the midpoints
    alpha_mid: np.ndarray  # pivot angular acceleration (world frame) at the midpoints
    Rp_mid: np.ndarray  # pivot attitude at the midpoints
    Rp: np.ndarray  # pivot attitude at the boundaries
    Rm_mid: np.ndarray  # mount attitude at the midpoints
    gyro_true: np.ndarray
    rate_loc: np.ndarray  # pivot rate (robot frame) at the boundaries
    x2_true: np.ndarray  # true tilt at the boundaries

    def check(self, cfg: ExperimentConfig) -> None:
        """Reject a config whose scene keys differ from this scene's."""
        for key, value in _scene_settings(cfg).items():
            if value != self.settings[key]:
                raise ValueError(
                    f"{key} = {value} differs from the scene's {key} = {self.settings[key]}"
                )


def _scene_settings(cfg: ExperimentConfig) -> dict:
    return {key: _format_value(_get(cfg, key)) for key in SCENE_KEYS}


def build_scene(cfg: ExperimentConfig) -> Scene:
    """Build the scene of a config.  The gains are not checked: they are not
    part of the scene, and a sweep's base config need not keep the gain rule
    that its cells keep."""
    _validate_settings(cfg)
    world_rot = plant.world_rotation(cfg.pivot)
    dt = cfg.dt
    n_steps = step_count(cfg.duration, dt)
    R_base, tilt_hat0, applied_err0 = _initial_conditions(cfg, world_rot)

    # closed-form trajectory signals, sampled on the step midpoints and on
    # the step boundaries
    t_mid = (np.arange(n_steps) + 0.5) * dt
    t_grid = np.arange(n_steps + 1) * dt
    t_all = np.empty(2 * n_steps + 1)
    t_all[0::2] = t_grid
    t_all[1::2] = t_mid
    w_held = plant.pivot_rate(cfg.pivot, t_mid)
    wm_held = plant.mount_rate(cfg.mount, t_mid)
    R_c0 = R_base if world_rot is None else world_rot @ R_base
    Rp_mid, Rp = plant.rotation_path(R_c0, w_held, dt)
    Rm_mid, _ = plant.rotation_path(np.eye(3), wm_held, dt)
    return Scene(
        settings=_scene_settings(cfg),
        t_mid=t_mid,
        t_grid=t_grid,
        t_all=t_all,
        tilt_hat0=tilt_hat0,
        applied_tilt_err0=applied_err0,
        w_held=w_held,
        wm_held=wm_held,
        alpha_mid=plant.pivot_accel(cfg.pivot, t_mid),
        Rp_mid=Rp_mid,
        Rp=Rp,
        Rm_mid=Rm_mid,
        gyro_true=plant.gyro_stream(Rp_mid, w_held, Rm_mid, wm_held),
        rate_loc=np.einsum("nji,nj->ni", Rp, plant.pivot_rate(cfg.pivot, t_grid)),
        x2_true=Rp[:, 2, :],
    )


def run_simulation(cfg: ExperimentConfig, scene=None) -> RunLog:
    """Simulate the plant and run the observer over it
    (:func:`.observer.run_observer`).

    ``scene`` may supply the :func:`build_scene` result of a config with the
    same scene keys; one that differs is a ``ValueError`` naming the key.
    Pure function of the config: no files, no globals.
    """
    wall0 = time.perf_counter()
    _validate_settings(cfg)
    gains = config_gains(cfg)
    if scene is None:
        scene = build_scene(cfg)
    else:
        scene.check(cfg)
    dt = cfg.dt
    n_steps = len(scene.t_mid)
    Rm_mid = scene.Rm_mid
    wall_scene = time.perf_counter()

    motion_noise = plant.MountNoise(cfg.mount.noise_std, cfg.mount.noise_tau, seed=[cfg.seed, 1])
    # one mount evaluation on the interleaved grid
    pos_all, vel_all, acc_all = plant.mount_translation(cfg.mount, motion_noise, scene.t_all)
    pos_mid, vel_mid, acc_mid = pos_all[1::2], vel_all[1::2], acc_all[1::2]
    wall_mount = time.perf_counter()

    accel_true = plant.accel_stream(
        scene.Rp_mid, scene.w_held, scene.alpha_mid, pos_mid, vel_mid, acc_mid, Rm_mid,
        cfg.gains.g0,
    )

    # per-sample draw order is gyro, then accel (C-order fill)
    rng = np.random.default_rng([cfg.seed, 0])
    draws = rng.standard_normal((n_steps, 2, 3))
    gyro_meas = scene.gyro_true + cfg.noise.gyro_std * draws[:, 0]
    accel_meas = accel_true + cfg.noise.accel_std * draws[:, 1]

    # measured pivot rate and velocity-type measurement, robot frame
    y1 = plant.pivot_rate_from_gyro(gyro_meas, Rm_mid, scene.wm_held)
    x1 = plant.velocity_measurement(pos_mid, vel_mid, y1)

    # ground truth on the record grid
    x1_true = plant.velocity_measurement(pos_all[0::2], vel_all[0::2], scene.rate_loc)
    vel_hat0 = x1_true[0] - cfg.init.vel_err
    tilt_hat0 = scene.tilt_hat0
    wall_sensors = time.perf_counter()

    # every state (vel_est, tilt_est), the initial one first
    accel_robot = np.matmul(Rm_mid, accel_meas[:, :, None])[:, :, 0]
    states = run_observer(gains, y1, x1, accel_robot, dt, vel_hat0, tilt_hat0)
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise RuntimeError(f"estimator state diverged by step {k} (t = {k * dt:.6g} s); "
                           "check gains against the step size")
    wall_estimator = time.perf_counter()

    rows = np.array(record_marks(n_steps, cfg.decimation))
    vel_hat = states[rows, :3]
    tilt_hat = states[rows, 3:]
    x1err = x1_true[rows] - vel_hat
    x2err = scene.x2_true[rows] - tilt_hat
    # pivot-rotated errors: one batched matmul on the (m, 3, 2) error pairs
    z = np.matmul(scene.Rp[rows], np.stack([x1err, x2err], axis=-1))
    z1, z2 = z[..., 0], z[..., 1]
    held = np.minimum(rows, n_steps - 1)  # final row repeats the last consumed sample
    V = lyapunov(z1, z2, gains)
    Vdot = lyapunov_rate(z1, z2, gains)
    wall_end = time.perf_counter()

    estimator_s = wall_estimator - wall_sensors
    return RunLog(
        t=scene.t_grid[rows],
        tilt=scene.x2_true[rows],
        tilt_est=tilt_hat,
        vel_err=x1err,
        tilt_err=x2err,
        verr_world=z1,
        terr_world=z2,
        V=V,
        Vdot=Vdot,
        gyro=gyro_meas[held],
        accel=accel_meas[held],
        applied_tilt_err0=scene.applied_tilt_err0.copy(),
        config=cfg,
        runtime=wall_end - wall0,
        timings={
            "rotation": wall_scene - wall0,
            "mount": wall_mount - wall_scene,
            "sensors": wall_sensors - wall_mount,
            "estimator": estimator_s,
            "record": wall_end - wall_estimator,
        },
        steps_per_s=n_steps / estimator_s,
    )


# ---------------------------------------------------------------------------
# output


def format_number(x: float) -> str:
    """9 significant digits, plain decimal notation (never exponent form)."""
    s = np.format_float_positional(x + 0.0, precision=9, unique=False, fractional=False)
    return s.rstrip(".") if s.endswith(".") else s


def write_csv(path, header: str, rows) -> None:
    """The one CSV writer: ``header``, then one line per row, with numbers
    written by :func:`format_number`, ``None`` as an empty field and text as
    it is."""

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return format_number(v)

    lines = [header]
    lines.extend(",".join(map(cell, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def emit_csv(log: RunLog, path) -> None:
    cols = np.column_stack([log.t, log.tilt, log.tilt_est, log.vel_err, log.tilt_err,
                            log.V, log.Vdot, log.accel, log.gyro])
    write_csv(path, CSV_HEADER, cols.tolist())


def grade_tilt(log: RunLog, threshold: float):
    """The one grade of a run's tilt error: its convergence time at
    ``threshold`` (``None`` if it has not converged by the end) and its final
    norm."""
    norms = np.linalg.norm(log.tilt_err, axis=-1)
    return convergence_time(log.t, norms, threshold), float(norms[-1])


def write_report(log: RunLog, path, threshold: float = 0.05) -> None:
    """Flat key = value summary of a run."""
    cfg = log.config
    conv, final = grade_tilt(log, threshold)
    Path(path).write_text(key_value_text({
        "duration": cfg.duration,
        "dt": cfg.dt,
        "steps": step_count(cfg.duration, cfg.dt),
        "decimation": cfg.decimation,
        "seed": cfg.seed,
        "gains.alpha": cfg.gains.alpha,
        "gains.beta": cfg.gains.beta,
        "gains.g0": cfg.gains.g0,
        "gain_ratio": config_gains(cfg).gain_ratio,
        "noise.gyro_std": cfg.noise.gyro_std,
        "noise.accel_std": cfg.noise.accel_std,
        "attitude_mode": cfg.init.attitude_mode,
        "requested_tilt_err0": cfg.init.tilt_err,
        "applied_tilt_err0": log.applied_tilt_err0,
        "tilt_err_final_norm": final,
        "vel_err_final_norm": float(np.linalg.norm(log.vel_err[-1])),
        "tilt_convergence_threshold": threshold,
        "tilt_convergence_time": conv,
        "v_initial": float(log.V[0]),
        "v_final": float(log.V[-1]),
        "runtime_s": log.runtime,
        **{f"time.{phase}_s": seconds for phase, seconds in log.timings.items()},
        "steps_per_s": log.steps_per_s,
    }))


# ---------------------------------------------------------------------------
# gain sweep


def sweep(cfg: ExperimentConfig, alphas, betas, threshold: float = 0.05):
    """Run the scenario over a grid of gains.

    The cells run one after another on one scene, built once from the base
    config (:func:`build_scene`), but each draws its own mount and
    measurement noise from its own seed (base seed XOR cell index), so noisy
    cells stay independent.  Gain pairs that are not finite or violate the
    stability condition are reported as rejected rows, and runs whose state
    diverges as diverged rows (the step index goes to the log), instead of
    aborting the sweep.  The base config's own ``alpha`` and ``beta`` are not
    checked; its ``g0``, which every cell keeps, is.
    """
    require_positive("gains.g0", cfg.gains.g0)
    scene = build_scene(cfg)

    def run_cell(i, a, b):
        row = dict.fromkeys(SWEEP_HEADER.split(","))
        row.update(alpha=a, beta=b, status="ok")
        try:
            gains = make_gains(a, b, cfg.gains.g0)
        except ValueError:
            row["status"] = "rejected"
            return row
        sub = copy.deepcopy(cfg)
        sub.gains.alpha = a
        sub.gains.beta = b
        sub.seed = cfg.seed ^ i
        row["gain_ratio"] = gains.gain_ratio
        try:
            log = run_simulation(sub, scene=scene)
        except RuntimeError as exc:
            logger.warning("sweep cell alpha=%r beta=%r: %s", a, b, exc)
            row["status"] = "diverged"
            return row
        row["convergence_time"], row["final_tilt_err_norm"] = grade_tilt(log, threshold)
        return row

    return [run_cell(i, a, b) for i, (a, b) in enumerate(itertools.product(alphas, betas))]


def write_sweep_csv(rows, path) -> None:
    keys = SWEEP_HEADER.split(",")
    write_csv(path, SWEEP_HEADER, ([r[k] for k in keys] for r in rows))

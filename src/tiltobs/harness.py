"""Experiment harness: runs the tilt observer against the simulated plant.

Builds the whole scenario from a flat text config (``key = value`` lines,
dotted section prefixes, ``#`` comments), synthesizes IMU data along the
closed-form trajectory, drives the observer step by step, and writes the
results as a CSV log plus a small key-value report.

Sampling convention: the measurement a step consumes is synthesized at that
step's midpoint (halving the hold error of zero-order-held inputs), and the
recorded row at time t carries the measurement consumed by the step starting
at t (the final row repeats the last one).  All randomness is derived from
the single config seed: child stream 0 feeds measurement noise, child stream
1 feeds the mount's motion disturbance.
"""

from __future__ import annotations

import copy
import logging
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import plant
from .analysis import convergence_time, lyapunov, lyapunov_rate, record_marks, step_count
from .observer import make_gains, run_observer
from .so3 import rotation_between, rotation_exp

logger = logging.getLogger(__name__)

EZ = np.array([0.0, 0.0, 1.0])

CSV_HEADER = (
    "t,x2_x,x2_y,x2_z,x2hat_x,x2hat_y,x2hat_z,"
    "x1err_x,x1err_y,x1err_z,x2err_x,x2err_y,x2err_z,"
    "V,Vdot,ya_x,ya_y,ya_z,yg_x,yg_y,yg_z"
)

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


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text (``key = value`` lines, ``#`` comments)."""
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
    validate_config(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject configs that cannot be run, naming the offending key."""
    for key, (section, name, parser) in SCHEMA.items():
        value = getattr(cfg if section is None else getattr(cfg, section), name)
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
    if step_count(cfg.duration, cfg.dt) < 1:
        raise ValueError("duration shorter than one step")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {cfg.decimation}")
    if not (cfg.gains.alpha > 0.0):
        raise ValueError(f"gains.alpha must be positive, got {cfg.gains.alpha}")
    if not (cfg.gains.beta > 0.0):
        raise ValueError(f"gains.beta must be positive, got {cfg.gains.beta}")
    try:
        make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)
    except ValueError as exc:
        raise ValueError(f"gains.beta/gains.alpha: {exc}") from None
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


def config_text(cfg: ExperimentConfig) -> str:
    """Config serialized back to the text format (round-trips exactly)."""
    lines = []
    for key, (section, name, _) in SCHEMA.items():
        target = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key} = {_format_value(getattr(target, name))}")
    return "\n".join(lines) + "\n"


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
    requested_tilt_err0: np.ndarray
    applied_tilt_err0: np.ndarray
    config: ExperimentConfig
    runtime: float
    timings: dict  # wall seconds per phase: rotation, mount, sensors, estimator, record
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
        R_base = rotation_between(tilt0, ez_local)
        applied = requested.copy()
        return R_base, tilt_hat0, applied

    R_base = np.eye(3) if mode == "identity" else rotation_exp(cfg.init.attitude_rotvec)
    R0 = R_base if world_rot is None else world_rot @ R_base
    tilt0 = R0[2]  # row of R = R^T e_z
    raw = tilt0 - requested
    n = float(np.linalg.norm(raw))
    if n < 1e-12:
        raise ValueError("init.tilt_err places the initial tilt estimate at the zero vector")
    tilt_hat0 = raw / n  # estimates live on the unit sphere
    applied = tilt0 - tilt_hat0
    return R_base, tilt_hat0, applied


def _diverged(k: int, dt: float, detail: str) -> RuntimeError:
    return RuntimeError(f"estimator state diverged by step {k} (t = {k * dt:.6g} s){detail}")


def run_simulation(cfg: ExperimentConfig, estimator_factory=None) -> RunLog:
    """Simulate the plant and drive an estimator over it.

    ``estimator_factory(gains, vel_est0, tilt_est0)`` may supply a custom
    estimator (anything with ``step(pivot_rate, vel_meas, accel, mount_rot,
    dt)`` plus ``vel_est`` / ``tilt_est`` attributes); the default is the
    built-in observer, run by :func:`.observer.run_observer`.  Pure function
    of the config: no files, no globals.
    """
    wall0 = time.perf_counter()
    validate_config(cfg)
    gains = make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)
    world_rot = plant.world_rotation(cfg.pivot)
    dt = cfg.dt
    n_steps = step_count(cfg.duration, dt)

    motion_noise = plant.MountNoise(
        cfg.mount.noise_std, cfg.mount.noise_tau, seed=[cfg.seed, 1]
    )
    R_base, tilt_hat0, applied_err0 = _initial_conditions(cfg, world_rot)

    # closed-form trajectory signals, sampled on the step midpoints (consumed
    # by the estimator) and on the step boundaries (recorded as truth)
    t_mid = (np.arange(n_steps) + 0.5) * dt
    t_grid = np.arange(n_steps + 1) * dt
    w_held = plant.pivot_rate(cfg.pivot, t_mid)
    wm_held = plant.mount_rate(cfg.mount, t_mid)
    R_c0 = R_base if world_rot is None else world_rot @ R_base
    Rp_mid, Rp = plant.rotation_path(R_c0, w_held, dt)
    Rm_mid, _ = plant.rotation_path(np.eye(3), wm_held, dt)
    wall_rotation = time.perf_counter()
    # one mount evaluation on the interleaved grid: boundaries at even
    # indices, midpoints at odd ones
    t_all = np.empty(2 * n_steps + 1)
    t_all[0::2] = t_grid
    t_all[1::2] = t_mid
    pos_all, vel_all, acc_all = plant.mount_translation(cfg.mount, motion_noise, t_all)
    pos_mid, vel_mid, acc_mid = pos_all[1::2], vel_all[1::2], acc_all[1::2]
    wall_mount = time.perf_counter()
    alpha_mid = plant.pivot_accel(cfg.pivot, t_mid)

    gyro_true = plant.gyro_stream(Rp_mid, w_held, Rm_mid, wm_held)
    accel_true = plant.accel_stream(
        Rp_mid, w_held, alpha_mid, pos_mid, vel_mid, acc_mid, Rm_mid, cfg.gains.g0
    )

    # per-sample draw order is gyro, then accel (C-order fill)
    rng = np.random.default_rng([cfg.seed, 0])
    draws = rng.standard_normal((n_steps, 2, 3))
    gyro_meas = gyro_true + cfg.noise.gyro_std * draws[:, 0]
    accel_meas = accel_true + cfg.noise.accel_std * draws[:, 1]

    # measured pivot rate and velocity-type measurement, robot frame
    y1 = plant.pivot_rate_from_gyro(gyro_meas, Rm_mid, wm_held)
    x1 = plant.velocity_measurement(pos_mid, vel_mid, y1)

    # ground truth on the record grid
    pos_g, vel_g = pos_all[0::2], vel_all[0::2]
    rate_loc = np.einsum("nji,nj->ni", Rp, plant.pivot_rate(cfg.pivot, t_grid))
    x1_true = plant.velocity_measurement(pos_g, vel_g, rate_loc)
    x2_true = Rp[:, 2, :]
    vel_hat0 = x1_true[0] - cfg.init.vel_err
    wall_sensors = time.perf_counter()

    # every state (vel_est, tilt_est), the initial one first
    if estimator_factory is None:
        accel_robot = np.matmul(Rm_mid, accel_meas[:, :, None])[:, :, 0]
        states = run_observer(gains, y1, x1, accel_robot, dt, vel_hat0, tilt_hat0)
    else:
        est = estimator_factory(gains, vel_hat0.copy(), tilt_hat0.copy())
        states = np.empty((n_steps + 1, 6))
        states[0, :3] = est.vel_est
        states[0, 3:] = est.tilt_est
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                try:
                    est.step(y1[k], x1[k], accel_meas[k], Rm_mid[k], dt)
                except (ValueError, OverflowError, FloatingPointError) as exc:
                    # overflowed states surface as math-domain errors
                    raise _diverged(k, dt, f": {exc}") from None
                states[k + 1, :3] = est.vel_est
                states[k + 1, 3:] = est.tilt_est
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise _diverged(int(bad.argmax()), dt, "; check gains against the step size")
    wall_estimator = time.perf_counter()

    rows = np.array(record_marks(n_steps, cfg.decimation))
    vel_hat = states[rows, :3]
    tilt_hat = states[rows, 3:]
    x1err = x1_true[rows] - vel_hat
    x2err = x2_true[rows] - tilt_hat
    # pivot-rotated errors: one batched matmul on the (m, 3, 2) error pairs
    z = np.matmul(Rp[rows], np.stack([x1err, x2err], axis=-1))
    z1, z2 = z[..., 0], z[..., 1]
    held = np.minimum(rows, n_steps - 1)  # final row repeats the last consumed sample
    V = lyapunov(z1, z2, gains)
    Vdot = lyapunov_rate(z1, z2, gains)
    wall_end = time.perf_counter()

    estimator_s = wall_estimator - wall_sensors
    return RunLog(
        t=t_grid[rows],
        tilt=x2_true[rows],
        tilt_est=tilt_hat,
        vel_err=x1err,
        tilt_err=x2err,
        verr_world=z1,
        terr_world=z2,
        V=V,
        Vdot=Vdot,
        gyro=gyro_meas[held],
        accel=accel_meas[held],
        requested_tilt_err0=np.asarray(cfg.init.tilt_err, dtype=float).copy(),
        applied_tilt_err0=applied_err0,
        config=cfg,
        runtime=wall_end - wall0,
        timings={
            "rotation": wall_rotation - wall0,
            "mount": wall_mount - wall_rotation,
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


def emit_csv(log: RunLog, path) -> None:
    cols = np.column_stack(
        [
            log.t,
            log.tilt,
            log.tilt_est,
            log.vel_err,
            log.tilt_err,
            log.V,
            log.Vdot,
            log.accel,
            log.gyro,
        ]
    )
    lines = [CSV_HEADER]
    lines.extend(",".join(format_number(v) for v in row) for row in cols)
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(log: RunLog, path, threshold: float = 0.05) -> None:
    """Flat key = value summary of a run."""
    cfg = log.config
    tilt_err_norm = np.linalg.norm(log.tilt_err, axis=-1)
    conv = convergence_time(log.t, tilt_err_norm, threshold)
    lines = [
        f"duration = {cfg.duration!r}",
        f"dt = {cfg.dt!r}",
        f"steps = {step_count(cfg.duration, cfg.dt)}",
        f"decimation = {cfg.decimation}",
        f"seed = {cfg.seed}",
        f"gains.alpha = {cfg.gains.alpha!r}",
        f"gains.beta = {cfg.gains.beta!r}",
        f"gains.g0 = {cfg.gains.g0!r}",
        f"gain_ratio = {make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0).gain_ratio!r}",
        f"noise.gyro_std = {cfg.noise.gyro_std!r}",
        f"noise.accel_std = {cfg.noise.accel_std!r}",
        f"attitude_mode = {cfg.init.attitude_mode}",
        f"requested_tilt_err0 = {_format_value(log.requested_tilt_err0)}",
        f"applied_tilt_err0 = {_format_value(log.applied_tilt_err0)}",
        f"tilt_err_final_norm = {float(tilt_err_norm[-1])!r}",
        f"vel_err_final_norm = {float(np.linalg.norm(log.vel_err[-1]))!r}",
        f"tilt_convergence_threshold = {threshold!r}",
        f"tilt_convergence_time = {'none' if conv is None else repr(conv)}",
        f"v_initial = {float(log.V[0])!r}",
        f"v_final = {float(log.V[-1])!r}",
        f"runtime_s = {log.runtime!r}",
        *(f"time.{phase}_s = {seconds!r}" for phase, seconds in log.timings.items()),
        f"steps_per_s = {log.steps_per_s!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# gain sweep


SWEEP_HEADER = "alpha,beta,status,gain_ratio,convergence_time,final_tilt_err_norm"


def sweep(
    cfg: ExperimentConfig,
    alphas,
    betas,
    threshold: float = 0.05,
):
    """Run the scenario over a grid of gains.

    Gain pairs violating the stability condition are reported as rejected
    rows, and runs whose state diverges as diverged rows (the step index goes
    to the log), instead of aborting the sweep.  Each cell runs with its own
    seed (base seed XOR cell index) so noisy scenarios stay independent.
    Cells run one after another: a run is GIL-bound Python, so threads only
    add memory.
    """
    cells = [(i, a, b) for i, (a, b) in enumerate(
        (a, b) for a in alphas for b in betas
    )]

    def run_cell(cell):
        i, a, b = cell
        row = {"alpha": a, "beta": b, "status": "ok", "gain_ratio": None,
               "convergence_time": None, "final_tilt_err_norm": None}
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
            log = run_simulation(sub)
        except RuntimeError as exc:
            logger.warning("sweep cell alpha=%r beta=%r: %s", a, b, exc)
            row["status"] = "diverged"
            return row
        norms = np.linalg.norm(log.tilt_err, axis=-1)
        row["convergence_time"] = convergence_time(log.t, norms, threshold)
        row["final_tilt_err_norm"] = float(norms[-1])
        return row

    return [run_cell(cell) for cell in cells]


def write_sweep_csv(rows, path) -> None:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return format_number(float(v))

    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                cell(r[k])
                for k in ("alpha", "beta", "status", "gain_ratio",
                          "convergence_time", "final_tilt_err_norm")
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")

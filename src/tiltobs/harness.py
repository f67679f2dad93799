"""Experiment harness: runs the tilt observer against the simulated plant.

Builds the whole scenario from a flat text config (``key = value`` lines,
dotted section prefixes, ``#`` comments; :func:`load_config` is the one
loader, and :func:`config_gains` checks the gains where it makes them),
synthesizes IMU data along the closed-form trajectory (:func:`build_scene`,
shared by a sweep's cells, holds its seed- and gain-free part), drives the
observer step by step, and owns every output format, as text that the CLI
writes: one CSV format (the run, sweep and error-ODE logs) and one
``key = value`` format (the reports and the saved config).

Sampling convention: the measurement a step consumes is synthesized at that
step's midpoint (halving the hold error of zero-order-held inputs), and the
recorded row at time t carries the measurement consumed by the step starting
at t (the final row repeats the last one).  All randomness is derived from
the single config seed: child stream 0 feeds measurement noise, child stream
1 feeds the mount's motion disturbance.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import plant
from .analysis import (EZ, _time_after, convergence_times, lyapunov, lyapunov_rate, record_marks,
                       step_count)
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
TILT_THRESHOLD = 0.05  # the tilt-error norm a run converges below, unless told otherwise
EFFECTIVE_CONFIG = "effective.cfg"  # the config a command saves beside its outputs
# steps per block of a run; output bits depend on it twice: rotation_path scans a block
# in blocks of sqrt(1024) = 32 steps, and the noise basis matmul's bits move with its width
# (most of its values on 1- or 2-column products, a few on wide ones)
ROW_BLOCK = 1024
# observer inputs (rad/s, m/s, m/s^2) past this magnitude come from no pendulum:
# configs/noisy.cfg's stay under 11.  A block whose inputs pass it is refused, naming
# the mount.* and noise.* keys that make them, before the observer steps it; so is init.vel_err
INPUT_BOUND = 1e6


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


def _get(cfg: ExperimentConfig, key: str):
    section, name, _ = SCHEMA[key]
    return getattr(cfg if section is None else getattr(cfg, section), name)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text (``key = value`` lines, ``#`` comments), then check
    its settings (:func:`validate_config`).  A malformed line, an unknown key,
    a key set twice or a bad value is named by line number and key."""
    cfg, seen = ExperimentConfig(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if (first := seen.setdefault(key, lineno)) != lineno:
            raise ValueError(f"line {lineno}: config key {key!r} is already set on line {first}")
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


def config_gains(cfg: ExperimentConfig) -> ObserverGains:
    """The config's gains; an error names the ``gains.*`` key at fault."""
    try:
        return make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)
    except ValueError as exc:
        # a field check names its field first; the gain rule spans two keys
        name = str(exc).split(" ", 1)[0]
        prefix = "gains." if hasattr(cfg.gains, name) else "gains.beta/gains.alpha: "
        raise ValueError(prefix + str(exc)) from None


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject settings that cannot be run, naming the offending key.  The
    gains are checked where they are made, by :func:`config_gains`: a sweep's
    cells replace the base config's own."""
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
    n = math.hypot(*cfg.init.tilt_err)  # no overflow to inf on a huge entry
    if n >= 2.0:
        raise ValueError(f"init.tilt_err norm must be < 2, got {n}")
    if np.abs(cfg.init.vel_err).max() > INPUT_BOUND:  # a start no pendulum has
        raise ValueError(f"init.vel_err entries must be at most {INPUT_BOUND:g} in magnitude, "
                         f"got {_format_value(cfg.init.vel_err)}")
    taken = [EFFECTIVE_CONFIG]  # the outputs are written side by side
    for key in (k for k in SCHEMA if k.startswith("output.")):
        name = _get(cfg, key)
        if name in ("", ".", "..", *taken) or Path(name).name != name:
            raise ValueError(f"{key} must be a bare file name other than {taken}, got {name!r}")
        taken.append(name)


def _format_value(value) -> str:
    if isinstance(value, np.ndarray):
        return ", ".join(repr(float(x)) for x in value)
    return str(value)  # a float's str is its repr; a numpy scalar's is its number


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
    gains: ObserverGains  # the checked gains the run used
    runtime: float
    # wall seconds per phase: rotation (set-up and both rotation paths, with each
    # block's truth), mount, sensors, estimator, record
    timings: dict
    steps_per_s: float  # estimator steps per wall second


def _initial_conditions(cfg: ExperimentConfig, world_rot):
    """Initial pivot attitude, initial tilt estimate, and the tilt error the
    chosen attitude mode actually realizes."""
    requested = np.asarray(cfg.init.tilt_err, dtype=float)
    mode = cfg.init.attitude_mode
    ez_local = world_rot.T @ EZ

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
        return world_rot @ rotation_between(tilt0, ez_local), tilt_hat0, requested.copy()

    R_base = np.eye(3) if mode == "identity" else rotation_exp(cfg.init.attitude_rotvec)
    _require_finite("init.attitude_rotvec", R_base)  # its squared angle overflows past 1e308
    R0 = world_rot @ R_base
    tilt0 = R0[2]  # row of R = R^T e_z
    return (R0, *project_tilt_error(tilt0, requested, "init.tilt_err"))


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
    """The part of a run that is free of seed, gains, noise and mount
    translation, none of it growing with the run's length: the record marks
    (the last is the step count), the initial pivot attitude and the initial
    estimate.  Built from ``duration``, ``dt``, ``decimation``,
    ``pivot.world_rotvec`` and the initial tilt keys.  :func:`_run_cells`
    walks it in blocks of steps ``lo:hi`` (:data:`ROW_BLOCK`, the last
    fewer), making each block's inputs once, at its midpoints and marks, for
    every observer on it: a run's one, or a sweep's cells in lockstep."""

    marks: np.ndarray  # the recorded step boundaries
    R0: np.ndarray  # pivot attitude at t = 0
    tilt_hat0: np.ndarray
    applied_tilt_err0: np.ndarray


def build_scene(cfg: ExperimentConfig) -> Scene:
    """Build the scene of a config, checking its settings
    (:func:`validate_config`).  The gains are not checked: they are not part
    of the scene, and a sweep's base config need not keep the gain rule that
    its cells keep."""
    validate_config(cfg)
    marks = np.array(record_marks(step_count(cfg.duration, cfg.dt), cfg.decimation))
    with np.errstate(all="ignore"):  # a non-finite R0 makes a non-finite pivot path
        R0, tilt_hat0, applied_err0 = _initial_conditions(
            cfg, rotation_exp(cfg.pivot.world_rotvec))
    return Scene(marks=marks, R0=R0, tilt_hat0=tilt_hat0, applied_tilt_err0=applied_err0)


def _require_finite(keys: str, *path) -> None:
    if not all(np.isfinite(part).all() for part in path):
        raise ValueError(f"a rotation made by {keys} overflows to a non-finite attitude")


def _block_inputs(cfg, scene: Scene, noise, rng, lo: int, hi: int, R, timings: dict):
    """The observer inputs of the steps ``lo:hi``, sampled at their midpoints,
    and the truth at the block's marks (the final mark joins the last block),
    booking phase times in ``timings``: both rotation paths integrated from
    their attitudes ``R`` (pivot, mount) at ``lo``, the mount translation of
    ``noise``, measurement noise drawn from ``rng``.  Returns ``(rows, peak,
    stops, pick, at, x1, Rp, gyro, accel)``: the (k, 9) rows and their largest
    magnitude; the block's ends and marks, and the marks' places there and in
    ``scene.marks``; the true x1, pivot attitude and held gyro and accel at
    the marks.  Then both attitudes at ``hi``.  A path that overflows, or
    rows past :data:`INPUT_BOUND`, are refused naming their keys."""
    wall = time.perf_counter()
    at = slice(*np.searchsorted(scene.marks, (lo, hi + (hi == scene.marks[-1]))))
    marks, k = scene.marks[at], hi - lo
    mid = np.arange(2 * lo + 1, 2 * hi, 2) * (0.5 * cfg.dt)  # the bits of (k + 0.5) * dt
    with np.errstate(all="ignore"):  # each path at the closed-form rate on the midpoints
        w, wm = plant.pivot_rate(cfg.pivot, mid), plant.mount_rate(cfg.mount, mid)
        (Rp_mid, Rp), (Rm_mid, Rm) = (plant.rotation_path(R0, rate, cfg.dt)
                                      for R0, rate in zip(R, (w, wm)))
    _require_finite("pivot.* keys", Rp_mid, Rp)
    _require_finite("mount.rate_* keys", Rm_mid)
    R, Rp, t = (Rp[-1], Rm[-1]), Rp[marks - lo], np.concatenate([mid, marks * cfg.dt])
    rate = np.einsum("nji,nj->ni", Rp, plant.pivot_rate(cfg.pivot, t[k:]))
    gyro_true, alpha = plant.gyro_stream(Rp_mid, w, Rm_mid, wm), plant.pivot_accel(cfg.pivot, mid)
    timings["rotation"] += (t1 := time.perf_counter()) - wall
    # the k midpoints, then the marks
    pos, vel, acc = plant.mount_translation(cfg.mount, noise, t, plant.noise_basis(t))
    timings["mount"] += (t2 := time.perf_counter()) - t1
    accel_true = plant.accel_stream(Rp_mid, w, alpha, pos[:k], vel[:k], acc[:k], Rm_mid,
                                    cfg.gains.g0)
    # per-sample draw order is gyro, then accel (C-order fill), block after block
    draws = rng.standard_normal((k, 2, 3))
    gyro_meas = gyro_true + cfg.noise.gyro_std * draws[:, 0]
    accel_meas = accel_true + cfg.noise.accel_std * draws[:, 1]
    # measured pivot rate and velocity-type measurement, robot frame
    y1 = plant.pivot_rate_from_gyro(gyro_meas, Rm_mid, wm)
    x1 = plant.velocity_measurement(pos[:k], vel[:k], y1)
    rows = np.hstack([y1, x1, np.matmul(Rm_mid, accel_meas[:, :, None])[:, :, 0]])
    if not (peak := float(np.abs(rows).max(initial=0.0))) <= INPUT_BOUND:  # NaN too
        raise ValueError(f"mount.* and noise.* keys make the observer's inputs reach "
                         f"|{peak:.3g}| in the block from t = {lo * cfg.dt:g} s, past "
                         f"any pendulum's {INPUT_BOUND:g}")
    x1_true = plant.velocity_measurement(pos[k:], vel[k:], rate)
    held = np.minimum(marks, scene.marks[-1] - 1) - lo  # the final mark repeats step n - 1's
    stops = sorted({lo, *marks.tolist(), hi})  # np.union1d imports numpy.ma
    timings["sensors"] += time.perf_counter() - t2
    return (rows, peak, stops, np.searchsorted(stops, marks), at, x1_true, Rp, gyro_meas[held],
            accel_meas[held]), R


def run_simulation(cfg: ExperimentConfig) -> RunLog:
    """Simulate the plant and run the observer over it
    (:func:`.observer.run_observer`).  Pure function of the config: no files,
    no globals."""
    wall0 = time.perf_counter()
    s, cell = build_scene(cfg), _Cell(config_gains(cfg))
    timings = _run_cells(cfg, s, [cell], wall0)
    if cell.error:
        raise cell.error
    wall = time.perf_counter()
    states, x1_true, Rp, gyro, accel = (np.concatenate(kept) for kept in zip(*cell.kept))
    x1err, x2err = x1_true - states[:, :3], Rp[:, 2] - states[:, 3:]
    # pivot-rotated errors: one batched matmul on the (m, 3, 2) error pairs
    z = np.matmul(Rp, np.stack([x1err, x2err], axis=-1))
    z1, z2 = z[..., 0], z[..., 1]
    V, Vdot = lyapunov(z1, z2, cell.gains), lyapunov_rate(z1, z2, cell.gains)
    timings["record"] += (wall_end := time.perf_counter()) - wall
    return RunLog(
        t=s.marks * cfg.dt, tilt=Rp[:, 2].copy(), tilt_est=states[:, 3:], vel_err=x1err,
        tilt_err=x2err, verr_world=z1, terr_world=z2, V=V, Vdot=Vdot, gyro=gyro, accel=accel,
        applied_tilt_err0=s.applied_tilt_err0.copy(), config=cfg, gains=cell.gains,
        runtime=wall_end - wall0, timings=timings,
        steps_per_s=int(s.marks[-1]) / timings["estimator"],
    )


def _run_cells(cfg: ExperimentConfig, scene: Scene, cells, wall0) -> dict:
    """Step the :class:`_Cell` observers in lockstep over the one input stream
    of ``cfg`` on ``scene``: one mount noise (seed ``[seed, 1]``), one
    measurement-noise stream (``[seed, 0]``), and each block's inputs
    (:func:`_block_inputs`, steps ``lo:hi`` of :data:`ROW_BLOCK`, or the
    rest) made once, freed before the next block's, until no cell runs.
    Cells start from one state at mark 0 and carry their own.  A cell that
    diverges drops out, keeping its ``RuntimeError``'s message as ``error``:
    its traceback would hold its last block.  Returns the wall seconds per
    phase since ``wall0``, set-up as rotation, the cells' estimator and record summed."""
    noise = plant.MountNoise(cfg.mount.noise_std, cfg.mount.noise_tau, cfg.mount.kp,
                             seed=[cfg.seed, 1])
    rng = np.random.default_rng([cfg.seed, 0])
    timings = dict.fromkeys(("rotation", "mount", "sensors", "estimator", "record"), 0.0)
    timings["rotation"] = time.perf_counter() - wall0
    n, R = int(scene.marks[-1]), (scene.R0, np.eye(3))  # the last mark is the step count
    for lo in range(0, n, ROW_BLOCK):
        if not (live := [cell for cell in cells if cell.error is None]):
            break
        inputs, R = _block_inputs(cfg, scene, noise, rng, lo, min(lo + ROW_BLOCK, n), R, timings)
        if lo == 0:  # mark 0 opens the first block, each cell's start: x1 truth, estimate
            start = np.concatenate([inputs[5][0] - cfg.init.vel_err, scene.tilt_hat0])
            for cell in cells:
                cell.state = start
        for cell in live:
            try:
                cell.advance(cfg.dt, inputs, timings)
            except RuntimeError as exc:
                cell.error = RuntimeError(*exc.args)
        del inputs  # freed before the next block's are made
    return timings


class _Cell:
    """One observer on a run's input stream: its ``gains`` and its ``state``
    at the start of the next block, stepped a block a call by
    :func:`_run_cells`.  It keeps its states with the truth at the marks for
    the run's log or, given a ``threshold`` (a sweep's cells), only their
    grade."""

    def __init__(self, gains: ObserverGains, threshold=None):
        self.gains, self.state, self.error = gains, None, None
        # per block: states, x1 truth, pivot attitude, gyro, accel at the marks; or the grade's
        self.threshold, self.kept, self.last_above, self.final_norm = threshold, [], -1, None

    def advance(self, dt: float, inputs, timings: dict) -> None:
        """Step the block of :func:`_block_inputs` ``inputs`` from ``state``
        to the block's end, carrying a copy of the state there, and keep the
        states or the grade of the block's marks."""
        rows, peak, stops, pick, at, x1_true, Rp, gyro, accel = inputs
        t0 = time.perf_counter()
        walk = zip(*[iter(memoryview(rows.ravel()))] * 9)  # at half tolist's cost
        try:
            states = np.array(list(run_observer(self.gains, dt, walk, self.state, stops)))
        except RuntimeError as exc:
            raise RuntimeError(f"{exc}; its inputs reach |{peak:.3g}|") from None
        # a copy: a view would hold the block's whole (stops, 6) array
        self.state, states = states[-1].copy(), states[pick]
        timings["estimator"] += (t1 := time.perf_counter()) - t0
        if self.threshold is None:
            self.kept.append((states, x1_true, Rp, gyro, accel))
        elif len(states):  # the last mark at or above threshold so far, and the last norm
            norms = np.linalg.norm(Rp[:, 2] - states[:, 3:], axis=-1)
            above = np.flatnonzero(norms >= self.threshold)
            self.last_above = at.start + above[-1] if len(above) else self.last_above
            self.final_norm = float(norms[-1])
        timings["record"] += time.perf_counter() - t1

    def grade(self, t):
        """A sweep cell's report grade, once every block has been advanced,
        on its marks' times ``t``: its tilt convergence time (``None`` if
        never reached) and final tilt-error norm."""
        conv = float(_time_after(t, self.last_above))
        return (None if math.isinf(conv) else conv), self.final_norm


# ---------------------------------------------------------------------------
# output


def format_number(x: float) -> str:
    """9 significant digits, plain decimal notation (never exponent form)."""
    s = np.format_float_positional(x + 0.0, precision=9, unique=False, fractional=False)
    return s.rstrip(".") if s.endswith(".") else s


def csv_cell(v) -> str:
    """One CSV field of a row that may hold more than numbers: a number as
    :func:`format_number` writes it, ``None`` as an empty field and text as
    it is.  It is the field-by-field oracle of :func:`csv_text`'s array path."""
    if v is None:
        return ""
    return v if isinstance(v, str) else format_number(v)


# rows per numpy pass and printf of csv_text's array path: a pass over a whole
# run's log would hold a dozen temporaries, each as large as the log's text
CSV_BLOCK = 16
# a field's printf spec and the separator after it: precisions 0 to 308, then
# "%s" for a field that format_number writes (index 309), each ending in ","
# and, from index 310 on, in the "\n" that ends a row
_CSV_SPECS = tuple(spec + end for end in ",\n"
                   for spec in (*(f"%.{p}f" for p in range(309)), "%s"))


def _array_blocks(cols: np.ndarray):
    """The text of the 2-D float array ``cols``, a block of
    :data:`CSV_BLOCK` lines at a time: one numpy pass finds every field's
    spec, then one printf writes the block.

    A field takes printf's 9 significant digits (precision 8 - e, with
    e = floor(log10 |v|)) unless it is flagged, when :func:`format_number`
    writes it.  Where printf's last digit is 0 and |v| is at most the printed
    decimal (exact or rounded up), Dragon4 drops the trailing zeros and pads
    the fraction back to 9 - (integer digits) places.  That is printf's own
    width, 8 - e, except below 1 (the integer part "0" is one digit) and
    where the rounding carries into a new integer digit.  With
    q = |v| 10^(8 - e), printf's digits are q rounded, so the flag takes
    q mod 10 at or above 9.5, or at 0, with a margin of 1e-5 over the few
    ulps that q is off by: it flags a superset.  It also flags q at or past
    the edges of [1e8, 1e9), where np.log10 may be an ulp off next to a
    power of ten, and zero, non-finite and out-of-range values (|v| outside
    [1e-300, 1e9)).  It is the one place that picks printf over Dragon4.
    """
    for lo in range(0, len(cols), CSV_BLOCK):
        block = cols[lo : lo + CSV_BLOCK]
        m = np.abs(block)
        with np.errstate(all="ignore"):  # zero, NaN and inf make a NaN q; |v| < 1e-300 an inf
            p = 8.0 - np.floor(np.log10(m))
            q = m * 10.0**p
            r = q % 10.0  # exact
        trims = (r >= 9.5 - 1e-5) | (r <= 1e-5)
        flag = ~((q >= 1e8 + 1e-3) & (q <= 1e9 - 1e-3) & (m < 1e9))
        flag |= trims & ((p > 8.0) | (q >= 1e9 - 0.5 - 1e-5))
        specs = np.where(flag, 309, p).astype(int)
        specs[:, -1] += 310
        values = block.ravel().tolist()
        for k in np.flatnonzero(flag).tolist():
            values[k] = format_number(values[k])
        yield "".join(map(_CSV_SPECS.__getitem__, specs.ravel().tolist())) % tuple(values)


def csv_text(header: str, rows) -> str:
    """The one CSV format: ``header``, then one line per row.

    A 2-D float array (a run's or an error-ODE's columns) takes the array
    path, :func:`_array_blocks`: a few rows a numpy pass and a printf, so
    neither the values nor the lines of the whole text ever live as Python
    objects at once.  Rows of other values (a sweep's, with ``None`` and
    text) are :func:`csv_cell` fields.  Both write a number as
    :func:`format_number` does."""
    if isinstance(rows, np.ndarray):
        return "".join([header, "\n", *_array_blocks(rows)])
    # the "" ends the text with a newline without copying it again
    return "\n".join([header, *(",".join(map(csv_cell, row)) for row in rows), ""])


def run_csv(log: RunLog) -> str:
    """The run's CSV: one :data:`CSV_HEADER` row per mark."""
    cols = np.column_stack([log.t, log.tilt, log.tilt_est, log.vel_err, log.tilt_err,
                            log.V, log.Vdot, log.accel, log.gyro])
    return csv_text(CSV_HEADER, cols)


def run_report(log: RunLog, threshold: float = TILT_THRESHOLD) -> dict:
    """The run's report, in order, for :func:`key_value_text`: its tilt error
    is graded at ``threshold``, and a convergence time not reached by the end
    is inf, written ``none``."""
    cfg, norms = log.config, np.linalg.norm(log.tilt_err, axis=-1)
    return {
        "duration": cfg.duration,
        "dt": cfg.dt,
        "steps": step_count(cfg.duration, cfg.dt),
        "decimation": cfg.decimation,
        "seed": cfg.seed,
        "gains.alpha": cfg.gains.alpha,
        "gains.beta": cfg.gains.beta,
        "gains.g0": cfg.gains.g0,
        "gain_ratio": log.gains.gain_ratio,
        "noise.gyro_std": cfg.noise.gyro_std,
        "noise.accel_std": cfg.noise.accel_std,
        "attitude_mode": cfg.init.attitude_mode,
        "requested_tilt_err0": cfg.init.tilt_err,
        "applied_tilt_err0": log.applied_tilt_err0,
        "tilt_err_final_norm": float(norms[-1]),
        "vel_err_final_norm": float(np.linalg.norm(log.vel_err[-1])),
        "tilt_convergence_threshold": threshold,
        "tilt_convergence_time": float(convergence_times(log.t, norms, threshold)),
        "v_initial": float(log.V[0]),
        "v_final": float(log.V[-1]),
        "runtime_s": log.runtime,
        **{f"time.{phase}_s": seconds for phase, seconds in log.timings.items()},
        "steps_per_s": log.steps_per_s,
    }


# ---------------------------------------------------------------------------
# gain sweep


def sweep(cfg: ExperimentConfig, alphas, betas, threshold: float = TILT_THRESHOLD):
    """Run the scenario over a grid of gains.

    The cells are observers on one run of the base config: one scene
    (:func:`build_scene`) and one input stream, each block's made once
    (:func:`_run_cells`), every cell stepping its own gains over it in
    lockstep.  So a row is the grade of :func:`run_simulation` on the base
    config with that cell's gains, and every cell sees the same noise
    (common random numbers: cells differ by their gains alone).  Gain pairs
    that are not finite or violate the stability condition are reported as
    rejected rows, and runs whose state diverges as diverged rows (the step
    and ``alpha*dt`` go to the log), instead of aborting the sweep.  The base
    config's own ``alpha`` and ``beta`` are not checked; its ``g0``, which
    every cell keeps, is.  Keys that no cell replaces fail the whole sweep
    with a ``ValueError``: a rotation path that overflows (``pivot.*``,
    ``mount.rate_*``) and observer inputs past :data:`INPUT_BOUND`
    (``mount.*``, ``noise.*``).
    Returns one row per cell in grid order, a dict in :data:`SWEEP_HEADER` order.
    """
    require_positive("gains.g0", cfg.gains.g0)
    wall0 = time.perf_counter()
    scene = build_scene(cfg)
    rows, cells = [], []
    for a, b in itertools.product(alphas, betas):
        row = dict.fromkeys(SWEEP_HEADER.split(",")) | {"alpha": a, "beta": b, "status": "ok"}
        rows.append(row)
        try:
            gains = make_gains(a, b, cfg.gains.g0)
        except ValueError:
            row["status"] = "rejected"
            continue
        row["gain_ratio"] = gains.gain_ratio
        cells.append((row, _Cell(gains, threshold)))
    _run_cells(cfg, scene, [cell for _, cell in cells], wall0)
    for row, cell in cells:
        if cell.error is None:
            row["convergence_time"], row["final_tilt_err_norm"] = cell.grade(scene.marks * cfg.dt)
            continue
        logger.warning("sweep cell alpha=%r beta=%r: %s", row["alpha"], row["beta"], cell.error)
        row["status"] = "diverged"
    return rows

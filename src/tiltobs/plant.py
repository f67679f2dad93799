"""Kinematic plant for a robot articulated on a ball joint (pivot), plus the
IMU models used to exercise the tilt observer.

Two rigid-motion layers are simulated:

* the *pivot*: the rotation ``R`` of the robot frame relative to the world,
  driven by a world-frame angular acceleration signal (``Rdot = S(omega) R``);
* the *mount*: the IMU pose inside the robot frame (position ``pos`` with
  derivatives ``vel``/``acc``, attitude ``R`` with body rate ``omega``),
  assumed perfectly known from joint encoders.

All scalar driving signals are analytic in time (per-axis sinusoids, plus a
band-limited random series for the mount velocity), so positions, velocities
and accelerations are mutually consistent in closed form; only the two
rotations are integrated numerically.  Each integration step holds the rate
sampled at the step midpoint, which keeps the discrete paths second-order
accurate and lets sensors be sampled anywhere on a step's rotation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .so3 import rotation_exp, rotation_exp_batch

EZ = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# state containers


@dataclass
class PivotState:
    """Pivot attitude with its world-frame rate and angular acceleration."""

    R: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray


@dataclass
class MountKinematics:
    """IMU pose and its derivatives, expressed in the robot frame."""

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    R: np.ndarray
    omega: np.ndarray


@dataclass
class ImuMeasurement:
    gyro: np.ndarray
    accel: np.ndarray


@dataclass
class NoiseSpec:
    """White measurement noise, one std per sensor (SI units), plus the seed
    of the stream that realizes it."""

    gyro_std: float = 0.0
    accel_std: float = 0.0
    seed: int = 0


@dataclass
class TrajectoryConfig:
    """Driving signals for the pivot and the mount.

    The pivot's angular acceleration and the mount's angular rate are per-axis
    sinusoids ``amp * sin(2*pi*freq*t + phase)``.  The mount linear velocity is
    ``noise + kp * (p_ref - pos)``: a smooth disturbance around a position
    set-point.  ``world_rot`` optionally rotates the whole pivot motion (signals
    and initial attitude) by a fixed world rotation.
    """

    pivot_accel_amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pivot_accel_freq: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pivot_accel_phase: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pivot_rate0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mount_rate_amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mount_rate_freq: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mount_rate_phase: np.ndarray = field(default_factory=lambda: np.zeros(3))
    kp: float = 2.0
    p_ref: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.3]))
    p0: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.3]))
    noise_std: float = 0.0
    noise_tau: float = 0.2
    g0: float = 9.81
    world_rot: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in (
            "pivot_accel_amp",
            "pivot_accel_freq",
            "pivot_accel_phase",
            "pivot_rate0",
            "mount_rate_amp",
            "mount_rate_freq",
            "mount_rate_phase",
            "p_ref",
            "p0",
        ):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


# ---------------------------------------------------------------------------
# analytic signals


def _sines(t, amp, freq, phase):
    """Per-axis ``amp * sin(2 pi freq t + phase)``; t scalar or (...,)."""
    t = np.asarray(t, dtype=float)
    arg = 2.0 * np.pi * freq * t[..., None] + phase
    return amp * np.sin(arg)


def _sines_integral(t, amp, freq, phase):
    """Exact integral of :func:`_sines` from 0 to t (handles freq == 0)."""
    t = np.asarray(t, dtype=float)
    w = 2.0 * np.pi * freq
    safe = np.where(w == 0.0, 1.0, w)
    osc = amp / safe * (np.cos(phase) - np.cos(w * t[..., None] + phase))
    lin = amp * np.sin(phase) * t[..., None]
    return np.where(w == 0.0, lin, osc)


def pivot_accel(cfg: TrajectoryConfig, t) -> np.ndarray:
    """World-frame pivot angular acceleration at time(s) t."""
    a = _sines(t, cfg.pivot_accel_amp, cfg.pivot_accel_freq, cfg.pivot_accel_phase)
    if cfg.world_rot is not None:
        a = a @ cfg.world_rot.T
    return a


def pivot_rate(cfg: TrajectoryConfig, t) -> np.ndarray:
    """World-frame pivot angular velocity at time(s) t (exact integral)."""
    w = cfg.pivot_rate0 + _sines_integral(
        t, cfg.pivot_accel_amp, cfg.pivot_accel_freq, cfg.pivot_accel_phase
    )
    if cfg.world_rot is not None:
        w = w @ cfg.world_rot.T
    return w


def mount_rate(cfg: TrajectoryConfig, t) -> np.ndarray:
    """Robot-frame angular rate of the IMU mount at time(s) t."""
    return _sines(t, cfg.mount_rate_amp, cfg.mount_rate_freq, cfg.mount_rate_phase)


class MountNoise:
    """Smooth band-limited velocity disturbance for the mount.

    Realizes white noise shaped by a first-order low-pass (time constant
    ``tau``) as a seeded random harmonic series whose amplitudes follow the
    filter's magnitude response.  Sample paths are infinitely smooth, so the
    mount acceleration remains the exact derivative of its velocity, and the
    whole process is deterministic given the seed.
    """

    def __init__(
        self,
        std: float,
        tau: float,
        seed,
        n_harmonics: int = 64,
        period: float = 16.0,
    ) -> None:
        rng = np.random.default_rng(seed)
        m = np.arange(1, n_harmonics + 1, dtype=float)
        self.omega = 2.0 * np.pi * m / period
        gain2 = 1.0 / (1.0 + (self.omega * tau) ** 2)
        self.amp = std * np.sqrt(2.0 * gain2 / gain2.sum())
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, n_harmonics))
        self.std = float(std)
        self.tau = float(tau)

    def series(self, t, kp: float):
        """``(value, deriv, lag_response)`` at time(s) t, plus ``lag_response(0)``.

        One sin/cos basis of ``omega * t`` serves all three: angle addition,
        ``sin(w t + p) = sin(w t) cos(p) + cos(w t) sin(p)``, folds the phases,
        amplitudes and per-signal factors into (64, 9) weights, so the signals
        come from two matmuls.  At t = 0 the basis is ``sin = 0``, ``cos = 1``.
        """
        w = self.omega[:, None]
        a = self.amp[:, None]
        cp = np.cos(self.phase).T
        sp = np.sin(self.phase).T
        lag = a / (kp * kp + w**2)
        # value: a sin(wt+p); deriv: a w cos(wt+p);
        # lag_response: a (kp sin(wt+p) - w cos(wt+p)) / (kp^2 + w^2)
        w_sin = np.hstack([a * cp, -a * w * sp, lag * (kp * cp + w * sp)])
        w_cos = np.hstack([a * sp, a * w * cp, lag * (kp * sp - w * cp)])
        wt = np.asarray(t, dtype=float)[..., None] * self.omega
        out = np.sin(wt) @ w_sin + np.cos(wt) @ w_cos
        return out[..., 0:3], out[..., 3:6], out[..., 6:9], w_cos[:, 6:9].sum(axis=0)

    def value(self, t) -> np.ndarray:
        return self.series(t, 0.0)[0]

    def deriv(self, t) -> np.ndarray:
        return self.series(t, 0.0)[1]

    def lag_response(self, t, kp: float) -> np.ndarray:
        """Particular solution of ``qdot + kp q = value(t)``, per axis."""
        return self.series(t, kp)[2]


def mount_translation(cfg: TrajectoryConfig, noise: MountNoise, t):
    """Closed-form (pos, vel, acc) of the mount at time(s) t.

    Solves ``pdot = noise + kp (p_ref - p)`` exactly: low-pass particular
    response plus exponentially decaying homogeneous part.
    """
    t = np.asarray(t, dtype=float)
    value, deriv, q, q0 = noise.series(t, cfg.kp)
    decay = np.exp(-cfg.kp * t)[..., None]
    pos = cfg.p_ref + (cfg.p0 - cfg.p_ref - q0) * decay + q
    vel = value + cfg.kp * (cfg.p_ref - pos)
    acc = deriv - cfg.kp * vel
    return pos, vel, acc


# ---------------------------------------------------------------------------
# stepping

# Each step advances a rotation by holding the midpoint rate: the increment is
# exp(S(w_mid) dt) applied as two identical half rotations, so a state sampled
# mid-step lies exactly on the step's rotation path.


def pivot_init(cfg: TrajectoryConfig, R0: np.ndarray | None = None) -> PivotState:
    R = np.eye(3) if R0 is None else np.asarray(R0, dtype=float)
    if cfg.world_rot is not None:
        R = cfg.world_rot @ R
    return PivotState(R=R, omega=pivot_rate(cfg, 0.0), alpha=pivot_accel(cfg, 0.0))


def step_pivot(state: PivotState, cfg: TrajectoryConfig, t: float, dt: float) -> PivotState:
    w_mid = pivot_rate(cfg, t + 0.5 * dt)
    half = rotation_exp(w_mid * (0.5 * dt))
    return PivotState(
        R=half @ (half @ state.R),
        omega=pivot_rate(cfg, t + dt),
        alpha=pivot_accel(cfg, t + dt),
    )


def pivot_midstate(state: PivotState, cfg: TrajectoryConfig, t: float, dt: float) -> PivotState:
    """Pivot sample at t + dt/2, on the same rotation path step_pivot takes."""
    w_mid = pivot_rate(cfg, t + 0.5 * dt)
    half = rotation_exp(w_mid * (0.5 * dt))
    return PivotState(R=half @ state.R, omega=w_mid, alpha=pivot_accel(cfg, t + 0.5 * dt))


def mount_init(cfg: TrajectoryConfig, noise: MountNoise) -> MountKinematics:
    pos, vel, acc = mount_translation(cfg, noise, 0.0)
    return MountKinematics(pos=pos, vel=vel, acc=acc, R=np.eye(3), omega=mount_rate(cfg, 0.0))


def step_mount(
    state: MountKinematics, cfg: TrajectoryConfig, t: float, dt: float, noise: MountNoise
) -> MountKinematics:
    w_mid = mount_rate(cfg, t + 0.5 * dt)
    half = rotation_exp(w_mid * (0.5 * dt))
    pos, vel, acc = mount_translation(cfg, noise, t + dt)
    return MountKinematics(pos=pos, vel=vel, acc=acc, R=half @ (half @ state.R), omega=mount_rate(cfg, t + dt))


def mount_midstate(
    state: MountKinematics, cfg: TrajectoryConfig, t: float, dt: float, noise: MountNoise
) -> MountKinematics:
    """Mount sample at t + dt/2, on the same rotation path step_mount takes."""
    w_mid = mount_rate(cfg, t + 0.5 * dt)
    half = rotation_exp(w_mid * (0.5 * dt))
    pos, vel, acc = mount_translation(cfg, noise, t + 0.5 * dt)
    return MountKinematics(pos=pos, vel=vel, acc=acc, R=half @ state.R, omega=w_mid)


def rotation_path(R0: np.ndarray, w_held: np.ndarray, dt: float):
    """Integrate a rotation along per-step held rates ``w_held`` (N, 3).

    Returns ``(R_mid, R)``: the (N, 3, 3) midpoint samples and the (N+1, 3, 3)
    step-boundary attitudes of the same path.  Matches step-by-step use of
    :func:`step_pivot` / :func:`step_mount` exactly.
    """
    n = w_held.shape[0]
    halves = rotation_exp_batch(w_held * (0.5 * dt))
    R_mid = np.empty((n, 3, 3))
    R = np.empty((n + 1, 3, 3))
    R[0] = R0
    cur = np.asarray(R0, dtype=float)
    for k in range(n):
        h = halves[k]
        mid = h @ cur
        cur = h @ mid
        R_mid[k] = mid
        R[k + 1] = cur
    return R_mid, R


# ---------------------------------------------------------------------------
# sensors


def synth_gyro(pivot: PivotState, mount: MountKinematics) -> np.ndarray:
    """Gyro reading: mount rate plus pivot rate, in the sensor frame."""
    return mount.R.T @ (mount.omega + pivot.R.T @ pivot.omega)


def synth_accel(pivot: PivotState, mount: MountKinematics, g0: float) -> np.ndarray:
    """Accelerometer reading (specific force) in the sensor frame.

    Sum of the lever-arm terms from the pivot motion (Euler, centripetal and
    Coriolis), the mount's own acceleration, and gravity along the robot-frame
    vertical.
    """
    rate = pivot.R.T @ pivot.omega
    angacc = pivot.R.T @ pivot.alpha
    tilt = pivot.R[2]  # row of R = R^T e_z: gravity direction in the robot frame
    lever = (
        np.cross(angacc, mount.pos)
        + np.cross(rate, np.cross(rate, mount.pos))
        + 2.0 * np.cross(rate, mount.vel)
    )
    return mount.R.T @ (lever + mount.acc + g0 * tilt)


def add_noise(meas: ImuMeasurement, spec: NoiseSpec, rng: np.random.Generator) -> ImuMeasurement:
    """White Gaussian noise per axis.  Draw order: gyro, then accel."""
    return ImuMeasurement(
        gyro=meas.gyro + spec.gyro_std * rng.standard_normal(3),
        accel=meas.accel + spec.accel_std * rng.standard_normal(3),
    )


def pivot_rate_from_gyro(gyro: np.ndarray, mount: MountKinematics) -> np.ndarray:
    """Recover the pivot rate (robot frame) by removing the known mount rate."""
    return mount.R @ gyro - mount.omega


def velocity_measurement(mount: MountKinematics, rate: np.ndarray) -> np.ndarray:
    """Velocity-type measurement driving the observer.

    Equals the negated linear velocity of the IMU expressed in the robot
    frame, assembled purely from known mount kinematics and the recovered
    pivot rate.
    """
    return np.cross(mount.pos, rate) - mount.vel


# batched variants used by the vectorized harness (same formulas, stacked)


def gyro_stream(pivot_R, pivot_w, mount_R, mount_w) -> np.ndarray:
    inner = mount_w + np.einsum("nji,nj->ni", pivot_R, pivot_w)
    return np.einsum("nji,nj->ni", mount_R, inner)


def accel_stream(pivot_R, pivot_w, pivot_a, pos, vel, acc, mount_R, g0: float) -> np.ndarray:
    rate = np.einsum("nji,nj->ni", pivot_R, pivot_w)
    angacc = np.einsum("nji,nj->ni", pivot_R, pivot_a)
    tilt = pivot_R[:, 2, :]
    lever = (
        np.cross(angacc, pos)
        + np.cross(rate, np.cross(rate, pos))
        + 2.0 * np.cross(rate, vel)
    )
    return np.einsum("nji,nj->ni", mount_R, lever + acc + g0 * tilt)

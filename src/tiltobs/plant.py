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

from .so3 import rotation_exp


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

    def series(self, t, kp: float):
        """``(value, deriv, lag)`` at time(s) t, plus ``lag`` at t = 0.

        ``value`` is the disturbance, ``deriv`` its time derivative, and
        ``lag`` the particular solution of ``qdot + kp q = value``, per axis.
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
        # lag: a (kp sin(wt+p) - w cos(wt+p)) / (kp^2 + w^2)
        w_sin = np.hstack([a * cp, -a * w * sp, lag * (kp * cp + w * sp)])
        w_cos = np.hstack([a * sp, a * w * cp, lag * (kp * sp - w * cp)])
        wt = np.asarray(t, dtype=float)[..., None] * self.omega
        out = np.sin(wt) @ w_sin + np.cos(wt) @ w_cos
        return out[..., 0:3], out[..., 3:6], out[..., 6:9], w_cos[:, 6:9].sum(axis=0)


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
# rotation paths

# Each step advances a rotation by holding the midpoint rate: the increment is
# exp(S(w_mid) dt) applied as two identical half rotations, so a state sampled
# mid-step lies exactly on the step's rotation path.


def rotation_path(R0: np.ndarray, w_held: np.ndarray, dt: float):
    """Integrate a rotation along per-step held rates ``w_held`` (N, 3).

    Returns ``(R_mid, R)``: the (N, 3, 3) midpoint samples and the (N+1, 3, 3)
    step-boundary attitudes of the same path: ``R_mid[k]`` is
    ``exp(S(w_k) dt/2) @ R[k]`` and ``R[k + 1]`` is ``exp(S(w_k) dt/2) @ R_mid[k]``.
    """
    n = w_held.shape[0]
    halves = rotation_exp(w_held * (0.5 * dt))
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
#
# One set of formulas, broadcasting over leading axes: a single sample takes
# (3, 3) rotations and (3,) vectors, a stream takes (N, 3, 3) and (N, 3).


def gyro_stream(pivot_R, pivot_w, mount_R, mount_w) -> np.ndarray:
    """Gyro reading: mount rate plus pivot rate, in the sensor frame."""
    inner = mount_w + np.einsum("...ji,...j->...i", pivot_R, pivot_w)
    return np.einsum("...ji,...j->...i", mount_R, inner)


def accel_stream(pivot_R, pivot_w, pivot_a, pos, vel, acc, mount_R, g0: float) -> np.ndarray:
    """Accelerometer reading (specific force) in the sensor frame.

    Sum of the lever-arm terms from the pivot motion (Euler, centripetal and
    Coriolis), the mount's own acceleration, and gravity along the robot-frame
    vertical.
    """
    rate = np.einsum("...ji,...j->...i", pivot_R, pivot_w)
    angacc = np.einsum("...ji,...j->...i", pivot_R, pivot_a)
    tilt = pivot_R[..., 2, :]  # row of R = R^T e_z: gravity direction in the robot frame
    lever = (
        np.cross(angacc, pos)
        + np.cross(rate, np.cross(rate, pos))
        + 2.0 * np.cross(rate, vel)
    )
    return np.einsum("...ji,...j->...i", mount_R, lever + acc + g0 * tilt)


def pivot_rate_from_gyro(gyro, mount_R, mount_w) -> np.ndarray:
    """Recover the pivot rate (robot frame) by removing the known mount rate."""
    return np.einsum("...ij,...j->...i", mount_R, gyro) - mount_w


def velocity_measurement(pos, vel, rate) -> np.ndarray:
    """Velocity-type measurement driving the observer.

    Equals the negated linear velocity of the IMU expressed in the robot
    frame, assembled purely from known mount kinematics (``pos``, ``vel``)
    and the pivot rate in the robot frame.
    """
    return np.cross(pos, rate) - vel

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

:class:`PivotSettings` and :class:`MountSettings` hold each layer's driving
signals; they are also the ``pivot`` and ``mount`` sections of the experiment
config, one config key per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .so3 import rotation_exp, rotation_exp_increment


def vec3_field(x: float, y: float, z: float):
    """Dataclass field defaulting to a fresh float vector ``(x, y, z)``."""
    return field(default_factory=lambda: np.array([x, y, z], dtype=float))


@dataclass
class PivotSettings:
    """Pivot motion: world-frame angular acceleration ``accel_amp *
    sin(2*pi*accel_freq*t + accel_phase)`` per axis from the rate ``rate0``,
    all turned by the fixed world rotation ``world_rotvec``."""

    accel_amp: np.ndarray = vec3_field(0.50, 0.45, 0.40)
    accel_freq: np.ndarray = vec3_field(0.7, 1.1, 1.3)
    accel_phase: np.ndarray = vec3_field(0.4, 1.3, 2.2)
    rate0: np.ndarray = vec3_field(0.2, -0.15, 0.1)
    world_rotvec: np.ndarray = vec3_field(0.0, 0.0, 0.0)


@dataclass
class MountSettings:
    """Mount motion in the robot frame: angular rate ``rate_amp *
    sin(2*pi*rate_freq*t + rate_phase)`` per axis, and linear velocity
    ``noise + kp * (p_ref - pos)`` from ``pos = p0``, the noise a smooth
    :class:`MountNoise` of ``noise_std`` and ``noise_tau``."""

    rate_amp: np.ndarray = vec3_field(0.5, 0.4, 0.6)
    rate_freq: np.ndarray = vec3_field(0.9, 0.6, 1.2)
    rate_phase: np.ndarray = vec3_field(0.9, 0.2, 1.7)
    kp: float = 2.0
    p_ref: np.ndarray = vec3_field(0.0, 0.0, 1.3)
    p0: np.ndarray = vec3_field(0.0, 0.0, 1.3)
    noise_std: float = 0.05
    noise_tau: float = 0.2


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


def pivot_accel(pivot: PivotSettings, t) -> np.ndarray:
    """World-frame pivot angular acceleration at time(s) t."""
    a = _sines(t, pivot.accel_amp, pivot.accel_freq, pivot.accel_phase)
    return a @ rotation_exp(pivot.world_rotvec).T


def pivot_rate(pivot: PivotSettings, t) -> np.ndarray:
    """World-frame pivot angular velocity at time(s) t (exact integral)."""
    w = pivot.rate0 + _sines_integral(t, pivot.accel_amp, pivot.accel_freq, pivot.accel_phase)
    return w @ rotation_exp(pivot.world_rotvec).T


def mount_rate(mount: MountSettings, t) -> np.ndarray:
    """Robot-frame angular rate of the IMU mount at time(s) t."""
    return _sines(t, mount.rate_amp, mount.rate_freq, mount.rate_phase)


# the mount disturbance's harmonic series: the multiples 1..64 of 2 pi / 16 s
NOISE_HARMONICS = 64
NOISE_PERIOD = 16.0


class MountNoise:
    """Smooth band-limited velocity disturbance for the mount.

    Realizes white noise shaped by a first-order low-pass (time constant
    ``tau``) as a seeded random harmonic series (:data:`NOISE_HARMONICS`
    harmonics of period :data:`NOISE_PERIOD`) whose amplitudes follow the
    filter's magnitude response.  Sample paths are infinitely smooth, so the
    mount acceleration remains the exact derivative of its velocity, and the
    whole process is deterministic given the seed.
    """

    def __init__(self, std: float, tau: float, kp: float, seed) -> None:
        rng = np.random.default_rng(seed)
        m = np.arange(1, NOISE_HARMONICS + 1, dtype=float)
        self.omega = 2.0 * np.pi * m / NOISE_PERIOD
        # a tau so large that every gain underflows to 0 makes NaN amplitudes,
        # refused where they reach the observer's inputs
        with np.errstate(all="ignore"):
            gain2 = 1.0 / (1.0 + (self.omega * tau) ** 2)
            self.amp = std * np.sqrt(2.0 * gain2 / gain2.sum())
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, NOISE_HARMONICS))
        w, a = self.omega[:, None], self.amp[:, None]
        cp, sp = np.cos(self.phase).T, np.sin(self.phase).T
        lag = a / (kp * kp + w**2)
        # value: a sin(wt+p); deriv: a w cos(wt+p);
        # lag: a (kp sin(wt+p) - w cos(wt+p)) / (kp^2 + w^2)
        w_sin = np.hstack([a * cp, -a * w * sp, lag * (kp * cp + w * sp)])
        w_cos = np.hstack([a * sp, a * w * cp, lag * (kp * sp - w * cp)])
        self.weights = np.vstack([w_sin, w_cos])
        self.lag0 = w_cos[:, 6:9].sum(axis=0)

    def series(self, t, basis):
        """``(value, deriv, lag)`` at time(s) t, plus ``lag`` at t = 0.

        ``value`` is the disturbance, ``deriv`` its time derivative, and
        ``lag`` the particular solution of ``qdot + kp q = value``, per axis.
        One sin/cos basis of ``omega * t``, :func:`noise_basis`, serves all
        three: angle addition, ``sin(w t + p) = sin(w t) cos(p) + cos(w t)
        sin(p)``, folds the phases, amplitudes, ``kp`` and per-signal factors
        into (128, 9) weights, made with the noise, so one matmul gives them.  ``basis`` is
        that basis at t; it is free of the seed, so the caller makes it once
        for every noise on the same times (a sweep's cells share each block's).
        At t = 0 the basis is exactly ``sin = 0``, ``cos = 1``.
        """
        t = np.asarray(t, dtype=float)
        out = (self.weights.T @ basis).T.reshape(t.shape + (9,))
        return out[..., 0:3], out[..., 3:6], out[..., 6:9], self.lag0


def noise_basis(t) -> np.ndarray:
    """The sin/cos basis of every :class:`MountNoise` at time(s) t, raveled: (2
    :data:`NOISE_HARMONICS`, t.size), from the fundamental (:func:`_harmonic_basis`)."""
    return _harmonic_basis(2.0 * np.pi / NOISE_PERIOD * np.ravel(t), NOISE_HARMONICS)


def _harmonic_basis(x, m: int) -> np.ndarray:
    """Rows ``sin(k x)`` for k = 1..m, then ``cos(k x)``: (2m, len(x)).

    ``sin``/``cos`` run on ``x`` only; angle addition from harmonic k fills
    harmonics k + 1..2k, so the filled count doubles (1, 2, 4, ... 64).
    """
    basis = np.empty((2 * m, x.size))
    s, c = basis[:m], basis[m:]
    s[0] = np.sin(x)
    c[0] = np.cos(x)
    k = 1
    while k < m:
        j = min(k, m - k)
        sk, ck = s[k - 1], c[k - 1]
        # sin(a + b) = sin a cos b + cos a sin b, cos(a + b) = cos a cos b - sin a sin b
        np.multiply(c[:j], sk, out=s[k : k + j])
        s[k : k + j] += ck * s[:j]
        np.multiply(c[:j], ck, out=c[k : k + j])
        c[k : k + j] -= sk * s[:j]
        k += j
    return basis


def mount_translation(mount: MountSettings, noise: MountNoise, t, basis):
    """Closed-form (pos, vel, acc) of the mount at time(s) t.

    Solves ``pdot = noise + kp (p_ref - p)`` exactly: low-pass particular
    response plus exponentially decaying homogeneous part.  ``basis`` is
    ``noise_basis(t)`` (see :meth:`MountNoise.series`).
    """
    t = np.asarray(t, dtype=float)
    value, deriv, q, q0 = noise.series(t, basis)
    decay = np.exp(-mount.kp * t)[..., None]
    pos = mount.p_ref + (mount.p0 - mount.p_ref - q0) * decay + q
    vel = value + mount.kp * (mount.p_ref - pos)
    acc = deriv - mount.kp * vel
    return pos, vel, acc


# ---------------------------------------------------------------------------
# rotation paths

# Each step advances a rotation by holding the midpoint rate: the increment is
# exp(S(w_mid) dt), and the mid-step sample is the half rotation
# exp(S(w_mid) dt/2) applied to the step's start, so it lies on the step's
# rotation path.


def rotation_path(R0: np.ndarray, w_held: np.ndarray, dt: float):
    """Integrate a rotation along per-step held rates ``w_held`` (N, 3).

    Returns ``(R_mid, R)``: the (N, 3, 3) midpoint samples and the (N+1, 3, 3)
    step-boundary attitudes of the same path: ``R[k + 1]`` is
    ``exp(S(w_k) dt) @ R[k]`` and ``R_mid[k]`` is ``exp(S(w_k) dt/2) @ R[k]``.

    The step products are a blocked prefix scan, so the Python loops run
    about 2 sqrt(N) times, each a batched matmul.  Steps are split into
    blocks of about sqrt(N); the running product inside every block is taken
    at once, then carried across blocks.  Every partial product inside a
    block is kept as an increment ``Q`` on the identity, ``(I + Q_i)(I + Q_j)
    = I + Q_i + Q_j + Q_i Q_j``, starting from each step's
    :func:`.so3.rotation_exp_increment`, so roundoff scales with the small
    increment instead of with the unit diagonal.
    """
    n = w_held.shape[0]
    size = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n)) steps per block
    blocks = max(1, -(-n // size))
    Q = np.zeros((blocks * size, 3, 3))  # padded steps are the identity
    Q[:n] = rotation_exp_increment(w_held * dt)
    Q = Q.reshape(blocks, size, 3, 3)
    for i in range(1, size):  # I + Q[:, i] becomes the product of steps i..0 of its block
        Q[:, i] += Q[:, i - 1] + Q[:, i] @ Q[:, i - 1]
    C = np.empty((blocks, 3, 3))  # attitude at the start of each block
    C[0] = R0
    for j in range(1, blocks):
        C[j] = C[j - 1] + Q[j - 1, -1] @ C[j - 1]
    Q = Q @ C[:, None]  # each attitude C + Q C, summed in place
    Q += C[:, None]
    R = np.empty((n + 1, 3, 3))
    R[0] = R0
    R[1:] = Q.reshape(-1, 3, 3)[:n]
    del Q  # freed before the midpoint rotations are made
    R_mid = rotation_exp(w_held * (0.5 * dt)) @ R[:-1]
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
    lever = _cross(angacc, pos) + _cross(rate, _cross(rate, pos)) + 2.0 * _cross(rate, vel)
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
    return _cross(pos, rate) - vel


def _cross(a, b) -> np.ndarray:
    """``np.cross`` of (..., 3) vectors, bit for bit, at half its cost on a block of rows."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)

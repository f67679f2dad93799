"""Tilt observer for a robot that can only rotate about a fixed ball joint.

The observer estimates the robot-frame direction of the world vertical (the
*tilt*, a unit vector) from an IMU whose motion inside the robot is known.
Its state is

* ``vel_est``: estimate of the velocity-type measurement (the negated IMU
  linear velocity in the robot frame), and
* ``tilt_est``: estimate of the tilt.

Per step it consumes the recovered pivot rate, the velocity-type measurement,
the raw accelerometer reading and the mount attitude (see :mod:`.plant`).
The velocity estimate follows a linear observer with injection gain ``alpha``;
the tilt estimate is transported by the pivot rate, steered by the velocity
innovation with gain ``beta``.  Both gains and the gravity magnitude ``g0``
are positive, and the gains must satisfy
``beta * g0 < alpha**2`` (strict): the dimensionless ratio ``beta*g0/alpha**2``
below one is what makes the error dynamics contract around zero error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np


def _coefficients(t2):
    """Rodrigues coefficients ``sin(t)/t``, ``(1 - cos(t))/t^2`` of ``t2 = t^2``."""
    if t2 < 1e-24:
        return 1.0 - t2 / 6.0, 0.5 - t2 / 24.0  # series
    t = math.sqrt(t2)
    return math.sin(t) / t, (1.0 - math.cos(t)) / t2


def _coefficients_arrays(t2):
    """:func:`_coefficients` on (B,) arrays, its branch as ``np.where``."""
    small = t2 < 1e-24
    safe = np.where(small, 1.0, t2)
    t = np.sqrt(safe)
    sc = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / t)
    return sc, np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / safe)


def _apply(sc, vc, t2, wx, wy, wz, vx, vy, vz):
    """Rotate v by w given the coefficients of ``t2 = |w|^2``."""
    cx = wy * vz - wz * vy
    cy = wz * vx - wx * vz
    cz = wx * vy - wy * vx
    d = wx * vx + wy * vy + wz * vz
    # w x (w x v) = w (w . v) - v (w . w)
    return (
        vx + sc * cx + vc * (d * wx - t2 * vx),
        vy + sc * cy + vc * (d * wy - t2 * vy),
        vz + sc * cz + vc * (d * wz - t2 * vz),
    )


def rotate_twice(wx, wy, wz, vx, vy, vz, coefficients=_coefficients):
    """``R v`` and ``R R v`` for R the rotation by the rotation vector w, as
    ``(hx, hy, hz, ux, uy, uz)``, from one evaluation of the coefficients."""
    t2 = wx * wx + wy * wy + wz * wz
    sc, vc = coefficients(t2)
    hx, hy, hz = _apply(sc, vc, t2, wx, wy, wz, vx, vy, vz)
    return (hx, hy, hz, *_apply(sc, vc, t2, wx, wy, wz, hx, hy, hz))


# the same on (B,) component arrays
rotate_twice_arrays = partial(rotate_twice, coefficients=_coefficients_arrays)


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class ObserverGains:
    alpha: float
    beta: float
    g0: float = 9.81

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "g0"):
            require_positive(name, getattr(self, name))
        if not (self.beta * self.g0 < self.alpha**2):
            raise ValueError(
                "gains violate beta*g0 < alpha**2 "
                f"(beta*g0={self.beta * self.g0}, alpha**2={self.alpha**2})"
            )

    @property
    def gain_ratio(self) -> float:
        """beta*g0/alpha**2, in (0, 1).  Smaller means stronger contraction."""
        return self.beta * self.g0 / self.alpha**2


def make_gains(alpha: float, beta: float, g0: float = 9.81) -> ObserverGains:
    return ObserverGains(alpha=float(alpha), beta=float(beta), g0=float(g0))


def observer_derivative(
    vel_est: np.ndarray,
    tilt_est: np.ndarray,
    gains: ObserverGains,
    pivot_rate: np.ndarray,
    vel_meas: np.ndarray,
    accel: np.ndarray,
    mount_rot: np.ndarray,
):
    """Continuous-time right-hand side of the observer.

    Returns ``(vel_dot, omega_eff)``: the velocity-estimate derivative and the
    effective rate transporting the tilt estimate (``tilt_dot`` equals
    ``-cross(omega_eff, tilt_est)``).
    """
    innov = vel_meas - vel_est
    vel_dot = (
        -np.cross(pivot_rate, vel_est)
        + gains.g0 * tilt_est
        - mount_rot @ accel
        + gains.alpha * innov
    )
    omega_eff = pivot_rate - gains.beta * np.cross(tilt_est, innov)
    return vel_dot, omega_eff


def step_floats(a, b, g, dt, wx, wy, wz, mx, my, mz, fx, fy, fz, vx, vy, vz, tx, ty, tz,
                rotate=rotate_twice):
    """Advance the observer one step on Python floats.

    Takes the gains ``a, b, g`` (alpha, beta, g0), the step ``dt``, the pivot
    rate ``w``, the velocity-type measurement ``m``, the specific force in the
    robot frame ``f`` (``mount_rot @ accel``) and the state ``v``, ``t``;
    returns the new ``(vx, vy, vz, tx, ty, tz)``.  Measurements are held
    over [t, t+dt].

    The tilt estimate moves along the exact rotation flow of the effective
    rate (frozen over the step), which keeps it unit-norm to machine
    precision; the velocity estimate takes a classic 4-stage Runge-Kutta step
    with the tilt sampled on that flow at each stage time.  The innovation
    steering the tilt is taken against a half-step prediction of the velocity
    estimate: measurements are naturally mid-step averages of the held
    interval, and comparing them with the start-of-step estimate would leak a
    spurious rate proportional to dt times the measurement slope.

    The body is spelled out in scalar arithmetic: a 10 s run at 1 ms steps
    takes 10^4 of these and numpy dispatch on 3-vectors would dominate the
    cost.  ``observer_derivative`` is the readable reference the tests check.

    One :func:`rotate_twice` call gives the tilt at the half and the full
    step from one sin/cos evaluation.  With ``rotate=rotate_twice_arrays`` the
    body steps B observers at once: any argument may be a (B,) array, per-row
    gains included, and the result holds (B,) arrays.
    """
    # constant part of the velocity dynamics over the step; each stage below
    # is -pivot_rate x vel - a*vel + g*tilt + const
    cx = a * mx - fx
    cy = a * my - fy
    cz = a * mz - fz
    h = 0.5 * dt
    k1x = cx - (wy * vz - wz * vy) - a * vx + g * tx
    k1y = cy - (wz * vx - wx * vz) - a * vy + g * ty
    k1z = cz - (wx * vy - wy * vx) - a * vz + g * tz
    px, py, pz = vx + h * k1x, vy + h * k1y, vz + h * k1z  # half-step prediction
    ix, iy, iz = mx - px, my - py, mz - pz
    ex = wx - b * (ty * iz - tz * iy)
    ey = wy - b * (tz * ix - tx * iz)
    ez = wz - b * (tx * iy - ty * ix)

    rx, ry, rz = -h * ex, -h * ey, -h * ez  # half-step rotation vector
    hx, hy, hz, ux, uy, uz = rotate(rx, ry, rz, tx, ty, tz)

    gx, gy, gz = g * hx, g * hy, g * hz
    k2x = cx - (wy * pz - wz * py) - a * px + gx
    k2y = cy - (wz * px - wx * pz) - a * py + gy
    k2z = cz - (wx * py - wy * px) - a * pz + gz
    px, py, pz = vx + h * k2x, vy + h * k2y, vz + h * k2z
    k3x = cx - (wy * pz - wz * py) - a * px + gx
    k3y = cy - (wz * px - wx * pz) - a * py + gy
    k3z = cz - (wx * py - wy * px) - a * pz + gz
    px, py, pz = vx + dt * k3x, vy + dt * k3y, vz + dt * k3z
    k4x = cx - (wy * pz - wz * py) - a * px + g * ux
    k4y = cy - (wz * px - wx * pz) - a * py + g * uy
    k4z = cz - (wx * py - wy * px) - a * pz + g * uz
    s = dt / 6.0
    return (
        vx + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
        vy + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        vz + s * (k1z + 2.0 * k2z + 2.0 * k3z + k4z),
        ux, uy, uz,
    )


def run_observer(gains, pivot_rate, vel_meas, accel_robot, dt, vel0, tilt0) -> np.ndarray:
    """Run :func:`step_floats` over (N, 3) streams of pivot rate, velocity
    measurement and robot-frame specific force (``mount_rot @ accel``).

    Returns the (N+1, 6) array of every state ``(vel_est, tilt_est)``, the
    initial one first.  A state that has overflowed ends in a math-domain
    error inside the rotation; from that step on the rows are NaN, so a
    caller finds divergence with one finiteness scan.
    """
    a, b, g = gains.alpha, gains.beta, gains.g0
    n = len(pivot_rate)
    s = (*np.asarray(vel0, dtype=float).tolist(), *np.asarray(tilt0, dtype=float).tolist())
    states = [s]
    # one list of 9-float rows converts faster than three lists of 3-float rows
    rows = np.hstack([pivot_rate, vel_meas, accel_robot]).tolist()
    try:
        for r in rows:
            s = step_floats(a, b, g, dt, *r, *s)
            states.append(s)
    except (ValueError, OverflowError):
        states.extend([(math.nan,) * 6] * (n + 1 - len(states)))
    return np.array(states)

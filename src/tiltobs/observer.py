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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .so3 import rotate_twice, rotate_twice_arrays


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
        if not math.isfinite(self.alpha * self.alpha):  # alpha**2 would raise OverflowError
            raise ValueError(f"alpha must have a finite square, got {self.alpha}")
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


def step_floats(a, b, g, dt, rows, state, rotate=rotate_twice):
    """Advance the observer over a block of steps, in scalar arithmetic.

    Takes the gains ``a, b, g`` (alpha, beta, g0), the step ``dt``, an
    iterable of ``rows`` and the state ``(vx, vy, vz, tx, ty, tz)``; returns
    the state after one step per row.  Each row holds the 9 inputs of one
    step: the pivot rate ``w``, the velocity-type measurement ``m`` and the
    specific force in the robot frame ``f`` (``mount_rot @ accel``), held
    over [t, t+dt].

    The tilt estimate moves along the exact rotation flow of the effective
    rate (frozen over the step), which keeps it unit-norm to machine
    precision; the velocity estimate takes a classic 4-stage Runge-Kutta step
    with the tilt sampled on that flow at each stage time.  The innovation
    steering the tilt is taken against a half-step prediction of the velocity
    estimate: measurements are naturally mid-step averages of the held
    interval, and comparing them with the start-of-step estimate would leak a
    spurious rate proportional to dt times the measurement slope.

    The body is spelled out in scalar arithmetic and loops over the rows
    itself: a 10 s run at 1 ms steps is 10^4 steps, and numpy dispatch on
    3-vectors or a Python call per step would dominate the cost.
    ``observer_derivative`` is the readable reference the tests check.

    One :func:`.so3.rotate_twice` call a step gives the tilt at the half and
    the full step from one sin/cos evaluation.  With
    ``rotate=rotate_twice_arrays`` the body steps B observers at once: any
    gain, state or row value may be a (B,) array, and the result holds (B,)
    arrays.
    """
    vx, vy, vz, tx, ty, tz = state
    h = 0.5 * dt
    s = dt / 6.0
    for wx, wy, wz, mx, my, mz, fx, fy, fz in rows:
        # constant part of the velocity dynamics over the step; each stage
        # below is -pivot_rate x vel - a*vel + g*tilt + const
        cx = a * mx - fx
        cy = a * my - fy
        cz = a * mz - fz
        k1x = cx - (wy * vz - wz * vy) - a * vx + g * tx
        k1y = cy - (wz * vx - wx * vz) - a * vy + g * ty
        k1z = cz - (wx * vy - wy * vx) - a * vz + g * tz
        px, py, pz = vx + h * k1x, vy + h * k1y, vz + h * k1z  # half-step prediction
        ix, iy, iz = mx - px, my - py, mz - pz
        ex = wx - b * (ty * iz - tz * iy)
        ey = wy - b * (tz * ix - tx * iz)
        ez = wz - b * (tx * iy - ty * ix)

        # the tilt at the half and the full step: rotation vector -h * e
        hx, hy, hz, tx, ty, tz = rotate(-h * ex, -h * ey, -h * ez, tx, ty, tz)

        gx, gy, gz = g * hx, g * hy, g * hz
        k2x = cx - (wy * pz - wz * py) - a * px + gx
        k2y = cy - (wz * px - wx * pz) - a * py + gy
        k2z = cz - (wx * py - wy * px) - a * pz + gz
        px, py, pz = vx + h * k2x, vy + h * k2y, vz + h * k2z
        k3x = cx - (wy * pz - wz * py) - a * px + gx
        k3y = cy - (wz * px - wx * pz) - a * py + gy
        k3z = cz - (wx * py - wy * px) - a * pz + gz
        px, py, pz = vx + dt * k3x, vy + dt * k3y, vz + dt * k3z
        k4x = cx - (wy * pz - wz * py) - a * px + g * tx
        k4y = cy - (wz * px - wx * pz) - a * py + g * ty
        k4z = cz - (wx * py - wy * px) - a * pz + g * tz
        vx = vx + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        vy = vy + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        vz = vz + s * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return vx, vy, vz, tx, ty, tz


def run_observer(gains, dt, rows, state0, marks):
    """The one observer loop: a generator of the state at the step indices
    ``marks`` (ascending; the stops), one :func:`step_floats` call over the
    ``rows`` of inputs in between each.

    Each row holds the 9 inputs of one step: pivot rate, velocity
    measurement and robot-frame specific force (``mount_rot @ accel``).
    ``state0`` is ``(vel_est, tilt_est)`` at step ``marks[0]``: a (6,) start
    steps on Python floats, a (6, B) one steps B observers at once on (B,)
    component arrays.  Yields a fresh array at each stop, the caller's own.

    Raises ``RuntimeError`` naming the first stop whose state is not finite,
    its time and ``alpha*dt``: a state that overflows ends in a math-domain
    error inside the rotation on floats, or in inf and NaN on arrays.  The
    numpy error state is changed only while stepping, never across a yield.
    """
    a, b, g = gains.alpha, gains.beta, gains.g0
    state0 = np.asarray(state0, dtype=float)
    if state0.ndim == 1:  # no numpy in the step or the check: a few µs less a mark
        s, step, quiet, finite = tuple(state0.tolist()), step_floats, nullcontext, math.isfinite
    else:
        s, step = tuple(state0), partial(step_floats, rotate=rotate_twice_arrays)
        quiet, finite = partial(np.errstate, all="ignore"), lambda x: np.isfinite(x).all()
    rows = iter(rows)
    done = marks[0]
    for mark in marks:
        try:
            with quiet():
                s = step(a, b, g, dt, islice(rows, mark - done), s)
        except (ValueError, OverflowError):  # a math-domain error on floats
            s = (math.nan,)
        if not all(map(finite, s)):
            raise RuntimeError(f"estimator state diverged by step {mark} (t = {mark * dt:.6g} s) "
                               f"at alpha*dt = {a * dt:.6g}")
        done = mark
        yield np.array(s)

"""Small SO(3) toolbox, and the one home of the Rodrigues formula: skew
matrices, the rotation exponential, a vector's rotation given component by
component (``rotate_twice``), and the rotation between two directions.

Rotations are 3x3 float64 matrices, rotation vectors length-3 arrays (axis *
angle, radians).  ``skew``, ``rotation_exp`` and ``rotation_exp_increment``
broadcast over leading axes, so one vector gives one matrix and an (N, 3)
stack gives N of them.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

# Below this rotation angle the sin/cos coefficients of the Rodrigues formula
# switch to their leading series terms (the truncation error ~theta^2/120 is
# then below float64 resolution).
SMALL_ANGLE = 1e-8

_EYE3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix S(v), defined by S(v) @ w == cross(v, w).

    Broadcasts over leading axes: (..., 3) -> (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def rodrigues_coefficients(t2: float):
    """Rodrigues coefficients ``sin(t)/t``, ``(1 - cos(t))/t^2`` of the float
    ``t2 = t^2``: ``exp(S(w)) = I + a S(w) + b S(w)^2`` for ``|w|^2 = t2``."""
    if t2 < SMALL_ANGLE * SMALL_ANGLE:
        return 1.0 - t2 / 6.0, 0.5 - t2 / 24.0  # series
    t = math.sqrt(t2)
    return math.sin(t) / t, (1.0 - math.cos(t)) / t2


def rodrigues_coefficients_arrays(t2: np.ndarray):
    """:func:`rodrigues_coefficients` on arrays: the closed form everywhere,
    then the series where the angle is small, if it is anywhere."""
    small = t2 < SMALL_ANGLE * SMALL_ANGLE
    safe = np.where(small, 1.0, t2)
    t = np.sqrt(safe)
    a, b = np.sin(t) / t, (1.0 - np.cos(t)) / safe
    if small.any():
        a, b = np.where(small, 1.0 - t2 / 6.0, a), np.where(small, 0.5 - t2 / 24.0, b)
    return a, b


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for the rotation vector ``w`` (Rodrigues formula).

    Broadcasts over leading axes: (..., 3) -> (..., 3, 3).  Exact identity
    for ``w = 0``; orthonormal to machine precision for any input magnitude.
    """
    return _EYE3 + rotation_exp_increment(w)


def rotation_exp_increment(w: np.ndarray) -> np.ndarray:
    """``rotation_exp(w) - I``, without the roundoff of subtracting I.

    For a small rotation the diagonal of ``rotation_exp`` is 1 plus a small
    term, rounded to the precision of 1; the increment skips that rounding.
    """
    w = np.asarray(w, dtype=float)
    a, b = rodrigues_coefficients_arrays(np.sum(w * w, axis=-1))
    W = skew(w)
    return a[..., None, None] * W + b[..., None, None] * (W @ W)


def rotate_twice(wx, wy, wz, vx, vy, vz, coefficients=rodrigues_coefficients):
    """``R v`` and ``R R v`` for R the rotation by the rotation vector w, as
    ``(hx, hy, hz, ux, uy, uz)``, from one evaluation of the coefficients."""
    t2 = wx * wx + wy * wy + wz * wz
    a, b = coefficients(t2)
    # R v = v + a (w x v) + b (w x (w x v)), and w x (w x v) = w (w . v) - v (w . w)
    d = wx * vx + wy * vy + wz * vz
    hx = vx + a * (wy * vz - wz * vy) + b * (d * wx - t2 * vx)
    hy = vy + a * (wz * vx - wx * vz) + b * (d * wy - t2 * vy)
    hz = vz + a * (wx * vy - wy * vx) + b * (d * wz - t2 * vz)
    d = wx * hx + wy * hy + wz * hz
    return (
        hx, hy, hz,
        hx + a * (wy * hz - wz * hy) + b * (d * wx - t2 * hx),
        hy + a * (wz * hx - wx * hz) + b * (d * wy - t2 * hy),
        hz + a * (wx * hy - wy * hx) + b * (d * wz - t2 * hz),
    )


# the same on (B,) component arrays
rotate_twice_arrays = partial(rotate_twice, coefficients=rodrigues_coefficients_arrays)


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation R with ``R @ a == b`` for unit vectors ``a``, ``b``.

    Turns about the axis perpendicular to both; for antiparallel inputs (axis
    undefined) an arbitrary perpendicular axis is used.
    """
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    c = float(np.dot(a, b))
    if s < 1e-12:
        if c > 0.0:
            return _EYE3.copy()
        # pick any direction not parallel to a
        ref = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        perp = np.cross(a, ref)
        perp /= np.linalg.norm(perp)
        return rotation_exp(np.pi * perp)
    return rotation_exp(axis / s * np.arctan2(s, c))

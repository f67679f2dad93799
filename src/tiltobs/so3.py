"""Small SO(3) toolbox: skew matrices, the rotation exponential, and the
rotation between two directions.

Everything works on plain float64 numpy arrays; rotations are 3x3 matrices,
rotation vectors are length-3 arrays (axis * angle, radians).  ``skew``,
``rotation_exp`` and ``rotation_exp_increment`` broadcast over leading axes,
so one vector gives one matrix and an (N, 3) stack gives N of them.
"""

from __future__ import annotations

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


def _rodrigues(w: np.ndarray):
    """``(a, b, S(w))`` with ``exp(S(w)) = I + a S(w) + b S(w)^2``; a and b
    carry two trailing unit axes so they broadcast over the matrices."""
    w = np.asarray(w, dtype=float)
    theta2 = np.sum(w * w, axis=-1)
    small = theta2 < SMALL_ANGLE * SMALL_ANGLE
    theta = np.sqrt(np.where(small, 1.0, theta2))
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / theta)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    return a[..., None, None], b[..., None, None], skew(w)


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for the rotation vector ``w`` (Rodrigues formula).

    Broadcasts over leading axes: (..., 3) -> (..., 3, 3).  Exact identity
    for ``w = 0``; orthonormal to machine precision for any input magnitude.
    """
    a, b, W = _rodrigues(w)
    return _EYE3 + a * W + b * (W @ W)


def rotation_exp_increment(w: np.ndarray) -> np.ndarray:
    """``rotation_exp(w) - I``, without the roundoff of subtracting I.

    For a small rotation the diagonal of ``rotation_exp`` is 1 plus a small
    term, rounded to the precision of 1; the increment skips that rounding.
    """
    a, b, W = _rodrigues(w)
    return a * W + b * (W @ W)


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

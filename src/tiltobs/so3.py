"""Small SO(3) toolbox: skew matrices, the rotation exponential, and helpers
for integrating and repairing rotation matrices.

Everything works on plain float64 numpy arrays; rotations are 3x3 matrices,
rotation vectors are length-3 arrays (axis * angle, radians).
"""

from __future__ import annotations

import numpy as np

# Below this rotation angle the sin/cos coefficients of the Rodrigues formula
# switch to their leading series terms (the truncation error ~theta^2/120 is
# then below float64 resolution).
SMALL_ANGLE = 1e-8

_EYE3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix S(v), defined by S(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array(
        [
            [0.0, -z, y],
            [z, 0.0, -x],
            [-y, x, 0.0],
        ]
    )


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for the rotation vector ``w`` (Rodrigues formula).

    Exact identity for ``w = 0``; orthonormal to machine precision for any
    input magnitude.
    """
    theta2 = float(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    if theta2 == 0.0:
        return _EYE3.copy()
    if theta2 < SMALL_ANGLE * SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        theta = np.sqrt(theta2)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    W = skew(w)
    return _EYE3 + a * W + b * (W @ W)


def skew_batch(v: np.ndarray) -> np.ndarray:
    """Stacked :func:`skew`: (..., 3) -> (..., 3, 3)."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def rotation_exp_batch(w: np.ndarray) -> np.ndarray:
    """Stacked :func:`rotation_exp`: (..., 3) -> (..., 3, 3)."""
    theta2 = np.sum(w * w, axis=-1)
    small = theta2 < SMALL_ANGLE * SMALL_ANGLE
    theta = np.sqrt(np.where(small, 1.0, theta2))
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / theta)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    W = skew_batch(w)
    return _EYE3 + a[..., None, None] * W + b[..., None, None] * (W @ W)


def integrate_rotation(R: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """One step of ``Rdot = S(omega) @ R`` with the world-frame rate ``omega``
    held constant over ``dt``."""
    return rotation_exp(omega * dt) @ R


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


def reorthonormalize(M: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix to ``M`` (orthogonal polar factor).

    ``M`` is expected to be a mildly drifted rotation; raises ``ValueError``
    when the projection is not proper (det <= 0), which signals corrupted
    state rather than roundoff drift.
    """
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) <= 0.0:
        raise ValueError("matrix is not a drifted rotation (improper polar factor)")
    return R


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    """Orthonormality and det(+1) check, mainly for tests and validation."""
    return (
        R.shape == (3, 3)
        and np.abs(R.T @ R - _EYE3).max() <= tol
        and abs(np.linalg.det(R) - 1.0) <= tol
    )

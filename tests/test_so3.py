import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltobs.so3 import (
    integrate_rotation,
    is_rotation,
    reorthonormalize,
    rotation_between,
    rotation_exp,
    rotation_exp_batch,
    skew,
    skew_batch,
)


def series_exp(W: np.ndarray, terms: int = 26) -> np.ndarray:
    """Independent oracle: truncated matrix-exponential power series."""
    out = np.eye(3)
    acc = np.eye(3)
    for k in range(1, terms):
        acc = acc @ W / k
        out = out + acc
    return out


def test_skew_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v, w = rng.standard_normal((2, 3))
        assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-15)
        assert_allclose(skew(v).T, -skew(v), atol=0)


def test_skew_squared_identity():
    # S(v)^2 = v v^T - |v|^2 I
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal(3)
        S = skew(v)
        assert_allclose(S @ S, np.outer(v, v) - v @ v * np.eye(3), atol=1e-12)


def test_skew_batch_matches_scalar():
    rng = np.random.default_rng(3)
    vs = rng.standard_normal((17, 3))
    stacked = skew_batch(vs)
    for i, v in enumerate(vs):
        assert_allclose(stacked[i], skew(v), atol=0)


def test_exp_of_zero_is_exact_identity():
    R = rotation_exp(np.zeros(3))
    assert (R == np.eye(3)).all()


def test_exp_quarter_turn_about_z():
    R = rotation_exp(np.array([0.0, 0.0, np.pi / 2]))
    assert_allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
    assert_allclose(R @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-12)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = rng.standard_normal(3)
        w *= rng.uniform(0.0, np.pi) / np.linalg.norm(w)
        assert_allclose(rotation_exp(w), series_exp(skew(w)), atol=1e-12)


def test_exp_orthonormal_for_large_angles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.standard_normal(3) * rng.uniform(0.0, 4.0 * np.pi)
        assert is_rotation(rotation_exp(w), tol=1e-12)


def test_exp_small_angle_branch_is_continuous():
    # values straddling the series/trig switch agree with the series oracle
    for mag in (1e-10, 1e-9, 9e-9, 1.1e-8, 1e-7):
        w = np.array([0.6, -0.8, 0.0]) * mag
        assert_allclose(rotation_exp(w), series_exp(skew(w)), atol=1e-15)


def test_rotation_exp_batch_matches_scalar():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((40, 3)) * rng.uniform(0.0, 2.0 * np.pi, (40, 1))
    w[3] = 0.0
    stacked = rotation_exp_batch(w)
    for i, wi in enumerate(w):
        assert_allclose(stacked[i], rotation_exp(wi), atol=1e-14)


def test_integrate_rotation_constant_rate():
    # constant world rate: R(t) = exp(S(w) t) R0, reachable in one big step
    rng = np.random.default_rng(8)
    w = rng.standard_normal(3)
    R0 = rotation_exp(rng.standard_normal(3))
    R = R0.copy()
    for _ in range(100):
        R = integrate_rotation(R, w, 0.01)
    assert_allclose(R, rotation_exp(w) @ R0, atol=1e-12)


def test_long_integration_stays_orthonormal():
    rng = np.random.default_rng(9)
    increments = rotation_exp_batch(rng.standard_normal((200_000, 3)) * 1e-3)
    R = np.eye(3)
    for H in increments:
        R = H @ R
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9


def test_reorthonormalize_fixes_drift():
    rng = np.random.default_rng(10)
    R = rotation_exp(rng.standard_normal(3))
    drifted = R + 1e-4 * rng.standard_normal((3, 3))
    fixed = reorthonormalize(drifted)
    assert is_rotation(fixed, tol=1e-12)
    assert np.abs(fixed - R).max() < 5e-4
    # a clean rotation passes through unchanged
    assert_allclose(reorthonormalize(R), R, atol=1e-12)


def test_reorthonormalize_rejects_reflections():
    with pytest.raises(ValueError):
        reorthonormalize(np.diag([1.0, 1.0, -1.0]))


def test_rotation_between():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b = rng.standard_normal((2, 3))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        R = rotation_between(a, b)
        assert is_rotation(R, tol=1e-12)
        assert_allclose(R @ a, b, atol=1e-12)
    # degenerate pairs
    e = np.array([0.0, 0.0, 1.0])
    assert_allclose(rotation_between(e, e), np.eye(3), atol=0)
    R = rotation_between(e, -e)
    assert is_rotation(R, tol=1e-12)
    assert_allclose(R @ e, -e, atol=1e-12)


def test_is_rotation_rejects_non_rotations():
    assert is_rotation(np.eye(3))
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(np.eye(3) + 1e-6)

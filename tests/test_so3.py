import numpy as np
from numpy.testing import assert_allclose

from tiltobs.so3 import rotation_between, rotation_exp, skew


def series_exp(W: np.ndarray, terms: int = 26) -> np.ndarray:
    """Independent oracle: truncated matrix-exponential power series."""
    out = np.eye(3)
    acc = np.eye(3)
    for k in range(1, terms):
        acc = acc @ W / k
        out = out + acc
    return out


def assert_rotation(R: np.ndarray, tol: float) -> None:
    """Orthonormal with determinant +1."""
    assert R.shape == (3, 3)
    assert np.abs(R.T @ R - np.eye(3)).max() <= tol
    assert abs(np.linalg.det(R) - 1.0) <= tol


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


def test_skew_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    vs, ws = rng.standard_normal((2, 17, 3))
    stacked = skew(vs)
    assert stacked.shape == (17, 3, 3)
    assert_allclose(np.einsum("nij,nj->ni", stacked, ws), np.cross(vs, ws), atol=1e-15)
    for i, v in enumerate(vs):
        assert (stacked[i] == skew(v)).all()
    assert skew(vs.reshape(1, 17, 3)).shape == (1, 17, 3, 3)


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
        assert_rotation(rotation_exp(w), tol=1e-12)


def test_exp_small_angle_branch_is_continuous():
    # values straddling the series/trig switch agree with the series oracle
    for mag in (1e-10, 1e-9, 9e-9, 1.1e-8, 1e-7):
        w = np.array([0.6, -0.8, 0.0]) * mag
        assert_allclose(rotation_exp(w), series_exp(skew(w)), atol=1e-15)


def test_exp_broadcasts_over_leading_axes():
    # a stack, zero row included, against the series oracle row by row; one
    # row of the stack is bit-identical to the same vector on its own
    rng = np.random.default_rng(7)
    w = rng.standard_normal((40, 3))
    w *= rng.uniform(0.0, np.pi, (40, 1)) / np.linalg.norm(w, axis=-1, keepdims=True)
    w[3] = 0.0
    w[5] *= 1e-9  # series branch
    stacked = rotation_exp(w)
    assert stacked.shape == (40, 3, 3)
    for i, wi in enumerate(w):
        assert_allclose(stacked[i], series_exp(skew(wi)), atol=1e-12)
        assert (stacked[i] == rotation_exp(wi)).all()
    assert (stacked[3] == np.eye(3)).all()
    assert rotation_exp(w.reshape(8, 5, 3)).shape == (8, 5, 3, 3)


def test_exp_composes_along_a_constant_rate():
    # constant world rate: R(t) = exp(S(w) t) R0, reachable in one big step
    rng = np.random.default_rng(8)
    w = rng.standard_normal(3)
    R0 = rotation_exp(rng.standard_normal(3))
    R = R0.copy()
    step = rotation_exp(w * 0.01)
    for _ in range(100):
        R = step @ R
    assert_allclose(R, rotation_exp(w) @ R0, atol=1e-12)


def test_long_integration_stays_orthonormal():
    rng = np.random.default_rng(9)
    increments = rotation_exp(rng.standard_normal((200_000, 3)) * 1e-3)
    R = np.eye(3)
    for H in increments:
        R = H @ R
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9


def test_rotation_between():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b = rng.standard_normal((2, 3))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        R = rotation_between(a, b)
        assert_rotation(R, tol=1e-12)
        assert_allclose(R @ a, b, atol=1e-12)
    # degenerate pairs
    e = np.array([0.0, 0.0, 1.0])
    assert_allclose(rotation_between(e, e), np.eye(3), atol=0)
    R = rotation_between(e, -e)
    assert_rotation(R, tol=1e-12)
    assert_allclose(R @ e, -e, atol=1e-12)

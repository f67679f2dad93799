from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltobs.harness import load_config
from tiltobs.plant import (
    MountNoise,
    MountSettings,
    PivotSettings,
    accel_stream,
    gyro_stream,
    mount_rate,
    mount_translation,
    noise_basis,
    pivot_accel,
    pivot_rate,
    pivot_rate_from_gyro,
    rotation_path,
    velocity_measurement,
)
from tiltobs.so3 import rotation_exp

EZ = np.array([0.0, 0.0, 1.0])
G0 = 9.81
NOISE_STD = 0.05
NOISE_TAU = 0.2
I3 = np.eye(3)
ZERO = np.zeros(3)
NOISY_CFG = Path(__file__).resolve().parents[1] / "configs" / "noisy.cfg"


# the default settings are the moving reference scene: a wobbling pivot
# and a swiveling mount
PIVOT = PivotSettings()
MOUNT = MountSettings()


def midpoint_readings(pivot: PivotSettings, R0: np.ndarray, noise: MountNoise, n: int, dt: float):
    """(gyro, accel) at the first n step midpoints, sampled as the harness
    samples them."""
    t_mid = (np.arange(n) + 0.5) * dt
    w = pivot_rate(pivot, t_mid)
    wm = mount_rate(MOUNT, t_mid)
    Rp_mid, _ = rotation_path(R0, w, dt)
    Rm_mid, _ = rotation_path(I3, wm, dt)
    pos, vel, acc = mount_translation(MOUNT, noise, t_mid, noise_basis(t_mid))
    return (
        gyro_stream(Rp_mid, w, Rm_mid, wm),
        accel_stream(Rp_mid, w, pivot_accel(pivot, t_mid), pos, vel, acc, Rm_mid, G0),
    )


# --- sensor synthesis -------------------------------------------------------


def test_static_scene_measurements():
    pos = np.array([0.0, 0.0, 1.3])
    assert_allclose(gyro_stream(I3, ZERO, I3, ZERO), np.zeros(3), atol=0)
    assert_allclose(accel_stream(I3, ZERO, ZERO, pos, ZERO, ZERO, I3, G0), [0.0, 0.0, G0], atol=0)


def test_steady_spin_centripetal():
    # constant spin about z with the IMU offset sideways: the accelerometer
    # sees the centripetal pull -w^2 r plus gravity
    w = 2.0
    r = 0.3
    rate = np.array([0.0, 0.0, w])
    pos = np.array([r, 0.0, 1.0])
    assert_allclose(gyro_stream(I3, rate, I3, ZERO), [0.0, 0.0, w], atol=1e-15)
    assert_allclose(
        accel_stream(I3, rate, ZERO, pos, ZERO, ZERO, I3, G0), [-w * w * r, 0.0, G0], atol=1e-12
    )


def test_gyro_roundtrip_recovers_pivot_rate():
    # on a stack of 20 random samples at once: the formulas broadcast
    rng = np.random.default_rng(31)
    Rp = rotation_exp(rng.standard_normal((20, 3)))
    Rm = rotation_exp(rng.standard_normal((20, 3)))
    w, wm = rng.standard_normal((2, 20, 3))
    rate = pivot_rate_from_gyro(gyro_stream(Rp, w, Rm, wm), Rm, wm)
    assert rate.shape == (20, 3)
    assert_allclose(rate, np.einsum("nji,nj->ni", Rp, w), atol=1e-13)
    # one row of the stack is one sample on its own
    assert_allclose(
        pivot_rate_from_gyro(gyro_stream(Rp[4], w[4], Rm[4], wm[4]), Rm[4], wm[4]), rate[4], atol=0
    )


def test_velocity_measurement_example():
    pos = np.array([0.0, 0.0, 1.3])
    y1 = np.array([1.0, 0.0, 0.0])
    # cross((0,0,1.3), e_x) = 1.3 e_y
    assert_allclose(velocity_measurement(pos, ZERO, y1), [0.0, 1.3, 0.0], atol=1e-15)
    vel = np.array([0.1, 0.0, 0.0])
    assert_allclose(velocity_measurement(pos, vel, y1), [-0.1, 1.3, 0.0], atol=1e-15)


def test_accel_matches_finite_difference_of_world_position():
    # oracle: second central difference of the IMU world position along a
    # finely integrated trajectory; the model must match at O(h^2)
    noise = MountNoise(NOISE_STD, NOISE_TAU, seed=7)
    fine = 2e-6
    n = int(round(0.21 / fine))
    tg = np.arange(n) * fine
    _, Rp = rotation_path(I3, pivot_rate(PIVOT, tg + 0.5 * fine), fine)
    _, Rm = rotation_path(I3, mount_rate(MOUNT, tg + 0.5 * fine), fine)

    def world_pos(i):
        pos, _, _ = mount_translation(MOUNT, noise, i * fine, noise_basis(i * fine))
        return Rp[i] @ pos

    i0 = int(round(0.2 / fine))
    t0 = i0 * fine
    pos, vel, acc = mount_translation(MOUNT, noise, t0, noise_basis(t0))
    ya = accel_stream(
        Rp[i0], pivot_rate(PIVOT, t0), pivot_accel(PIVOT, t0), pos, vel, acc, Rm[i0], G0
    )

    errs = []
    for h_steps in (500, 250):  # h = 1e-3 and 5e-4
        h = h_steps * fine
        pdd = (world_pos(i0 + h_steps) - 2.0 * world_pos(i0) + world_pos(i0 - h_steps)) / h**2
        ya_fd = (Rp[i0] @ Rm[i0]).T @ (G0 * EZ + pdd)
        errs.append(np.abs(ya - ya_fd).max())
    assert errs[0] < 5e-5
    # halving h divides the mismatch by ~4: second-order agreement
    assert 3.0 < errs[0] / errs[1] < 5.0


# --- mount translation ------------------------------------------------------


def test_mount_setpoint_approach_is_exact_exponential():
    mount = MountSettings(kp=1.0, p_ref=np.array([0.0, 0.0, 1.3]), p0=np.array([0.0, 0.0, 1.0]))
    noise = MountNoise(0.0, NOISE_TAU, seed=0)
    t = np.array([0.0, 0.5, 1.0, 3.0])
    pos, vel, acc = mount_translation(mount, noise, t, noise_basis(t))
    assert_allclose(pos[:, 2], 1.3 - 0.3 * np.exp(-t), rtol=1e-14)
    assert_allclose(pos[:, :2], 0.0, atol=0)
    assert_allclose(vel[:, 2], 0.3 * np.exp(-t), rtol=1e-14)
    assert_allclose(acc[:, 2], -0.3 * np.exp(-t), rtol=1e-14)


def test_mount_translation_derivatives_consistent():
    noise = MountNoise(NOISE_STD, NOISE_TAU, seed=8)
    h = 1e-5
    for t0 in (0.1, 0.9, 2.3):
        pp, vp, _ = mount_translation(MOUNT, noise, t0 + h, noise_basis(t0 + h))
        pm, vm, _ = mount_translation(MOUNT, noise, t0 - h, noise_basis(t0 - h))
        p0, v0, a0 = mount_translation(MOUNT, noise, t0, noise_basis(t0))
        assert_allclose((pp - pm) / (2 * h), v0, atol=1e-6)
        assert_allclose((vp - vm) / (2 * h), a0, atol=1e-6)


def test_mount_noise_statistics_and_smoothness():
    noise = MountNoise(0.05, 0.2, seed=9)
    kp = 2.0

    def value(t):
        return noise.series(t, kp, noise_basis(t))[0]

    def deriv(t):
        return noise.series(t, kp, noise_basis(t))[1]

    def lag(t):
        return noise.series(t, kp, noise_basis(t))[2]

    # over one full period of the harmonic series the empirical power equals
    # the requested variance exactly (cross terms integrate away)
    t = np.arange(512) / 512.0 * 16.0
    assert_allclose(np.mean(value(t) ** 2, axis=0), 0.05**2, rtol=1e-10)
    # derivative really is the derivative
    h = 1e-7
    fd = (value(0.37 + h) - value(0.37 - h)) / (2 * h)
    assert_allclose(fd, deriv(0.37), atol=1e-5)
    # the lag signal solves qdot + kp q = value, and its t = 0 sample is
    # returned on its own
    q_fd = (lag(0.37 + h) - lag(0.37 - h)) / (2 * h)
    assert_allclose(q_fd + kp * lag(0.37), value(0.37), atol=1e-5)
    assert_allclose(noise.series(0.37, kp, noise_basis(0.37))[3], lag(0.0), atol=1e-15)


def test_mount_noise_deterministic_and_zero():
    t = np.linspace(0, 5, 7)
    a = MountNoise(0.05, 0.2, seed=9).series(t, 2.0, noise_basis(t))[0]
    b = MountNoise(0.05, 0.2, seed=9).series(t, 2.0, noise_basis(t))[0]
    assert (a == b).all()
    c = MountNoise(0.05, 0.2, seed=10).series(t, 2.0, noise_basis(t))[0]
    assert np.abs(a - c).max() > 1e-3
    assert (MountNoise(0.0, 0.2, seed=9).series(t, 2.0, noise_basis(t))[0] == 0.0).all()


def direct_series(noise: MountNoise, t, kp: float):
    """Oracle: (value, deriv, lag) from sin/cos of every ``omega * t + phase``."""
    arg = np.asarray(t, dtype=float)[..., None, None] * noise.omega[:, None] + noise.phase.T
    a = noise.amp[:, None]
    w = noise.omega[:, None]
    sin, cos = np.sin(arg), np.cos(arg)
    lag = a / (kp * kp + w**2) * (kp * sin - w * cos)
    return (a * sin).sum(axis=-2), (a * w * cos).sum(axis=-2), lag.sum(axis=-2)


@pytest.mark.parametrize("shape", [(), (5001,), (1500, 3)])
def test_mount_noise_doubled_basis_matches_direct_evaluation(shape):
    # harmonics filled by angle doubling from the fundamental agree with a
    # direct sin/cos(omega t) on t in [0, 10] s
    noise = MountNoise(0.05, 0.2, seed=[0, 1])
    kp = 2.0
    t = np.linspace(0.0, 10.0, int(np.prod(shape))).reshape(shape) if shape else 7.3
    value, deriv, lag, lag0 = noise.series(t, kp, noise_basis(t))
    d_value, d_deriv, d_lag = direct_series(noise, t, kp)
    assert value.shape == deriv.shape == lag.shape == np.shape(t) + (3,)
    assert np.abs(value - d_value).max() <= 1e-14
    assert np.abs(deriv - d_deriv).max() <= 1e-13
    assert np.abs(lag - d_lag).max() <= 1e-14
    # at t = 0 the basis is exactly sin = 0, cos = 1
    at_zero = noise.series(0.0, kp, noise_basis(0.0))[2]
    assert_allclose(at_zero, direct_series(noise, 0.0, kp)[2], rtol=0, atol=1e-17)
    assert_allclose(lag0, at_zero, rtol=0, atol=1e-17)



def test_mount_noise_outputs_hold_across_a_kp_change():
    # the weights made for one kp serve its calls until kp changes
    t = np.linspace(0.0, 3.0, 301)
    basis = noise_basis(t)
    noise = MountNoise(0.05, 0.2, seed=[3, 1])
    for kp in (2.0, 2.0, 0.5, 2.0, 0.0, 0.0):
        got = noise.series(t, kp, basis)
        fresh = MountNoise(0.05, 0.2, seed=[3, 1]).series(t, kp, basis)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh], kp

# --- rotation paths ----------------------------------------------------------


def test_constant_rate_pivot_is_exact():
    # closed form for a constant world rate: R(t) = exp(S(w) t) R0
    pivot = PivotSettings(accel_amp=ZERO, rate0=np.array([0.0, 0.0, 0.7]))
    R0 = rotation_exp(np.array([0.3, -0.2, 0.5]))
    dt = 1e-2
    w = pivot_rate(pivot, (np.arange(100) + 0.5) * dt)
    assert_allclose(w, np.tile([0.0, 0.0, 0.7], (100, 1)), atol=0)
    R_mid, R = rotation_path(R0, w, dt)
    for k in (1, 37, 100):
        assert_allclose(R[k], rotation_exp(w[0] * (k * dt)) @ R0, atol=1e-13)
    assert_allclose(R_mid[49], rotation_exp(w[0] * (49.5 * dt)) @ R0, atol=1e-13)


def test_midstate_lies_on_step_path():
    # per step: the midpoint sample is half the step's rotation applied to
    # the step's start, and the full step is the whole rotation
    dt = 1e-3
    n = 400
    w = pivot_rate(PIVOT, (np.arange(n) + 0.5) * dt)
    R_mid, R = rotation_path(I3, w, dt)
    for k in range(n):
        assert_allclose(R_mid[k], rotation_exp(0.5 * dt * w[k]) @ R[k], atol=1e-15)
        assert_allclose(R[k + 1], rotation_exp(dt * w[k]) @ R[k], atol=1e-14)


def test_pivot_path_converges_under_refinement():
    final = {}
    for dt in (1e-3, 1e-5):
        n = int(round(0.5 / dt))
        _, R = rotation_path(I3, pivot_rate(PIVOT, (np.arange(n) + 0.5) * dt), dt)
        final[dt] = R[-1]
    assert np.abs(final[1e-3] - final[1e-5]).max() < 1e-6


def sequential_path(R0, w, dt):
    """Oracle: the attitude accumulated one single-vector step at a time."""
    R_mid, R = [], [R0]
    cur = R0
    for wk in w:
        half = rotation_exp(wk * (0.5 * dt))
        R_mid.append(half @ cur)
        cur = half @ R_mid[-1]
        R.append(cur)
    return np.reshape(R_mid, (len(w), 3, 3)), np.array(R)


def test_rotation_path_matches_sequential_steps():
    dt = 1e-3
    n = 200
    w = pivot_rate(PIVOT, (np.arange(n) + 0.5) * dt)
    R0 = rotation_exp(np.array([0.1, 0.2, -0.3]))
    R_mid, R = rotation_path(R0, w, dt)
    mid, cur = sequential_path(R0, w, dt)
    assert np.abs(R_mid - mid).max() < 1e-14
    assert np.abs(R - cur).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 10**4])
def test_block_scan_matches_sequential_steps(n):
    # block lengths are ceil(sqrt(n)): perfect squares, one either side (a
    # padded last block), and the reference run's length
    dt = 1e-3
    w = pivot_rate(PIVOT, (np.arange(n) + 0.5) * dt)
    R0 = rotation_exp(np.array([0.1, 0.2, -0.3]))
    R_mid, R = rotation_path(R0, w, dt)
    mid, cur = sequential_path(R0, w, dt)
    assert R_mid.shape == (n, 3, 3) and R.shape == (n + 1, 3, 3)
    assert (R[0] == R0).all()
    # over 10^4 steps both products random-walk in roundoff; the sequential
    # one itself drifts 2e-14 off orthonormality there
    tol = 1e-14 if n <= 300 else 3e-14
    assert np.abs(R_mid - mid).max() < tol
    assert np.abs(R - cur).max() < tol


def test_block_scan_roundoff_on_the_reference_run():
    # the reference run's pivot rates at 10^4 steps: no worse than the
    # sequential product (2.0e-14 drift, 1.5e-14 yaw equivariance)
    cfg = load_config(NOISY_CFG)
    dt = cfg.dt
    n = 10**4
    w = pivot_rate(cfg.pivot, (np.arange(n) + 0.5) * dt)
    R0 = rotation_exp(np.array([0.1, 0.2, -0.3]))
    _, R = rotation_path(R0, w, dt)
    assert np.abs(np.swapaxes(R, 1, 2) @ R - I3).max() <= 2e-14
    yaw = rotation_exp(np.array([0.0, 0.0, 1.1]))
    _, R_yaw = rotation_path(yaw @ R0, w @ yaw.T, dt)
    assert np.abs(R_yaw - yaw @ R).max() <= 2e-14


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=0.0, max_value=10.0),
)
def test_block_scan_matches_sequential_steps_for_random_rates(n, seed, scale):
    rng = np.random.default_rng(seed)
    w = scale * rng.standard_normal((n, 3))
    R0 = rotation_exp(rng.standard_normal(3))
    dt = 1e-3
    R_mid, R = rotation_path(R0, w, dt)
    mid, cur = sequential_path(R0, w, dt)
    assert np.abs(R_mid - mid).max() <= 1e-14
    assert np.abs(R - cur).max() <= 1e-14


def test_mount_step_and_midstate():
    # the harness evaluates the mount once on the interleaved grid of step
    # boundaries and midpoints; slicing it must give each grid on its own
    noise = MountNoise(NOISE_STD, NOISE_TAU, seed=11)
    dt = 1e-3
    n = 100
    t_all = np.arange(2 * n + 1) * (0.5 * dt)
    joint = mount_translation(MOUNT, noise, t_all, noise_basis(t_all))
    t_mid, t_grid = (np.arange(n) + 0.5) * dt, np.arange(n + 1) * dt
    mid = mount_translation(MOUNT, noise, t_mid, noise_basis(t_mid))
    bound = mount_translation(MOUNT, noise, t_grid, noise_basis(t_grid))
    for j, m, b in zip(joint, mid, bound):
        assert_allclose(j[1::2], m, atol=1e-15)
        assert_allclose(j[0::2], b, atol=1e-15)
    # the mount attitude stays orthonormal along its path
    _, Rm = rotation_path(I3, mount_rate(MOUNT, (np.arange(n) + 0.5) * dt), dt)
    assert np.abs(np.swapaxes(Rm, 1, 2) @ Rm - I3).max() < 1e-12


# --- fixed world rotation -----------------------------------------------------


def test_world_rotation_about_z_leaves_measurements_unchanged():
    # rotating the whole scene about gravity must not change what the IMU sees
    yaw = rotation_exp(np.array([0.0, 0.0, 1.1]))
    pivot_rot = PivotSettings(world_rotvec=np.array([0.0, 0.0, 1.1]))
    noise = MountNoise(NOISE_STD, NOISE_TAU, seed=12)
    dt = 1e-3
    gyro_a, accel_a = midpoint_readings(PIVOT, I3, noise, 200, dt)
    gyro_b, accel_b = midpoint_readings(pivot_rot, yaw, noise, 200, dt)
    assert_allclose(gyro_b, gyro_a, atol=1e-12)
    assert_allclose(accel_b, accel_a, atol=1e-12)
    # the rotated attitude is exactly the yaw times the base attitude
    _, Rp_a = rotation_path(I3, pivot_rate(PIVOT, (np.arange(200) + 0.5) * dt), dt)
    _, Rp_b = rotation_path(yaw, pivot_rate(pivot_rot, (np.arange(200) + 0.5) * dt), dt)
    assert np.abs(Rp_b - yaw @ Rp_a).max() < 1e-13


def test_world_rotation_off_vertical_changes_accel():
    # negative control: the same rotation about x is visible to the sensors
    pivot_rot = PivotSettings(world_rotvec=np.array([1.1, 0.0, 0.0]))
    noise = MountNoise(NOISE_STD, NOISE_TAU, seed=12)
    _, accel_a = midpoint_readings(PIVOT, I3, noise, 1, 1e-3)
    _, accel_b = midpoint_readings(pivot_rot, rotation_exp(pivot_rot.world_rotvec), noise, 1, 1e-3)
    assert np.abs(accel_b - accel_a).max() > 1.0

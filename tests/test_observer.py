import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltobs.observer import (
    ObserverGains,
    make_gains,
    observer_derivative,
    rotate_twice,
    rotate_twice_arrays,
    run_observer,
    step_floats,
)
from tiltobs.so3 import rotation_exp

EZ = np.array([0.0, 0.0, 1.0])
EYE = np.eye(3)


def test_gains_accept_valid():
    g = make_gains(19.8, 10.0)
    assert g.alpha == 19.8 and g.beta == 10.0 and g.g0 == 9.81
    # beta*g0/alpha^2 = 98.1/392.04
    assert abs(g.gain_ratio - 98.1 / 392.04) < 1e-15
    assert abs(g.gain_ratio - 0.2502296) < 5e-7


def test_gains_reject_invalid():
    with pytest.raises(ValueError):
        make_gains(0.0, 10.0)
    with pytest.raises(ValueError):
        make_gains(-1.0, 10.0)
    with pytest.raises(ValueError):
        make_gains(19.8, 0.0)
    with pytest.raises(ValueError):
        make_gains(19.8, -5.0)
    # condition is strict: beta*g0 == alpha^2 must be rejected
    with pytest.raises(ValueError):
        ObserverGains(alpha=1.0, beta=1.0, g0=1.0)
    # just inside the boundary is fine
    ObserverGains(alpha=1.0, beta=0.999, g0=1.0)


@pytest.mark.parametrize("value", [np.inf, np.nan, -9.81, 0.0])
@pytest.mark.parametrize("name", ["alpha", "beta", "g0"])
def test_gains_reject_non_finite_naming_the_field(name, value):
    # inf alpha used to pass: beta*g0 < inf holds
    gains = {"alpha": 19.8, "beta": 10.0, "g0": 9.81, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make_gains(**gains)


def test_derivative_static_example():
    # upright static world, tilt estimate pointing straight down:
    # velocity derivative is -2 g0 e_z, no steering torque on the tilt
    g = make_gains(19.8, 10.0)
    accel = g.g0 * EZ
    zero = np.zeros(3)
    dvel, omega_eff = observer_derivative(zero, -EZ, g, zero, zero, accel, EYE)
    assert_allclose(dvel, -2.0 * g.g0 * EZ, atol=1e-12)
    assert_allclose(omega_eff, np.zeros(3), atol=1e-12)


def test_derivative_innovation_terms():
    g = make_gains(19.8, 10.0)
    vel_meas = np.array([1.0, 0.0, 0.0])
    zero = np.zeros(3)
    dvel, omega_eff = observer_derivative(zero, EZ, g, zero, vel_meas, zero, EYE)
    assert_allclose(dvel, g.g0 * EZ + g.alpha * vel_meas, atol=1e-12)
    # -beta * cross(e_z, e_x) = -beta * e_y
    assert_allclose(omega_eff, [0.0, -g.beta, 0.0], atol=1e-12)


def test_step_fixed_point():
    # exact estimates in a static scene stay put
    g = make_gains(19.8, 10.0)
    Rc = rotation_exp(np.array([0.3, -0.2, 0.5]))
    tilt = Rc.T @ EZ
    nxt = step_floats(g.alpha, g.beta, g.g0, 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                      *(g.g0 * tilt).tolist(), 0.0, 0.0, 0.0, *tilt.tolist())
    assert_allclose(nxt[:3], np.zeros(3), atol=1e-15)
    assert_allclose(nxt[3:], tilt, atol=1e-15)


def test_step_matches_derivative_to_first_order():
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        vel_est, tilt_est = rng.standard_normal(3), rng.standard_normal(3)
        tilt_est /= np.linalg.norm(tilt_est)
        rate = rng.standard_normal(3)
        vel_meas = rng.standard_normal(3)
        accel = rng.standard_normal(3) * 5.0
        mount_rot = rotation_exp(rng.standard_normal(3))
        dvel, omega_eff = observer_derivative(
            vel_est, tilt_est, g, rate, vel_meas, accel, mount_rot
        )
        dt = 1e-6
        nxt = step_floats(g.alpha, g.beta, g.g0, dt, *rate.tolist(), *vel_meas.tolist(),
                          *(mount_rot @ accel).tolist(), *vel_est.tolist(), *tilt_est.tolist())
        assert_allclose(nxt[:3], vel_est + dt * dvel, atol=1e-8)
        dtilt = -np.cross(omega_eff, tilt_est)
        assert_allclose(nxt[3:], tilt_est + dt * dtilt, atol=1e-8)


def test_tilt_norm_preserved_over_many_steps():
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(12)
    n = 20_000
    rate = np.tile([0.3, -0.4, 0.2], (n, 1))
    vel_meas = np.tile([0.1, 0.2, -0.1], (n, 1))
    accel = np.tile([0.0, 0.5, 9.81], (n, 1))
    states = run_observer(g, rate, vel_meas, accel, 1e-3, rng.standard_normal(3), [0.6, 0.0, 0.8])
    assert abs(np.linalg.norm(states[-1, 3:]) - 1.0) < 1e-12
    assert np.isfinite(states).all()


def test_static_world_convergence():
    # constant measurements from a tilted static robot: estimates converge to
    # the true tilt and the true (zero) velocity within a few seconds
    g = make_gains(19.8, 10.0)
    Rc = rotation_exp(np.array([0.4, -0.3, 0.2]))
    tilt_true = Rc.T @ EZ
    n = 4000
    accel = np.tile(g.g0 * tilt_true, (n, 1))
    tilt0 = np.array([0.5, -0.5, 0.5]) / np.linalg.norm([0.5, -0.5, 0.5])
    zeros = np.zeros((n, 3))
    states = run_observer(g, zeros, zeros, accel, 1e-3, np.zeros(3), tilt0)
    assert np.linalg.norm(states[-1, 3:] - tilt_true) < 1e-6
    assert np.linalg.norm(states[-1, :3]) < 1e-6


def test_run_observer_is_the_step_repeated():
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(13)
    n = 200
    rate = 0.3 * rng.standard_normal((n, 3))
    vel_meas = 0.1 * rng.standard_normal((n, 3))
    accel = np.array([0.0, 0.0, 9.81]) + rng.standard_normal((n, 3))
    s = (*rng.standard_normal(3).tolist(), 0.6, 0.0, 0.8)
    states = run_observer(g, rate, vel_meas, accel, 1e-3, s[:3], s[3:])
    assert states.shape == (n + 1, 6)
    assert states[0].tolist() == list(s)
    for k in range(n):
        s = step_floats(g.alpha, g.beta, g.g0, 1e-3, *rate[k].tolist(),
                        *vel_meas[k].tolist(), *accel[k].tolist(), *s)
        assert states[k + 1].tolist() == list(s)


def test_run_observer_overflow_leaves_nan_rows():
    # alpha*dt = 5 is far outside RK4's stability region: the state overflows
    g = make_gains(5000.0, 1.0)
    n = 2000
    rate = np.tile([0.3, -0.4, 0.2], (n, 1))
    accel = np.tile([0.0, 0.5, 9.81], (n, 1))
    states = run_observer(g, rate, np.zeros((n, 3)), accel, 1e-3, np.ones(3), EZ)
    finite = np.isfinite(states).all(axis=1)
    first_bad = int(np.argmin(finite))
    assert 0 < first_bad < n
    assert not finite[first_bad:].any()


def test_rotate_twice_matches_matrix_action():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((40, 3)) * rng.uniform(0.0, np.pi, (40, 1))
    w[7] = 0.0  # exercise the zero-rotation row
    w[8] *= 1e-13 / np.linalg.norm(w[8])  # and the series branch
    v = rng.standard_normal((40, 3))
    R = rotation_exp(w)
    once = np.einsum("bij,bj->bi", R, v)
    twice = np.einsum("bij,bj->bi", R, once)
    out = np.array(rotate_twice_arrays(*w.T, *v.T)).T
    assert_allclose(out[:, :3], once, atol=1e-13)
    assert_allclose(out[:, 3:], twice, atol=1e-13)
    # the float twin is the same arithmetic: every row agrees to the bit
    for i in range(len(w)):
        assert rotate_twice(*w[i].tolist(), *v[i].tolist()) == tuple(out[i].tolist())


@pytest.mark.parametrize("batch", [None, 4])
def test_step_evaluates_the_rotation_once(batch):
    # sin/cos cost a numpy dispatch each on arrays: one rotate call per step
    calls = []

    def counting(*args):
        calls.append(1)
        return (rotate_twice if batch is None else rotate_twice_arrays)(*args)

    g = make_gains(19.8, 10.0)
    s = (0.1, -0.2, 0.3, 0.6, 0.0, 0.8)
    if batch is not None:
        s = tuple(np.full(batch, x) for x in s)
    for k in range(5):
        s = step_floats(g.alpha, g.beta, g.g0, 1e-3, 0.3, -0.4, 0.2, 0.1, 0.2, -0.1,
                        0.0, 0.5, 9.81, *s, rotate=counting)
        assert len(calls) == k + 1
    assert all(np.shape(x) == (() if batch is None else (batch,)) for x in s)


def test_step_on_arrays_matches_float_path_on_a_moving_scene():
    # B observers, each with its own gains, driven by their own moving scene:
    # every row of the array step is the float step run on that row alone
    rng = np.random.default_rng(14)
    n_obs, n, dt, g0 = 5, 300, 1e-3, 9.81
    a = rng.uniform(5.0, 30.0, n_obs)
    b = rng.uniform(0.1, 0.9, n_obs) * a * a / g0
    rate = 0.5 * rng.standard_normal((n, 3, n_obs))
    vel_meas = 0.2 * rng.standard_normal((n, 3, n_obs))
    force = g0 * EZ[:, None] + rng.standard_normal((n, 3, n_obs))
    tilt0 = rng.standard_normal((3, n_obs))
    tilt0 /= np.linalg.norm(tilt0, axis=0)
    s = (*rng.standard_normal((3, n_obs)), *tilt0)
    rows = np.array(s).T.tolist()
    for k in range(n):
        s = step_floats(a, b, g0, dt, *rate[k], *vel_meas[k], *force[k], *s,
                        rotate=rotate_twice_arrays)
        rows = [
            step_floats(a[i], b[i], g0, dt, *rate[k, :, i].tolist(),
                        *vel_meas[k, :, i].tolist(), *force[k, :, i].tolist(), *rows[i])
            for i in range(n_obs)
        ]
        assert np.abs(np.array(s).T - np.array(rows)).max() <= 1e-14
    # the scene did move the estimates
    assert np.abs(np.array(s)[3:] - tilt0).min() > 1e-3

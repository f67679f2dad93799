import re
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tiltobs.observer import (
    ObserverGains,
    make_gains,
    observer_derivative,
    run_observer,
    step_floats,
)
from tiltobs.so3 import rotate_twice, rotate_twice_arrays, rotation_exp

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
    nxt = step_floats(g.alpha, g.beta, g.g0, 1e-3, [(0.0,) * 6 + (*(g.g0 * tilt).tolist(),)],
                      (0.0, 0.0, 0.0, *tilt.tolist()))
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
        row = (*rate.tolist(), *vel_meas.tolist(), *(mount_rot @ accel).tolist())
        nxt = step_floats(g.alpha, g.beta, g.g0, dt, [row],
                          (*vel_est.tolist(), *tilt_est.tolist()))
        assert_allclose(nxt[:3], vel_est + dt * dvel, atol=1e-8)
        dtilt = -np.cross(omega_eff, tilt_est)
        assert_allclose(nxt[3:], tilt_est + dt * dtilt, atol=1e-8)


def test_tilt_norm_preserved_over_many_steps():
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(12)
    n = 20_000
    rows = repeat((0.3, -0.4, 0.2, 0.1, 0.2, -0.1, 0.0, 0.5, 9.81), n)
    state0 = [*rng.standard_normal(3), 0.6, 0.0, 0.8]
    states = np.array(list(run_observer(g, 1e-3, rows, state0, [0, n // 2, n])))
    assert states.shape == (3, 6)
    assert abs(np.linalg.norm(states[-1, 3:]) - 1.0) < 1e-12


def test_static_world_convergence():
    # constant measurements from a tilted static robot: estimates converge to
    # the true tilt and the true (zero) velocity within a few seconds
    g = make_gains(19.8, 10.0)
    Rc = rotation_exp(np.array([0.4, -0.3, 0.2]))
    tilt_true = Rc.T @ EZ
    n = 4000
    rows = repeat((0.0,) * 6 + (*(g.g0 * tilt_true).tolist(),), n)
    tilt0 = np.array([0.5, -0.5, 0.5]) / np.linalg.norm([0.5, -0.5, 0.5])
    states = np.array(list(run_observer(g, 1e-3, rows, [0.0, 0.0, 0.0, *tilt0], [0, n])))
    assert np.linalg.norm(states[-1, 3:] - tilt_true) < 1e-6
    assert np.linalg.norm(states[-1, :3]) < 1e-6


def test_run_observer_is_the_step_repeated():
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(13)
    n = 200
    rate = 0.3 * rng.standard_normal((n, 3))
    vel_meas = 0.1 * rng.standard_normal((n, 3))
    accel = np.array([0.0, 0.0, 9.81]) + rng.standard_normal((n, 3))
    rows = np.hstack([rate, vel_meas, accel]).tolist()
    s = (*rng.standard_normal(3).tolist(), 0.6, 0.0, 0.8)
    marks = [0, 1, 2, 7, 50, 51, 199, 200]
    states = np.array(list(run_observer(g, 1e-3, rows, s, marks)))
    assert states.shape == (len(marks), 6)
    assert states[0].tolist() == list(s)
    for k in range(n):
        s = step_floats(g.alpha, g.beta, g.g0, 1e-3, [rows[k]], s)
        if k + 1 in marks:
            assert states[marks.index(k + 1)].tolist() == list(s)


@pytest.mark.parametrize("batch", [None, 4])
def test_step_over_a_block_is_the_one_row_steps_repeated(batch):
    # one call over n rows gives, bit for bit, what n one-row calls give: on
    # floats, and on (B,) arrays with each observer's own gains and inputs
    rng = np.random.default_rng(16)
    n, dt, g0 = 60, 1e-3, 9.81
    shape = () if batch is None else (batch,)
    a = rng.uniform(5.0, 30.0, shape)
    b = rng.uniform(0.1, 0.9, shape) * a * a / g0
    rows = np.concatenate([
        0.5 * rng.standard_normal((n, 3) + shape),
        0.2 * rng.standard_normal((n, 3) + shape),
        g0 * EZ.reshape((3,) + (1,) * len(shape)) + rng.standard_normal((n, 3) + shape),
    ], axis=1)
    tilt0 = rng.standard_normal((3,) + shape)
    tilt0 /= np.linalg.norm(tilt0, axis=0)
    state0 = np.concatenate([rng.standard_normal((3,) + shape), tilt0])
    rotate = rotate_twice if batch is None else rotate_twice_arrays
    if batch is None:
        a, b, rows, state0 = float(a), float(b), rows.tolist(), tuple(state0.tolist())
    else:
        rows, state0 = [tuple(r) for r in rows], tuple(state0)
    s = state0
    for row in rows:
        s = step_floats(a, b, g0, dt, [row], s, rotate=rotate)
    block = step_floats(a, b, g0, dt, rows, state0, rotate=rotate)
    assert np.array_equal(np.array(block), np.array(s))
    assert all(np.shape(x) == shape for x in block)
    # an empty block leaves the state as it is
    assert step_floats(a, b, g0, dt, [], state0, rotate=rotate) == state0


# values far from subnormals and overflow, where a power-of-two scaling is exact
SCALABLE = st.one_of(st.just(0.0), st.floats(1e-6, 20.0), st.floats(-20.0, -1e-6))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.25, 0.5, 2.0, 4.0]), st.sampled_from([0.125, 0.5, 4.0, 8.0]),
       st.floats(0.5, 50.0), st.floats(0.01, 50.0), st.floats(0.5, 20.0), st.floats(1e-4, 0.05),
       st.lists(st.tuples(*[SCALABLE] * 9), min_size=1, max_size=6),
       st.tuples(*[SCALABLE] * 6), st.booleans())
def test_step_is_exact_under_power_of_two_rescaling(c, k, a, b, g, dt, rows, state, batch):
    """Powers of two c and k map (alpha, beta, g0, dt) to (alpha/c, beta*k/c,
    g0/(c*k), c*dt), the pivot rate to 1/c, the measurement and the velocity
    estimate to 1/k and the specific force to 1/(c*k).  Every stage of the
    step then scales by 1/(c*k) exactly and the rotation vector -h*e is
    unchanged, so the step gives the velocity over k and the same tilt, bit
    for bit: on floats, and on (B,) arrays.  A dimensionally wrong edit, such
    as a dropped g, h or gain factor, fails; a wrong dimensionless
    coefficient (a 2 for a 3) keeps the scaling and passes."""

    def step(a, b, g, dt, rows, state):
        if not batch:  # Python floats, as run_observer feeds the float path
            return np.array(step_floats(a, b, g, dt, rows.tolist(), tuple(state.tolist())))
        cols = [1.0, -1.0, 0.5]  # three observers: the rows and state so scaled
        return np.array(step_floats(a, b, g, dt, list(rows[..., None] * cols),
                                    tuple(state[:, None] * cols), rotate=rotate_twice_arrays))

    rows, state = np.array(rows), np.array(state)
    base = step(a, b, g, dt, rows, state)
    scaled = step(a / c, b * k / c, g / (c * k), c * dt,
                  rows * ([1 / c] * 3 + [1 / k] * 3 + [1 / (c * k)] * 3),
                  state * ([1 / k] * 3 + [1.0] * 3))
    assert (base[:3] / k).tobytes() == scaled[:3].tobytes()
    assert base[3:].tobytes() == scaled[3:].tobytes()


def test_run_observer_overflow_names_the_step():
    # alpha*dt = 5 is far outside RK4's stability region: the state overflows
    # and the math-domain error stops the loop.  The error names the first
    # recorded step past the blow-up, on either mark grid, and from a start
    # past step 0 still names it by its absolute step.
    g = make_gains(5000.0, 1.0)
    n = 2000
    row = (0.3, -0.4, 0.2, 0.0, 0.0, 0.0, 0.0, 0.5, 9.81)
    state0 = [1.0, 1.0, 1.0, *EZ]
    with pytest.raises(RuntimeError, match=r"diverged by step \d+ \(t = ") as info:
        list(run_observer(g, 1e-3, repeat(row, n), state0, list(range(n + 1))))
    first_bad = int(re.search(r"step (\d+)", str(info.value))[1])
    assert 0 < first_bad < n
    every_10th = list(range(0, n + 1, 10))
    with pytest.raises(RuntimeError, match=rf"diverged by step {-(-first_bad // 10) * 10} "):
        list(run_observer(g, 1e-3, repeat(row, n), state0, every_10th))
    k = first_bad // 2
    start = list(run_observer(g, 1e-3, repeat(row, k), state0, [0, k]))[-1]
    with pytest.raises(RuntimeError, match=rf"diverged by step {first_bad} "
                                           rf"\(t = {first_bad * 1e-3:.6g} s\)"):
        list(run_observer(g, 1e-3, repeat(row, n - k), start, list(range(k, n + 1))))


def test_run_observer_starts_at_its_first_mark():
    # state0 is the state at marks[0]: a start at step 70 with the rows from
    # there gives the tail of the run from step 0
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(16)
    n = 200
    rows = np.hstack([0.3 * rng.standard_normal((n, 3)), 0.1 * rng.standard_normal((n, 3)),
                      g.g0 * EZ + rng.standard_normal((n, 3))]).tolist()
    marks = [0, 30, 70, 71, 150, 200]
    whole = np.array(list(run_observer(g, 1e-3, rows, [0.1, 0.2, 0.3, *EZ], marks)))
    tail = np.array(list(run_observer(g, 1e-3, rows[70:], whole[2], marks[2:])))
    assert tail.tobytes() == whole[2:].tobytes()


def test_run_observer_batch_is_single_runs_column_by_column():
    # B starts, each its own column of a (6, B) state, under shared inputs
    g = make_gains(19.8, 10.0)
    rng = np.random.default_rng(15)
    n, n_obs = 300, 4
    rows = np.hstack([
        0.5 * rng.standard_normal((n, 3)),
        0.2 * rng.standard_normal((n, 3)),
        g.g0 * EZ + rng.standard_normal((n, 3)),
    ]).tolist()
    tilt0 = rng.standard_normal((3, n_obs))
    tilt0 /= np.linalg.norm(tilt0, axis=0)
    state0 = np.vstack([rng.standard_normal((3, n_obs)), tilt0])
    marks = list(range(0, n + 1, 30))
    batch = np.array(list(run_observer(g, 1e-3, rows, state0, marks)))
    assert batch.shape == (len(marks), 6, n_obs)
    for i in range(n_obs):
        single = np.array(list(run_observer(g, 1e-3, rows, state0[:, i], marks)))
        assert np.abs(batch[:, :, i] - single).max() <= 1e-14


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
    row = (0.3, -0.4, 0.2, 0.1, 0.2, -0.1, 0.0, 0.5, 9.81)
    for k in range(5):
        s = step_floats(g.alpha, g.beta, g.g0, 1e-3, [row], s, rotate=counting)
        assert len(calls) == k + 1
    s = step_floats(g.alpha, g.beta, g.g0, 1e-3, repeat(row, 5), s, rotate=counting)
    assert len(calls) == 10
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
        s = step_floats(a, b, g0, dt, [(*rate[k], *vel_meas[k], *force[k])], s,
                        rotate=rotate_twice_arrays)
        rows = [
            step_floats(a[i], b[i], g0, dt, [(*rate[k, :, i].tolist(),
                        *vel_meas[k, :, i].tolist(), *force[k, :, i].tolist())], rows[i])
            for i in range(n_obs)
        ]
        assert np.abs(np.array(s).T - np.array(rows)).max() <= 1e-14
    # the scene did move the estimates
    assert np.abs(np.array(s)[3:] - tilt0).min() > 1e-3

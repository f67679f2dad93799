import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltobs import analysis
from tiltobs.analysis import (
    EZ,
    convergence_times,
    decay_rate,
    equilibria,
    error_field,
    error_flow,
    exponential_bound,
    grade_batch,
    linearization,
    lyapunov,
    lyapunov_rate,
    sample_basin,
    unstable_root,
)
from tiltobs.observer import make_gains

GAINS = make_gains(19.8, 10.0)


def on_manifold_samples(n: int, seed: int, verr_scale: float = 1.0):
    """Random error states with the tilt error exactly on its sphere."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    terr = EZ - u
    verr = verr_scale * rng.standard_normal((n, 3))
    return verr, terr


# --- vector field and Lyapunov function ----------------------------------


def test_field_hand_value():
    dv, dt_ = error_field(np.array([1.0, 0.0, 0.0]), np.zeros(3), GAINS)
    assert_allclose(dv, [-19.8, 0.0, 0.0], atol=1e-12)
    assert_allclose(dt_, [-10.0, 0.0, 0.0], atol=1e-12)


def test_equilibria_are_fixed_points():
    (v0, t0), (v1, t1) = equilibria(GAINS)
    assert_allclose(v0, np.zeros(3), atol=0)
    assert_allclose(t0, np.zeros(3), atol=0)
    assert_allclose(v1, [0.0, 0.0, 2.0 * 9.81 / 19.8], atol=1e-15)
    assert_allclose(t1, [0.0, 0.0, 2.0], atol=0)
    for v, t in ((v0, t0), (v1, t1)):
        dv, dt_ = error_field(v, t, GAINS)
        assert_allclose(dv, np.zeros(3), atol=1e-12)
        assert_allclose(dt_, np.zeros(3), atol=1e-12)


def test_lyapunov_hand_values():
    assert lyapunov(np.zeros(3), np.zeros(3), GAINS) == 0.0
    # straight-down tilt estimate with zero velocity error
    assert_allclose(lyapunov(np.zeros(3), 2.0 * EZ, GAINS), 4.0 * 9.81**2, rtol=1e-15)
    # value at the flipped equilibrium: the basin boundary level
    v1, t1 = equilibria(GAINS)[1]
    assert_allclose(lyapunov(v1, t1, GAINS), 2.0 * 9.81**2, rtol=1e-12)


def test_rate_matches_gradient_chain_rule():
    # oracle: <grad V, field> with the gradient written out independently
    verr, terr = on_manifold_samples(300, seed=20)
    for z1, z2 in zip(verr, terr):
        u = GAINS.alpha * z1 - GAINS.g0 * z2
        gv = GAINS.alpha * u
        gt = -GAINS.g0 * u + GAINS.g0**2 * z2
        dv, dt_ = error_field(z1, z2, GAINS)
        oracle = gv @ dv + gt @ dt_
        got = lyapunov_rate(z1, z2, GAINS)
        assert_allclose(got, oracle, rtol=1e-9, atol=1e-9)


def test_rate_matches_directional_finite_difference():
    # V is quadratic, so a central difference along the field is exact up to
    # roundoff; this is the same check the acceptance suite runs
    verr, terr = on_manifold_samples(100, seed=21)
    h = 1e-3
    for z1, z2 in zip(verr, terr):
        dv, dt_ = error_field(z1, z2, GAINS)
        fd = (
            lyapunov(z1 + h * dv, z2 + h * dt_, GAINS)
            - lyapunov(z1 - h * dv, z2 - h * dt_, GAINS)
        ) / (2.0 * h)
        assert_allclose(lyapunov_rate(z1, z2, GAINS), fd, rtol=1e-6, atol=1e-6)


def test_rate_nonpositive_on_manifold():
    verr, terr = on_manifold_samples(10_000, seed=22, verr_scale=2.0)
    rates = lyapunov_rate(verr, terr, GAINS)
    assert rates.max() <= 1e-8


def test_rate_zero_at_equilibria():
    for v, t in equilibria(GAINS):
        assert abs(lyapunov_rate(v, t, GAINS)) < 1e-9


# --- linearization and spectra --------------------------------------------


def numeric_jacobian(verr, terr, gains, h=1e-6):
    J = np.zeros((6, 6))
    x0 = np.concatenate([verr, terr])
    for j in range(6):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.concatenate(error_field(xp[:3], xp[3:], gains))
        fm = np.concatenate(error_field(xm[:3], xm[3:], gains))
        J[:, j] = (fp - fm) / (2.0 * h)
    return J


def test_linearization_matches_numeric_jacobian():
    verr, terr = on_manifold_samples(10, seed=23)
    for z1, z2 in zip(verr, terr):
        assert_allclose(
            linearization(z1, z2, GAINS), numeric_jacobian(z1, z2, GAINS), atol=1e-5
        )
    v1, t1 = equilibria(GAINS)[1]
    assert_allclose(linearization(v1, t1, GAINS), numeric_jacobian(v1, t1, GAINS), atol=1e-5)


def test_unstable_root_value_and_membership():
    lam = unstable_root(GAINS)
    assert lam > 0.0
    assert abs(lam - 6.1251155) < 1e-6
    # it is an eigenvalue of the linearization at the flipped point
    v1, t1 = equilibria(GAINS)[1]
    eig = np.linalg.eigvals(linearization(v1, t1, GAINS))
    assert np.min(np.abs(eig - lam)) < 1e-9


def test_origin_linearization_is_stable():
    # the 6x6 ambient Jacobian keeps one structural zero eigenvalue (motion
    # off the tilt-error sphere); every mode on the manifold decays
    J = linearization(np.zeros(3), np.zeros(3), GAINS)
    eig = np.sort_complex(np.linalg.eigvals(J))
    reals = np.sort(eig.real)
    assert abs(reals[-1]) < 1e-9  # the constraint-normal mode
    # slowest on-manifold modes: oscillatory pairs with re(lambda) = -alpha/2
    assert_allclose(reals[1:5], -GAINS.alpha / 2.0, atol=1e-9)
    assert_allclose(reals[0], -GAINS.alpha, atol=1e-9)


# --- bounds and summary scalars -------------------------------------------


def test_decay_rate_hand_value():
    # 2 * min(1 - r, 0.5 r) * alpha with r = 98.1/392.04 reduces to
    # beta*g0/alpha = 98.1/19.8 for these gains
    assert_allclose(decay_rate(0.5, GAINS), 98.1 / 19.8, rtol=1e-12)
    assert_allclose(decay_rate(0.5, GAINS), 4.9545455, atol=1e-6)
    # at eps = 1 the other branch still loses for these gains
    assert_allclose(decay_rate(1.0, GAINS), 2.0 * GAINS.gain_ratio * 19.8, rtol=1e-12)


def test_exponential_bound_values_and_validation():
    t = np.array([0.0, 1.0, 2.0])
    env = exponential_bound(100.0, t, 0.5, GAINS)
    assert_allclose(env, 100.0 * np.exp(-(98.1 / 19.8) * t), rtol=1e-12)
    exponential_bound(1.0, 0.0, 1.0, GAINS)  # eps = 1 allowed
    for bad in (0.0, -0.2, 1.0001, 2.0):
        with pytest.raises(ValueError):
            exponential_bound(1.0, t, bad, GAINS)


def test_grade_batch_epsilon_hand_values():
    # a hand-made flow of three starts over three marks, (M, 6, B) with zero
    # verr; the last start touches the flipped point, |terr| = 2
    terr = np.array([
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.5], [0.1, 0.0, 0.0]],
        [[0.0, 0.0, 1.93065]] * 3,
        [[0.0, 0.0, 2.0]] * 3,
    ])
    t = np.arange(3.0)
    states = np.concatenate([np.zeros_like(terr), terr], axis=-1).transpose(1, 2, 0)
    _, eps, _ = grade_batch((t, states), GAINS, 1e-3)
    assert_allclose(eps[0], 1.0 - 1.5**2 / 4.0, rtol=1e-12)
    assert_allclose(eps[1], 0.0681476, atol=1e-7)
    assert eps[2] == 0.0
    # no positive margin there, so no exponential envelope either
    with pytest.raises(ValueError):
        exponential_bound(1.0, t, eps[2], GAINS)


def test_convergence_time_cases():
    t = np.arange(6.0)
    assert convergence_times(t, np.array([5, 3, 0.5, 2, 0.5, 0.2]), 1.0) == 4.0
    assert convergence_times(t, np.array([5, 4, 3, 2, 1.5, 1.2]), 1.0) == np.inf
    assert convergence_times(t, np.full(6, 0.1), 1.0) == 0.0
    # sitting exactly at the threshold counts as not converged yet
    assert convergence_times(np.arange(3.0), np.array([0.5, 1.0, 0.5]), 1.0) == 2.0


def test_convergence_times_grade_rows_by_the_stays_below_rule():
    t = np.arange(6.0)
    rows = np.array([
        [5, 0.5, 0.2, 2, 0.5, 0.2],  # dips below, rises again, then stays
        [5, 3, 0.5, 2, 0.5, 1.2],  # dips below but ends above
        [0.1] * 6,  # below from the start
        [5, 4, 3, 2, 1.0, 0.5],  # reaches it at the last sample
    ])
    times = convergence_times(t, rows, 1.0)
    assert_allclose(times, [4.0, np.inf, 0.0, 5.0])
    for row, c in zip(rows, times):
        assert convergence_times(t, row, 1.0) == c
    # leading axes broadcast
    assert convergence_times(t, rows.reshape(2, 2, 6), 1.0).shape == (2, 2)


def test_convergence_rule_edge_cases_grade_alike_on_both_paths():
    # xi = |verr_x| exactly, threshold 1
    xi = np.array([
        [0.5, 0.5, 0.5, 0.5, 0.5],  # never at or above it: t[0]
        [2.0, 0.5, 0.5, 0.5, 0.5],  # at or above it at mark 0 only
        [0.5, 0.5, 0.5, 0.5, 1.0],  # exactly at it at the last mark: still not converged
        [2.0, np.nan, 0.5, 0.5, 0.5],  # a NaN reads as below
        [2.0, 3.0, 1.5, 0.2, 0.1],  # above, then below for good
    ])
    t, states = 0.5 * np.arange(5), np.zeros((5, 6, 5))  # a hand-made (M, 6, B) flow
    states[:, 0] = xi.T
    expected = convergence_times(t, np.sqrt(np.sum(states**2, axis=1)).T, 1.0)
    assert expected.tolist() == [0.0, 0.5, np.inf, 0.5, 1.5]
    assert grade_batch((t, states), GAINS, 1.0)[0].tobytes() == expected.tobytes()


def decaying_flow(n: int, m: int, seed: int):
    """Hand-built batch flow ``(t, states)``, (M, 6, B): each start's errors
    shrink by exp(-k t) along fixed directions, so xi falls and V strictly
    decreases, at rates k that leave some starts above 1e-2 at the end."""
    rng = np.random.default_rng(seed)
    t = 0.1 * np.arange(m)
    decay = np.exp(-rng.uniform(0.2, 3.0, (n, 1)) * t)[..., None]
    verr = rng.standard_normal((n, 1, 3)) * decay
    terr = rng.uniform(-1.0, 1.0, (n, 1, 3)) * decay
    return t, np.concatenate([verr, terr], axis=-1).transpose(1, 2, 0)


def test_grade_batch_of_a_live_flow_is_its_record_graded(collect):
    # 150 starts, 1 s at 5 ms: some still above 1e-2 at the last mark
    verr0, terr0 = on_manifold_samples(150, seed=4)
    run = dict(dt=5e-3, duration=1.0, record_every=2)
    live = grade_batch(error_flow(verr0, terr0, GAINS, **run), GAINS, 1e-2)
    rec = collect(verr0, terr0, GAINS, **run)
    recorded = grade_batch((rec.t, rec.states), GAINS, 1e-2)
    for a, b in zip(live, recorded):
        assert a.shape == (150,) and a.tobytes() == b.tobytes()
    assert np.isinf(live[0]).any() and np.isfinite(live[0]).any()
    # a hand-made flow
    t, states = decaying_flow(150, 60, seed=4)
    conv, eps, monotone = grade_batch((t, states), GAINS, 1e-2)
    assert np.isinf(conv).any() and np.isfinite(conv).any()
    xi = np.sqrt(np.sum(states**2, axis=1))
    assert np.array_equal(np.isinf(conv), xi[-1] >= 1e-2)
    assert_allclose(eps, 1.0 - np.max(np.sum(states[:, 3:] ** 2, axis=1), axis=0) / 4.0)
    assert monotone.all()
    # a V rise at one mark of start 148
    states[30, 0, 148] += 10.0
    assert np.flatnonzero(~grade_batch((t, states), GAINS, 1e-2)[2]).tolist() == [148]


def test_grading_a_live_flow_never_holds_its_record():
    # 512 starts at 1001 marks: a record would be 24.6 MB
    verr0, terr0 = on_manifold_samples(512, seed=5)
    flow = error_flow(verr0, terr0, GAINS, dt=1e-2, duration=10.0)
    record = len(flow[0]) * 6 * 512 * 8
    tracemalloc.start()
    try:
        grade_batch(flow, GAINS, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record > 24_000_000
    assert peak < record / 4


def test_grading_memory_does_not_grow_with_the_mark_count():
    # 256 starts at 1001 and at 4001 marks, 10 ms apart: an (M, B) buffer of
    # xi would grow from 2 MB to 8 MB.  The flow is a hand-made one of
    # error_flow's shape, decaying errors at fresh (6, B) arrays, as tracing
    # 5000 live observer steps would take 15 s
    rng = np.random.default_rng(8)
    start, rate = rng.standard_normal((6, 256)), rng.uniform(0.2, 3.0, 256)
    peaks = []
    for m in (1001, 4001):
        t = 1e-2 * np.arange(m)
        tracemalloc.start()
        try:
            conv = grade_batch((t, (start * np.exp(-rate * s) for s in t)), GAINS, 1e-3)[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.isfinite(conv).any() and (conv > 0.0).all()
    assert abs(peaks[1] - peaks[0]) < 20_000, peaks


def test_flow_leaves_the_numpy_error_state_alone():
    verr0, terr0 = on_manifold_samples(4, seed=6)
    with np.errstate(all="raise"):
        caller = np.geterr()
        t, states = error_flow(verr0, terr0, GAINS, duration=1.0, record_every=10)
        for _ in range(3):  # marks 0, 10 and 20
            next(states)
            assert np.geterr() == caller
        states.close()
        assert np.geterr() == caller


def test_flow_checks_its_input_at_call_time(monkeypatch):
    started = []
    monkeypatch.setattr(analysis, "run_observer", lambda *args: started.append(args))
    verr0, terr0 = on_manifold_samples(3, seed=7)
    for v, t, run, match in (
        (verr0, 0.5 * terr0, {}, "off manifold"),
        (np.full((3, 3), np.nan), terr0, {}, "finite"),
        (verr0, terr0, {"dt": 0.2}, "alpha\\*dt"),
        (verr0, terr0, {"duration": 1e4}, "step count"),
    ):
        with pytest.raises(ValueError, match=match):
            error_flow(v, t, GAINS, **run)
    assert started == []


# --- direct integration ----------------------------------------------------


def reference_start():
    u0 = EZ - np.array([-1.87, 0.28, 0.39])
    u0 /= np.linalg.norm(u0)
    return np.zeros(3), EZ - u0


def test_integrator_rejects_off_manifold_start():
    with pytest.raises(ValueError):
        error_flow(np.zeros(3), 0.3 * EZ, GAINS, duration=0.01)


def test_error_point_accepts_manifold_points(collect):
    # error states on the tilt-error sphere, the flipped point included, are
    # valid starts and are recorded as given
    for verr0, terr0 in (
        (np.ones(3), np.zeros(3)),
        (np.zeros(3), 2.0 * EZ),
        (np.zeros(3), EZ - np.array([1.0, 0.0, 0.0])),
    ):
        traj = collect(verr0, terr0, GAINS, duration=0.01)
        assert (traj.verr[0, 0] == verr0).all() and (traj.terr[0, 0] == terr0).all()


def test_error_point_rejects_off_manifold():
    for verr0, terr0 in (
        (np.zeros(3), 0.5 * EZ),
        (np.zeros(3), np.array([3.0, 0.0, 0.0])),
        (np.zeros(2), np.zeros(3)),  # shapes disagree
        # non-finite starts
        (np.zeros(3), np.array([np.nan, 0.0, 0.0])),
        (np.array([np.inf, 0.0, 0.0]), np.zeros(3)),
    ):
        with pytest.raises(ValueError):
            error_flow(verr0, terr0, GAINS, duration=0.01)
    # a non-finite start as one row of a batch flow
    for verr0, terr0 in (
        (np.zeros((2, 3)), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.nan]])),
        (np.array([[0.0, 0.0, 0.0], [0.0, -np.inf, 0.0]]), np.zeros((2, 3))),
    ):
        with pytest.raises(ValueError, match="finite|manifold"):
            error_flow(verr0, terr0, GAINS, duration=0.01)


def test_integrator_stays_on_manifold_and_converges(collect):
    verr0, terr0 = reference_start()
    traj = collect(verr0, terr0, GAINS, dt=1e-3, duration=10.0, record_every=100)
    verr, terr = traj.verr[0], traj.terr[0]
    drift = np.abs(np.linalg.norm(EZ - terr, axis=-1) - 1.0)
    assert drift.max() < 1e-12
    assert np.linalg.norm(verr[-1]) < 1e-9
    assert np.linalg.norm(terr[-1]) < 1e-9
    V = lyapunov(verr, terr, GAINS)
    assert np.all(np.diff(V) <= 1e-9 * V[0])


def test_integrator_self_convergence_under_refinement(collect):
    verr0, terr0 = reference_start()
    a = collect(verr0, terr0, GAINS, dt=1e-3, duration=1.0, record_every=1000)
    b = collect(verr0, terr0, GAINS, dt=1e-4, duration=1.0, record_every=10000)
    assert np.abs(a.verr[0, -1] - b.verr[0, -1]).max() < 1e-4
    assert np.abs(a.terr[0, -1] - b.terr[0, -1]).max() < 1e-4


def test_integrator_batch_matches_single(collect):
    verr, terr = on_manifold_samples(4, seed=26, verr_scale=0.5)
    batch = collect(verr, terr, GAINS, dt=1e-3, duration=0.2, record_every=20)
    assert batch.verr.shape == (4, 11, 3)
    for i in range(4):
        single = collect(verr[i], terr[i], GAINS, dt=1e-3, duration=0.2, record_every=20)
        assert_allclose(batch.verr[i], single.verr[0], atol=1e-14)
        assert_allclose(batch.terr[i], single.terr[0], atol=1e-14)
    assert_allclose(batch.t, np.arange(11) * 0.02, atol=1e-12)


def test_integrator_one_row_batch_is_the_single_start(collect):
    # `analyze --basin-samples 1` and `error-ode`: a (3,) start's flow is a
    # (1, 3) batch's, bit for bit; both step on floats
    verr, terr = on_manifold_samples(1, seed=28, verr_scale=0.5)
    batch = collect(verr, terr, GAINS, dt=1e-3, duration=0.2, record_every=20)
    single = collect(verr[0], terr[0], GAINS, dt=1e-3, duration=0.2, record_every=20)
    assert batch.states.shape == single.states.shape == (11, 6, 1)
    assert batch.t.tobytes() == single.t.tobytes()
    assert batch.states.tobytes() == single.states.tobytes()


def test_error_flow_is_exact_under_power_of_two_rescaling(collect):
    """The kernel's exact rescaling (see test_observer.py) on 20 basin starts:
    with powers of two c and k, (alpha, beta, g0, dt, duration, verr) mapped
    to (alpha/c, beta*k/c, g0/(c*k), c*dt, c*duration, verr/k), the flow is
    at times c*t with verr/k and the same terr, bit for bit.  It cannot catch
    a wrong dimensionless coefficient, which keeps the scaling."""
    verr0, terr0 = sample_basin(20, GAINS, np.random.default_rng(9))
    base = collect(verr0, terr0, GAINS, dt=1e-3, duration=0.5, record_every=50)
    for c, k in ((2.0, 4.0), (0.5, 8.0), (4.0, 0.25)):
        gains = make_gains(GAINS.alpha / c, GAINS.beta * k / c, GAINS.g0 / (c * k))
        scaled = collect(verr0 / k, terr0, gains, dt=c * 1e-3, duration=c * 0.5, record_every=50)
        assert (c * base.t).tobytes() == scaled.t.tobytes()
        assert (base.verr / k).tobytes() == scaled.verr.tobytes()
        assert base.terr.tobytes() == scaled.terr.tobytes()


def test_integrator_overflow_is_reported_as_divergence(collect):
    # a huge velocity error overflows the tilt's rotation vector in step 1:
    # both the float path (one start, recorded) and the array path (a batch
    # flow graded as it runs, whose other start is fine) name the first
    # recorded step past it, and leak no numpy warning
    verr0 = np.array([[1e300, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(RuntimeError, match=r"diverged by step 10 \(t = 0\.01 s\)"):
        collect(verr0[0], np.zeros(3), GAINS, duration=0.1, record_every=10)
    flow = error_flow(verr0, np.zeros((2, 3)), GAINS, duration=0.1, record_every=10)
    with pytest.raises(RuntimeError, match=r"diverged by step 10 \(t = 0\.01 s\)"):
        grade_batch(flow, GAINS, 1e-3)


def test_integrator_rejects_steps_past_rk4_limit(collect):
    verr0, terr0 = reference_start()
    # alpha*dt = 3.96: RK4 multiplies the -alpha mode by R(-3.96) = 4.8 per step
    with pytest.raises(ValueError, match=r"dt = 0\.2 .*alpha\*dt = 3\.96"):
        error_flow(verr0, terr0, GAINS, dt=0.2, duration=4.0)
    with pytest.raises(ValueError, match="alpha\\*dt"):
        error_flow(verr0, terr0, GAINS, dt=2.786 / GAINS.alpha, duration=1.0)
    # just under the limit the run is bounded
    traj = collect(verr0, terr0, GAINS, dt=2.78 / GAINS.alpha, duration=4.0)
    assert np.isfinite(traj.states).all()


# --- basin sampling --------------------------------------------------------


def test_sample_basin_respects_level_set():
    rng = np.random.default_rng(27)
    verr, terr = sample_basin(500, GAINS, rng)
    assert verr.shape == (500, 3) and terr.shape == (500, 3)
    V = lyapunov(verr, terr, GAINS)
    assert V.max() < 0.99 * 2.0 * GAINS.g0**2
    drift = np.abs(np.linalg.norm(EZ - terr, axis=-1) - 1.0)
    assert drift.max() < 1e-12
    # deterministic for a given seed
    v2, t2 = sample_basin(500, GAINS, np.random.default_rng(27))
    assert (verr == v2).all() and (terr == t2).all()


def test_start_outside_basin_still_converges(collect):
    # start near the flipped point (tilt error norm ~1.99): V0 exceeds the
    # basin level, so no decay bound applies, yet the run still converges
    theta = 0.2
    u0 = np.array([np.sin(theta), 0.0, -np.cos(theta)])
    terr0 = EZ - u0
    traj = collect(np.zeros(3), terr0, GAINS, duration=10.0, record_every=10)
    verr, terr = traj.verr[0], traj.terr[0]
    V = lyapunov(verr, terr, GAINS)
    assert V[0] > 2.0 * GAINS.g0**2
    assert V[-1] < 1e-9
    norms = np.maximum(np.linalg.norm(verr, axis=-1), np.linalg.norm(terr, axis=-1))
    assert np.isfinite(convergence_times(traj.t, norms, 1e-3))


def test_sample_basin_gives_up_past_its_draw_cap(monkeypatch):
    # at alpha = 200 about one candidate in 10^4 is kept: a cap of 10^5 draws
    # per start leaves the draws as they are, a cap of 10 gives up
    stiff = make_gains(200.0, 10.0)
    drawn = sample_basin(5, stiff, np.random.default_rng(3))
    monkeypatch.setattr(analysis, "BASIN_MAX_DRAWS_PER_START", 10**5)
    again = sample_basin(5, stiff, np.random.default_rng(3))
    assert all(np.array_equal(a, b) for a, b in zip(drawn, again))
    monkeypatch.setattr(analysis, "BASIN_MAX_DRAWS_PER_START", 10)
    with pytest.raises(ValueError, match=r"alpha = 200.0 kept \d of 5 starts in \d+ candidates"):
        sample_basin(5, stiff, np.random.default_rng(3))

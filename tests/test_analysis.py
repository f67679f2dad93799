import numpy as np
import pytest
from numpy.testing import assert_allclose

from tiltobs.analysis import (
    EZ,
    char_poly_flipped,
    convergence_time,
    decay_rate,
    equilibria,
    error_field,
    estimate_epsilon,
    exponential_bound,
    integrate_error_ode,
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


def test_char_poly_matches_determinant():
    v1, t1 = equilibria(GAINS)[1]
    J = linearization(v1, t1, GAINS)
    rng = np.random.default_rng(24)
    for _ in range(20):
        lam = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        det = np.linalg.det(lam * np.eye(6) - J)
        assert_allclose(char_poly_flipped(lam, GAINS), det, rtol=1e-6)


def test_unstable_root_value_and_membership():
    lam = unstable_root(GAINS)
    assert lam > 0.0
    assert abs(lam - 6.1251155) < 1e-6
    # it is a root of the characteristic polynomial ...
    assert abs(char_poly_flipped(lam, GAINS)) < 1e-6
    # ... and an eigenvalue of the linearization at the flipped point
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


def test_estimate_epsilon():
    terr = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.5], [0.1, 0.0, 0.0]])
    assert_allclose(estimate_epsilon(terr), 1.0 - 1.5**2 / 4.0, rtol=1e-12)
    assert_allclose(estimate_epsilon([[0.0, 0.0, 1.93065]]), 0.0681476, atol=1e-7)
    with pytest.raises(ValueError):
        estimate_epsilon(np.array([[0.0, 0.0, 2.0]]))


def test_convergence_time_cases():
    t = np.arange(6.0)
    assert convergence_time(t, np.array([5, 3, 0.5, 2, 0.5, 0.2]), 1.0) == 4.0
    assert convergence_time(t, np.array([5, 4, 3, 2, 1.5, 1.2]), 1.0) is None
    assert convergence_time(t, np.full(6, 0.1), 1.0) == 0.0
    # sitting exactly at the threshold counts as not converged yet
    assert convergence_time(np.arange(3.0), np.array([0.5, 1.0, 0.5]), 1.0) == 2.0


# --- direct integration ----------------------------------------------------


def reference_start():
    u0 = EZ - np.array([-1.87, 0.28, 0.39])
    u0 /= np.linalg.norm(u0)
    return np.zeros(3), EZ - u0


def test_integrator_rejects_off_manifold_start():
    with pytest.raises(ValueError):
        integrate_error_ode(np.zeros(3), 0.3 * EZ, GAINS, duration=0.01)


def test_error_point_accepts_manifold_points():
    # error states on the tilt-error sphere, the flipped point included, are
    # valid starts and are recorded as given
    for verr0, terr0 in (
        (np.ones(3), np.zeros(3)),
        (np.zeros(3), 2.0 * EZ),
        (np.zeros(3), EZ - np.array([1.0, 0.0, 0.0])),
    ):
        traj = integrate_error_ode(verr0, terr0, GAINS, duration=0.01)
        assert (traj.verr[0] == verr0).all() and (traj.terr[0] == terr0).all()


def test_error_point_rejects_off_manifold():
    for verr0, terr0 in (
        (np.zeros(3), 0.5 * EZ),
        (np.zeros(3), np.array([3.0, 0.0, 0.0])),
        (np.zeros(2), np.zeros(3)),  # shapes disagree
    ):
        with pytest.raises(ValueError):
            integrate_error_ode(verr0, terr0, GAINS, duration=0.01)


def test_integrator_stays_on_manifold_and_converges():
    verr0, terr0 = reference_start()
    traj = integrate_error_ode(verr0, terr0, GAINS, dt=1e-3, duration=10.0, record_every=100)
    drift = np.abs(np.linalg.norm(EZ - traj.terr, axis=-1) - 1.0)
    assert drift.max() < 1e-12
    assert np.linalg.norm(traj.verr[-1]) < 1e-9
    assert np.linalg.norm(traj.terr[-1]) < 1e-9
    V = lyapunov(traj.verr, traj.terr, GAINS)
    assert np.all(np.diff(V) <= 1e-9 * V[0])


def test_integrator_self_convergence_under_refinement():
    verr0, terr0 = reference_start()
    a = integrate_error_ode(verr0, terr0, GAINS, dt=1e-3, duration=1.0, record_every=1000)
    b = integrate_error_ode(verr0, terr0, GAINS, dt=1e-4, duration=1.0, record_every=10000)
    assert np.abs(a.verr[-1] - b.verr[-1]).max() < 1e-4
    assert np.abs(a.terr[-1] - b.terr[-1]).max() < 1e-4


def test_integrator_batch_matches_single():
    rng = np.random.default_rng(25)
    verr, terr = on_manifold_samples(4, seed=26, verr_scale=0.5)
    batch = integrate_error_ode(verr, terr, GAINS, dt=1e-3, duration=0.2, record_every=20)
    assert batch.verr.shape == (4, 11, 3)
    for i in range(4):
        single = integrate_error_ode(verr[i], terr[i], GAINS, dt=1e-3, duration=0.2, record_every=20)
        assert_allclose(batch.verr[i], single.verr, atol=1e-14)
        assert_allclose(batch.terr[i], single.terr, atol=1e-14)
    assert_allclose(batch.t, np.arange(11) * 0.02, atol=1e-12)


def test_integrator_rejects_steps_past_rk4_limit():
    verr0, terr0 = reference_start()
    # alpha*dt = 3.96: RK4 multiplies the -alpha mode by R(-3.96) = 4.8 per step
    with pytest.raises(ValueError, match=r"dt = 0\.2 .*alpha\*dt = 3\.96"):
        integrate_error_ode(verr0, terr0, GAINS, dt=0.2, duration=4.0)
    with pytest.raises(ValueError, match="alpha\\*dt"):
        integrate_error_ode(verr0, terr0, GAINS, dt=2.786 / GAINS.alpha, duration=1.0)
    # just under the limit the run is bounded
    traj = integrate_error_ode(verr0, terr0, GAINS, dt=2.78 / GAINS.alpha, duration=4.0)
    assert np.isfinite(traj.verr).all() and np.isfinite(traj.terr).all()


# --- basin sampling --------------------------------------------------------


def test_sample_basin_respects_level_set():
    rng = np.random.default_rng(27)
    verr, terr = sample_basin(500, GAINS, rng, v_fraction=0.99)
    assert verr.shape == (500, 3) and terr.shape == (500, 3)
    V = lyapunov(verr, terr, GAINS)
    assert V.max() < 0.99 * 2.0 * GAINS.g0**2
    drift = np.abs(np.linalg.norm(EZ - terr, axis=-1) - 1.0)
    assert drift.max() < 1e-12
    # deterministic for a given seed
    v2, t2 = sample_basin(500, GAINS, np.random.default_rng(27), v_fraction=0.99)
    assert (verr == v2).all() and (terr == t2).all()


def test_start_outside_basin_still_converges():
    # start near the flipped point (tilt error norm ~1.99): V0 exceeds the
    # basin level, so no decay bound applies, yet the run still converges
    theta = 0.2
    u0 = np.array([np.sin(theta), 0.0, -np.cos(theta)])
    terr0 = EZ - u0
    traj = integrate_error_ode(np.zeros(3), terr0, GAINS, duration=10.0, record_every=10)
    V = lyapunov(traj.verr, traj.terr, GAINS)
    assert V[0] > 2.0 * GAINS.g0**2
    assert V[-1] < 1e-9
    norms = np.maximum(np.linalg.norm(traj.verr, axis=-1), np.linalg.norm(traj.terr, axis=-1))
    assert convergence_time(traj.t, norms, 1e-3) is not None

"""Acceptance suite: the release gate, one test per criterion.

Every test here measures a concrete margin against a fixed bar and records a
single pass/fail line (replayed in the terminal summary by conftest).  The
bars are pinned numbers; loosening one is a release decision, not a test fix.

The criteria, in order:
 1. reference scenario converges (tilt error < 0.05 by 1.5 s) in < 1 s wall
 2. gain rule: reference gains accepted, ratio-violating pairs rejected
 3. the error field vanishes at exactly two points
 4. the energy function decreases along trajectories, rate matches its formula
 5. 1000 starts inside the guaranteed basin all converge within 10 s
 6. the flipped equilibrium repels: predicted positive eigenvalue, 10x growth
 7. decay respects the exponential envelope on every basin trajectory
 8. closed-loop pivot-frame errors equal the autonomous error flow
 9. sensor synthesis agrees with finite differences; gyro extraction inverts
10. spinning the world about gravity changes nothing measurable
11. with sensor noise on, convergence holds at a relaxed bar plus a pinned rms
"""

import numpy as np
import pytest

from tiltobs import plant
from tiltobs.analysis import (
    EZ,
    equilibria,
    error_field,
    exponential_bound,
    grade_batch,
    linearization,
    lyapunov,
    lyapunov_rate,
    sample_basin,
    unstable_root,
)
from tiltobs.harness import ExperimentConfig, run_simulation
from tiltobs.observer import make_gains
from tiltobs.so3 import rotation_exp

GAINS = make_gains(19.8, 10.0, 9.81)


@pytest.fixture(scope="module")
def reference_run():
    # the defaults ARE the reference scenario; keep it that way
    return run_simulation(ExperimentConfig())


@pytest.fixture(scope="module")
def noisy_run():
    cfg = ExperimentConfig()
    cfg.noise.gyro_std = 0.04
    cfg.noise.accel_std = 0.2
    return run_simulation(cfg)


@pytest.fixture(scope="module")
def basin_batch(collect):
    verr0, terr0 = sample_basin(1000, GAINS, np.random.default_rng(7))
    return collect(verr0, terr0, GAINS, dt=1e-3, duration=10.0, record_every=10)


def test_criterion_01_reference_convergence(reference_run, criterion):
    log = reference_run
    tail = np.linalg.norm(log.tilt_err[log.t >= 1.5], axis=1)
    worst = float(tail.max())
    criterion(
        1,
        worst < 0.05 and log.runtime < 1.0,
        f"tilt error stays under 0.05 from t = 1.5 s on (worst {worst:.1e}); "
        f"10 s run took {log.runtime:.2f} s wall",
    )


def test_criterion_02_gain_rule(criterion):
    ratio = GAINS.gain_ratio
    accepts = abs(ratio - 0.2503) < 5e-4 and ratio < 1.0

    # every pair at or over the line beta*g0 = alpha^2 must be refused;
    # (3, 1, 9) sits exactly on it
    bad = [(19.8, 45.0, 9.81), (1.0, 1.0, 9.81), (3.0, 1.0, 9.0)]
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = float(rng.uniform(0.5, 30.0))
        g0 = float(rng.uniform(1.0, 20.0))
        beta = alpha**2 / g0 * (1.0 + float(rng.uniform(0.001, 3.0)))
        bad.append((alpha, beta, g0))
    rejected = 0
    for alpha, beta, g0 in bad:
        try:
            make_gains(alpha, beta, g0)
        except ValueError:
            rejected += 1
    criterion(
        2,
        accepts and rejected == len(bad),
        f"reference gains give ratio {ratio:.4f} < 1; "
        f"{rejected}/{len(bad)} over-the-line pairs rejected",
    )


def test_criterion_03_two_equilibria(criterion):
    zero, flipped = equilibria(GAINS)
    resid = 0.0
    for point in (zero, flipped):
        dv, du = error_field(point[0], point[1], GAINS)
        resid = max(resid, float(np.abs(dv).max()), float(np.abs(du).max()))

    rng = np.random.default_rng(11)
    n = 10_000
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    terr = EZ - dirs
    verr = 2.0 * rng.standard_normal((n, 3))
    dv, du = error_field(verr, terr, GAINS)
    fnorm = np.sqrt(np.sum(dv * dv, axis=1) + np.sum(du * du, axis=1))
    spurious = 0
    for i in np.nonzero(fnorm < 1e-6)[0]:
        dist = min(
            np.sqrt(np.sum((verr[i] - p[0]) ** 2) + np.sum((terr[i] - p[1]) ** 2))
            for p in (zero, flipped)
        )
        if dist >= 1e-3:
            spurious += 1
    criterion(
        3,
        resid <= 1e-12 and spurious == 0,
        f"field residual {resid:.1e} at both rest points; {spurious} spurious "
        f"near-zeros in a {n}-sample sweep (min |F| = {fnorm.min():.2e})",
    )


def test_criterion_04_energy_decrease(basin_batch, criterion):
    v1, u1 = basin_batch.verr[:100], basin_batch.terr[:100]
    V = lyapunov(v1, u1, GAINS)
    worst_rise = float(np.diff(V, axis=1).max())

    # closed-form rate vs a central difference of V along the field; V is
    # quadratic, so the difference carries no truncation error, only roundoff
    dv, du = error_field(v1, u1, GAINS)
    h = 1e-4
    fd = (
        lyapunov(v1 + h * dv, u1 + h * du, GAINS)
        - lyapunov(v1 - h * dv, u1 - h * du, GAINS)
    ) / (2.0 * h)
    gap = float(np.abs(lyapunov_rate(v1, u1, GAINS) - fd).max())
    criterion(
        4,
        worst_rise <= 1e-9 and gap < 1e-6,
        f"V never rises along 100 trajectories (largest step change "
        f"{worst_rise:.1e}); rate formula vs finite difference gap {gap:.1e}",
    )


def test_criterion_05_basin_convergence(basin_batch, criterion):
    final = np.sqrt(
        np.sum(basin_batch.verr[:, -1, :] ** 2, axis=1)
        + np.sum(basin_batch.terr[:, -1, :] ** 2, axis=1)
    )
    n_ok = int((final < 1e-3).sum())
    criterion(
        5,
        n_ok == final.size,
        f"{n_ok}/{final.size} basin starts reach a combined error norm "
        f"below 1e-3 within 10 s (worst final {final.max():.1e})",
    )


def test_criterion_06_flipped_equilibrium_repels(collect, criterion):
    r = GAINS.gain_ratio
    lam = 0.5 * GAINS.alpha * (np.sqrt(1.0 + 4.0 * r * r) - (1.0 - 2.0 * r))
    _, flipped = equilibria(GAINS)
    w, vecs = np.linalg.eig(linearization(*flipped, GAINS))
    eig_gap = float(np.abs(w - lam).min())
    root_gap = abs(unstable_root(GAINS) - lam)

    # kick the state along the unstable eigenvector and watch it leave
    direction = np.real(vecs[:, int(np.argmin(np.abs(w - lam)))])
    direction /= np.linalg.norm(direction)
    delta = 1e-6 * direction
    v0 = flipped[0] + delta[:3]
    axis = EZ - (flipped[1] + delta[3:])
    axis /= np.linalg.norm(axis)
    u0 = EZ - axis  # back on the tilt-error sphere
    dev0 = np.sqrt(np.sum((v0 - flipped[0]) ** 2) + np.sum((u0 - flipped[1]) ** 2))
    horizon = 5.0 / lam
    traj = collect(v0, u0, GAINS, dt=1e-3, duration=horizon)
    dev = np.sqrt(
        np.sum((traj.verr[0] - flipped[0]) ** 2, axis=-1)
        + np.sum((traj.terr[0] - flipped[1]) ** 2, axis=-1)
    )
    growth = float(dev.max() / dev0)
    criterion(
        6,
        lam > 0.0 and eig_gap < 1e-9 and root_gap < 1e-9 and growth >= 10.0,
        f"positive root {lam:.6f} found in the spectrum (gap {eig_gap:.1e}); "
        f"a 1e-6 kick grows {growth:.0f}x within {horizon:.2f} s",
    )


def test_criterion_07_exponential_envelope(basin_batch, criterion):
    V = lyapunov(basin_batch.verr, basin_batch.terr, GAINS)
    _, eps, _ = grade_batch((basin_batch.t, basin_batch.states), GAINS, 1e-3)
    worst = -np.inf
    for i in range(V.shape[0]):
        bound = exponential_bound(float(V[i, 0]), basin_batch.t, float(eps[i]), GAINS)
        worst = max(worst, float((V[i] - bound - 1e-6).max()))
    criterion(
        7,
        worst <= 0.0,
        f"V(t) holds its exponential envelope on all {V.shape[0]} basin "
        f"trajectories (worst headroom {-worst:.1e})",
    )


def test_criterion_08_error_coordinate_equivalence(collect, criterion):
    # static scene: the pivot-frame error dynamics are then autonomous, so the
    # closed loop and the direct error integration must agree step for step
    cfg = ExperimentConfig(duration=5.0)
    cfg.pivot.accel_amp[:] = 0.0
    cfg.pivot.rate0[:] = 0.0
    cfg.mount.rate_amp[:] = 0.0
    cfg.mount.noise_std = 0.0
    cfg.init.attitude_mode = "consistent"
    cfg.init.vel_err = np.array([0.3, -0.2, 0.5])
    log = run_simulation(cfg)
    direct = collect(
        log.verr_world[0],
        log.terr_world[0],
        GAINS,
        dt=cfg.dt,
        duration=cfg.duration,
        record_every=cfg.decimation,
    )
    gap = max(
        float(np.abs(log.verr_world - direct.verr[0]).max()),
        float(np.abs(log.terr_world - direct.terr[0]).max()),
    )
    criterion(
        8,
        gap < 1e-6,
        f"closed-loop errors match the direct error flow to {gap:.1e} over 5 s",
    )


def test_criterion_09_sensor_model_oracles(criterion):
    # the default scene: a wobbling pivot and a swiveling mount
    pivot, mount, g0 = plant.PivotSettings(), plant.MountSettings(), 9.81
    noise = plant.MountNoise(0.05, 0.2, mount.kp, seed=7)
    fine = 2e-6
    n = int(round(0.21 / fine))
    tg = np.arange(n) * fine
    _, Rp = plant.rotation_path(np.eye(3), plant.pivot_rate(pivot, tg + 0.5 * fine), fine)
    _, Rm = plant.rotation_path(np.eye(3), plant.mount_rate(mount, tg + 0.5 * fine), fine)

    def world_pos(i):
        pos, _, _ = plant.mount_translation(mount, noise, i * fine, plant.noise_basis(i * fine))
        return Rp[i] @ pos

    # the harness's own sensor formulas, on one sample
    i0 = int(round(0.2 / fine))
    t0 = i0 * fine
    pos, vel, acc = plant.mount_translation(mount, noise, t0, plant.noise_basis(t0))
    w0, a0 = plant.pivot_rate(pivot, t0), plant.pivot_accel(pivot, t0)
    ya = plant.accel_stream(Rp[i0], w0, a0, pos, vel, acc, Rm[i0], g0)
    errs = []
    for h_steps in (500, 250):  # central differences at h = 1e-3 and 5e-4
        h = h_steps * fine
        pdd = (world_pos(i0 + h_steps) - 2.0 * world_pos(i0) + world_pos(i0 - h_steps)) / h**2
        ya_fd = (Rp[i0] @ Rm[i0]).T @ (g0 * EZ + pdd)
        errs.append(float(np.abs(ya - ya_fd).max()))
    ratio = errs[0] / errs[1]

    rng = np.random.default_rng(31)
    gyro_gap = 0.0
    for _ in range(20):
        Rp_k = rotation_exp(rng.standard_normal(3))
        w_k = rng.standard_normal(3)
        Rm_k = rotation_exp(rng.standard_normal(3))
        wm_k = rng.standard_normal(3)
        rate = plant.pivot_rate_from_gyro(plant.gyro_stream(Rp_k, w_k, Rm_k, wm_k), Rm_k, wm_k)
        gyro_gap = max(gyro_gap, float(np.abs(rate - Rp_k.T @ w_k).max()))
    criterion(
        9,
        errs[0] < 5e-5 and 3.0 < ratio < 5.0 and gyro_gap < 1e-12,
        f"accelerometer model within {errs[0]:.1e} of a position second "
        f"difference, halving h shrinks it {ratio:.2f}x; gyro extraction "
        f"inverts to {gyro_gap:.1e}",
    )


def test_criterion_10_yaw_invariance(reference_run, criterion):
    cfg = ExperimentConfig()
    cfg.pivot.world_rotvec = np.array([0.0, 0.0, 1.1])
    spun = run_simulation(cfg)
    base = reference_run
    gap = max(
        float(np.abs(base.gyro - spun.gyro).max()),
        float(np.abs(base.accel - spun.accel).max()),
        float(np.abs(base.tilt_est - spun.tilt_est).max()),
        float(np.abs(base.tilt_err - spun.tilt_err).max()),
    )
    criterion(
        10,
        gap < 1e-12,
        f"a 1.1 rad spin of the world about gravity moves measurements and "
        f"estimates by at most {gap:.1e}",
    )


def test_criterion_11_noisy_robustness(noisy_run, criterion):
    log = noisy_run
    tail = np.linalg.norm(log.tilt_err[log.t >= 1.5], axis=1)
    steady = np.linalg.norm(log.tilt_err[(log.t >= 3.0) & (log.t <= 10.0)], axis=1)
    rms = float(np.sqrt(np.mean(steady**2)))
    worst = float(tail.max())
    # 0.004 pins the first reference run of this scenario; a regression bar,
    # not a theoretical one
    criterion(
        11,
        worst < 0.1 and rms < 0.004,
        f"gyro noise 0.04, accel noise 0.2: tilt error under 0.1 from 1.5 s on "
        f"(worst {worst:.3f}); steady rms over [3, 10] s = {rms:.5f} < 0.004",
    )

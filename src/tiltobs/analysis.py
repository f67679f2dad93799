"""Error-space analysis of the tilt observer.

Everything here lives in *world-frame error coordinates*: the velocity error
``verr`` (any vector in R^3) and the tilt error ``terr``, constrained to the
sphere of unit vectors around ``e_z`` (``|e_z - terr| = 1``).  In these
coordinates the closed-loop error dynamics are autonomous:

    verr' = -alpha * verr + g0 * terr
    terr' =  beta * S(w) S(w) verr,      w = e_z - terr

with ``S(w)`` the cross-product matrix, so the observer's convergence can be
studied independently of any particular robot motion.  The module provides
the vector field, its Lyapunov function with a closed-form decay rate, the
two equilibria with their linearizations, an exponential convergence bound,
and the error flow, the one product of these dynamics: ``analyze`` grades
it mark by mark as it runs (:func:`stability_report` gathers the facts of a
gain set, its basin sample included) and ``error-ode`` writes the marks of
one start.
The flow has no loop of its own: these dynamics are the observer at rest, so
it runs :func:`observer.run_observer`, the loop the closed-loop simulation
runs too, on rest inputs: on Python floats for one start and on (B,) arrays
for a batch.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .observer import ObserverGains, run_observer

EZ = np.array([0.0, 0.0, 1.0])

# (verr, terr) = this minus (vel_est, tilt_est): -0.0 - v is -v bit for bit,
# signed zeros included
_ERROR_ORIGIN = np.array([-0.0, -0.0, -0.0, *EZ])[:, None]

# how far |e_z - terr| may deviate from 1 before a point is rejected
MANIFOLD_TOL = 1e-9

# RK4's stability limit on the negative real axis (the root of
# 1 + z + z^2/2 + z^3/6 + z^4/24 = 1 is z = -2.7853), rounded down
RK4_REAL_LIMIT = 2.785

# the most steps one run may take: 1000 s at the default 1 ms step.  A
# `simulate` of configs/noisy.cfg peaks at about 47 MB RSS at 10^5 steps and
# 130 MB at 10^6 (Python 3.11, numpy 2.4), so this also bounds its memory.
MAX_STEPS = 10**6

# the most start-steps (basin starts times steps each) one stability report
# may run: 9990 starts of 10^4 steps took 24 s
MAX_BASIN_WORK = 10**8


def step_count(duration: float, dt: float) -> int:
    """Steps of ``dt`` in ``duration``, checked before anything is allocated.

    Raises ``ValueError`` naming ``duration``/``dt`` unless the count is
    finite and, rounded, between 1 and :data:`MAX_STEPS`.
    """
    n = duration / dt if dt > 0.0 else float("inf")
    if not (0.0 <= n <= MAX_STEPS and round(n) >= 1):
        raise ValueError(
            f"duration / dt = {duration!r} / {dt!r} must be a step count "
            f"between 1 and {MAX_STEPS}"
        )
    return int(round(n))


def require_stable_step(gains: ObserverGains, dt: float) -> None:
    """Raise ``ValueError`` naming ``dt`` unless ``alpha*dt`` < :data:`RK4_REAL_LIMIT`."""
    if not gains.alpha * dt < RK4_REAL_LIMIT:
        raise ValueError(f"dt = {dt!r} is too large: alpha*dt = {gains.alpha * dt!r} must be "
                         f"below {RK4_REAL_LIMIT} (RK4 stability limit)")


def record_marks(n_steps: int, record_every: int) -> list:
    """Step indices a run records or grades at: every ``record_every``-th
    step and the last one."""
    marks = list(range(0, n_steps + 1, record_every))
    if marks[-1] != n_steps:
        marks.append(n_steps)
    return marks


def error_field(verr: np.ndarray, terr: np.ndarray, gains: ObserverGains):
    """Right-hand side of the error dynamics.  Broadcasts over leading axes."""
    w = EZ - terr
    dverr = -gains.alpha * verr + gains.g0 * terr
    dterr = gains.beta * np.cross(w, np.cross(w, verr))
    return dverr, dterr


def lyapunov(verr: np.ndarray, terr: np.ndarray, gains: ObserverGains):
    """Energy-like function of the error state; zero only at zero error.

    Quadratic: 0.5*|alpha*verr - g0*terr|^2 + 0.5*g0^2*|terr|^2.
    """
    u = gains.alpha * verr - gains.g0 * terr
    return 0.5 * np.sum(u * u, axis=-1) + 0.5 * gains.g0**2 * np.sum(terr * terr, axis=-1)


def lyapunov_rate(verr: np.ndarray, terr: np.ndarray, gains: ObserverGains):
    """Time derivative of :func:`lyapunov` along the error dynamics.

    Closed form, valid on the tilt-error manifold.  All three terms are
    non-positive whenever the gain ratio is below one, which is what the gain
    condition guarantees.
    """
    a, g = gains.alpha, gains.g0
    r = gains.gain_ratio
    u = a * verr - g * terr
    w = EZ - terr
    uu = np.sum(u * u, axis=-1)
    wu = np.sum(w * u, axis=-1)
    c = w[..., 2]
    return -a * (1.0 - r) * uu - a * r * wu**2 + a * r * g**2 * (c * c - 1.0)


def equilibria(gains: ObserverGains):
    """The two rest points of the error dynamics: zero error, and the
    antipodal point where the tilt estimate is upside down."""
    zero = (np.zeros(3), np.zeros(3))
    flipped = ((2.0 * gains.g0 / gains.alpha) * EZ, 2.0 * EZ)
    return zero, flipped


def linearization(verr: np.ndarray, terr: np.ndarray, gains: ObserverGains) -> np.ndarray:
    """6x6 Jacobian of the error dynamics at (verr, terr), verr block first."""
    a, b, g = gains.alpha, gains.beta, gains.g0
    w = EZ - np.asarray(terr, dtype=float)
    z1 = np.asarray(verr, dtype=float)
    eye = np.eye(3)
    J = np.zeros((6, 6))
    J[:3, :3] = -a * eye
    J[:3, 3:] = g * eye
    J[3:, :3] = b * (np.outer(w, w) - np.dot(w, w) * eye)
    J[3:, 3:] = -b * (np.dot(w, z1) * eye + np.outer(w, z1) - 2.0 * np.outer(z1, w))
    return J


def unstable_root(gains: ObserverGains) -> float:
    """The positive eigenvalue of the flipped-equilibrium linearization.

    Always positive for valid gains, which is why the flipped point repels
    almost every nearby trajectory.
    """
    r = gains.gain_ratio
    return float(0.5 * gains.alpha * (np.sqrt(1.0 + 4.0 * r * r) - (1.0 - 2.0 * r)))


def exponential_bound(v0: float, t, eps: float, gains: ObserverGains):
    """Upper envelope V(t) <= v0 * exp(-rate * t) that holds while the tilt
    error stays in the region |terr|^2 <= 4 (1 - eps).

    ``eps`` must lie in (0, 1]; the decay rate is
    2 * min(1 - r, r * eps) * alpha with r the gain ratio.
    """
    rate = decay_rate(eps, gains)
    return v0 * np.exp(-rate * np.asarray(t, dtype=float))


def decay_rate(eps: float, gains: ObserverGains) -> float:
    """Exponential decay rate of the Lyapunov function for margin ``eps``."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    r = gains.gain_ratio
    return 2.0 * min(1.0 - r, r * eps) * gains.alpha


def convergence_times(t: np.ndarray, err_norms: np.ndarray, threshold: float) -> np.ndarray:
    """First time after which ``err_norms``, (..., M) over the M times ``t``,
    stays below ``threshold``: ``t[0]`` where it never reaches it, ``inf``
    where it is still at or above it at the final sample."""
    above = np.asarray(err_norms, dtype=float) >= threshold
    return _time_after(t, np.where(above, np.arange(above.shape[-1]), -1).max(axis=-1))


def _time_after(t, last):
    """The convergence rule on ``last``, each trajectory's last mark at or above
    the threshold (-1 if none): the time of the next mark, inf if there is none."""
    t = np.asarray(t, dtype=float)
    after = np.asarray(last) + 1
    return np.where(after < len(t), t[np.minimum(after, len(t) - 1)], np.inf)


def grade_batch(flow, gains: ObserverGains, threshold: float):
    """Grade a batch mark by mark as it runs: ``flow`` is ``(t, states)``, an
    :func:`error_flow` or any iterable of (6, B) states at the M times ``t``.

    Returns three (B,) vectors: the time from which
    xi = sqrt(|verr|^2 + |terr|^2) stays below ``threshold`` (inf if it is
    still at or above it at the last mark), the margin 1 - max |terr|^2 / 4,
    and whether V never rises by over 1e-9 * max(1, V[0]).  Holds (B,)
    vectors only, such as each start's last mark at or above ``threshold``."""
    t, states = flow
    # a start that overflows reads inf here until the flow names its mark
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(states):
            verr, terr = e[:3].T, e[3:].T  # (B, 3) views of the (6, B) state
            sq = np.einsum("...i,...i->...", terr, terr)
            V = lyapunov(verr, terr, gains)
            if j == 0:
                last = np.full(len(V), -1)
                top, slack, monotone = sq, 1e-9 * np.maximum(1.0, V), np.ones(len(V), bool)
            else:
                np.maximum(top, sq, out=top)
                monotone &= V - prev <= slack
            prev = V
            last[np.sqrt(sq + np.einsum("...i,...i->...", verr, verr)) >= threshold] = j
    return _time_after(t, last), 1.0 - top / 4.0, monotone


def error_flow(verr0, terr0, gains: ObserverGains, dt: float = 1e-3, duration: float = 10.0,
               record_every: int = 1):
    """The error dynamics from (B, 3) or (3,) starts as a flow of marks:
    ``(t, states)``, the M mark times and a generator of the (6, B) error
    states (``verr`` rows, then ``terr`` rows) at them, each a fresh array;
    a (3,) start gives (6, 1) states.  The flow holds no record: a caller
    that keeps every mark, as ``error-ode`` does, collects it.

    These dynamics are the observer at rest (tilt ``e_z``, zero pivot rate,
    ``vel_meas = 0``, specific force ``g0 * e_z``) with ``vel_est = -verr``
    and ``tilt_est = e_z - terr``, so the flow is :func:`observer.run_observer`
    on rest inputs: on Python floats for one start, on (B,) component arrays
    for a batch.  The tilt error moves along an exact rotation flow, so
    ``|e_z - terr|`` stays 1 to machine precision.

    Every check runs here, before the first step.  Raises ``ValueError`` on
    a non-finite start or one whose ``|e_z - terr|`` is not 1, and unless
    ``alpha * dt`` is below 2.785, RK4's real stability limit
    (:func:`require_stable_step`).  The limit is necessary, not sufficient:
    just under it the Lyapunov function can still rise along some basin
    starts.  Also raises when the step count would be over its cap (see
    :func:`step_count`).  The generator raises ``RuntimeError`` naming the
    first mark whose state is not finite when any start's run overflows,
    such as one from a huge ``verr0``.
    """
    v = np.atleast_2d(np.asarray(verr0, dtype=float))
    u = EZ - np.atleast_2d(np.asarray(terr0, dtype=float))
    if v.shape != u.shape:
        raise ValueError("verr0 and terr0 shapes disagree")
    if not np.isfinite(v).all():
        raise ValueError("verr0 must be finite")
    norms = np.linalg.norm(u, axis=-1)
    if not (np.abs(norms - 1.0) <= MANIFOLD_TOL).all():  # a NaN or inf terr fails too
        raise ValueError("tilt error off manifold: |e_z - terr| must be 1")
    require_stable_step(gains, dt)

    marks = record_marks(step_count(duration, dt), record_every)
    state0 = np.concatenate([-v, u], axis=1).T  # (6, B): (vel_est, tilt_est) components
    rest = repeat((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, gains.g0))
    # one start steps on floats: on (1,) arrays each step costs 50 times more
    states = run_observer(gains, dt, rest, state0[:, 0] if len(u) == 1 else state0, marks)
    return np.array(marks) * dt, (_ERROR_ORIGIN - s.reshape(6, -1) for s in states)


# basin starts are drawn below this share of the flipped equilibrium's V
BASIN_V_FRACTION = 0.99

# sample_basin's draw cap per start: the share it keeps falls like alpha^-3
BASIN_MAX_DRAWS_PER_START = 10**6


def sample_basin(n: int, gains: ObserverGains, rng: np.random.Generator):
    """Draw ``n`` error states with Lyapunov value below
    :data:`BASIN_V_FRACTION` times the value at the flipped equilibrium (the
    guaranteed basin of attraction).

    Rejection sampling: tilt error uniform on its sphere, velocity error
    standard Gaussian, pair rejected if the Lyapunov value is over budget.
    The basin is a Lyapunov sub-level set, not a box, so rejection is the
    shape-faithful way in; the Gaussian keeps the near-boundary shell (tilt
    error close to the repelling point, where escape is arbitrarily slow)
    at the low weight it deserves.  Raises ``ValueError`` once it has drawn
    over :data:`BASIN_MAX_DRAWS_PER_START` candidates per start asked for.
    """
    thr = BASIN_V_FRACTION * 2.0 * gains.g0**2
    verr = np.empty((n, 3))
    terr = np.empty((n, 3))
    got = drawn = 0
    while got < n:
        if drawn > BASIN_MAX_DRAWS_PER_START * n:
            raise ValueError(f"basin sampling at alpha = {gains.alpha!r} kept {got} of "
                             f"{n} starts in {drawn} candidates; the basin is too thin")
        m = max(2 * (n - got), 64)
        drawn += m
        dirs = rng.standard_normal((m, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        z2 = EZ - dirs
        z1 = rng.standard_normal((m, 3))
        keep = lyapunov(z1, z2, gains) < thr
        z1, z2 = z1[keep], z2[keep]
        take = min(len(z1), n - got)
        verr[got : got + take] = z1[:take]
        terr[got : got + take] = z2[:take]
        got += take
    return verr, terr


def stability_report(gains: ObserverGains, dt: float, record_every: int, samples: int,
                     rng: np.random.Generator) -> dict:
    """The facts of the gains, in report order: the field at both equilibria,
    the flipped point's spectrum, then ``samples`` basin starts graded as they
    run for 10 s.  The step, and the work of the basin against
    :data:`MAX_BASIN_WORK`, are checked before the basin is drawn; too much
    work is named as ``--basin-samples``, the flag that sets ``samples``."""
    (v_zero, t_zero), (v_flip, t_flip) = equilibria(gains)
    eig = np.linalg.eigvals(linearization(v_flip, t_flip, gains))
    horizon = 10.0  # seconds each basin start runs
    n_steps = step_count(horizon, dt)
    require_stable_step(gains, dt)  # sample_basin does not check it
    if samples * n_steps > MAX_BASIN_WORK:  # a huge batch fails here, allocating nothing
        raise ValueError(
            f"--basin-samples {samples}: {samples} starts of {n_steps} steps each are "
            f"{samples * n_steps} start-steps, over the cap of {MAX_BASIN_WORK} (about 25 s)"
        )
    verr0, terr0 = sample_basin(samples, gains, rng)
    flow = error_flow(verr0, terr0, gains, dt, horizon, record_every)
    # not below 1e-3 at the horizon: inf, so uncounted, and a quantile it reaches reads "none"
    conv, eps, monotone = grade_batch(flow, gains, 1e-3)
    p50, p90, p99 = np.percentile(conv, [50, 90, 99], method="inverted_cdf").tolist()
    return {
        "gains.alpha": gains.alpha,
        "gains.beta": gains.beta,
        "gains.g0": gains.g0,
        "gain_ratio": gains.gain_ratio,
        "basin_level": 2.0 * gains.g0 ** 2,
        "field_norm_at_zero": float(np.linalg.norm(error_field(v_zero, t_zero, gains))),
        "field_norm_at_flipped": float(np.linalg.norm(error_field(v_flip, t_flip, gains))),
        "flipped_verr_z": float(v_flip[2]),
        "unstable_root": unstable_root(gains),
        "flipped_eigenvalues_real": np.sort(eig.real),
        "basin_samples": samples,
        "basin_converged": int(np.isfinite(conv).sum()),
        "basin_slowest_convergence_s": float(conv.max()),
        "basin_convergence_s.p50": p50,
        "basin_convergence_s.p90": p90,
        "basin_convergence_s.p99": p99,
        "basin_v_monotone": bool(monotone.all()),
        "basin_epsilon_min": float(eps.min()),
    }

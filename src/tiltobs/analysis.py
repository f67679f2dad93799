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
and an integrator of the error dynamics for cross-checks against the full
simulation.  The integrator has no step of its own: these dynamics are the
observer at rest, so it runs :func:`observer.step_floats` on rest-case
inputs, on Python floats for one start and on (B,) arrays for a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .observer import ObserverGains, rotate_twice_arrays, step_floats

EZ = np.array([0.0, 0.0, 1.0])

# how far |e_z - terr| may deviate from 1 before a point is rejected
MANIFOLD_TOL = 1e-9

# RK4's stability limit on the negative real axis (the root of
# 1 + z + z^2/2 + z^3/6 + z^4/24 = 1 is z = -2.7853), rounded down
RK4_REAL_LIMIT = 2.785

# the most steps one run may take: 1000 s at the default 1 ms step.  A
# closed-loop run holds about 2 kB per step, so this also keeps its memory
# near 2 GB.
MAX_STEPS = 10**6

# the most float64 values one error-ODE record may hold (480 MB): 10^4 basin
# starts at 1001 records each.  `analyze` at 9990 starts peaks near 1.2 GB.
MAX_RECORD_VALUES = 6 * 10**7


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


def record_marks(n_steps: int, record_every: int, batch: int = 1) -> list:
    """Step indices an error-ODE run records: every ``record_every``-th step
    and the last one.

    Raises ``ValueError`` naming the batch size when the record, six values
    per start and mark, would be over :data:`MAX_RECORD_VALUES`; nothing is
    allocated before the check.
    """
    marks = list(range(0, n_steps + 1, record_every))
    if marks[-1] != n_steps:
        marks.append(n_steps)
    if len(marks) * 6 * batch > MAX_RECORD_VALUES:
        raise ValueError(
            f"a batch of {batch} starts recorded at {len(marks)} marks is "
            f"{len(marks) * 6 * batch} values, over the cap of {MAX_RECORD_VALUES}"
        )
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


def char_poly_flipped(lam, gains: ObserverGains):
    """Characteristic polynomial of the linearization at the flipped
    equilibrium, evaluated at ``lam`` (scalar or array, may be complex).

    Factored form: lam (lam + alpha) (lam^2 + alpha(1 - 2 r) lam - g0 beta)^2
    with r the gain ratio.
    """
    a, b, g = gains.alpha, gains.beta, gains.g0
    r = gains.gain_ratio
    quad = lam**2 + a * (1.0 - 2.0 * r) * lam - g * b
    return lam * (lam + a) * quad**2


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


def estimate_epsilon(terr) -> float:
    """Margin 1 - |terr|^2/4, minimized over a tilt-error trajectory.

    Raises if the trajectory touches |terr| = 2 (the flipped point), where no
    positive margin exists.
    """
    terr = np.asarray(terr, dtype=float)
    n2 = np.sum(terr * terr, axis=-1)
    eps = 1.0 - float(n2.max()) / 4.0
    if eps <= 0.0:
        raise ValueError("tilt error reaches the flipped equilibrium; no positive margin")
    return eps


def convergence_times(t: np.ndarray, err_norms: np.ndarray, threshold: float) -> np.ndarray:
    """First time after which ``err_norms`` stays below ``threshold``, per
    trajectory: ``err_norms`` is (..., M) over the M times ``t``.

    Gives ``t[0]`` where it never reaches the threshold, NaN where it is
    still at or above it at the final sample.
    """
    t = np.asarray(t, dtype=float)
    above = np.asarray(err_norms, dtype=float) >= threshold
    m = above.shape[-1]
    # the sample after the last one at or above the threshold (0 if none)
    after = np.where(above.any(axis=-1), m - np.argmax(above[..., ::-1], axis=-1), 0)
    return np.where(after < m, t[np.minimum(after, m - 1)], np.nan)


def convergence_time(t: np.ndarray, err_norms: np.ndarray, threshold: float):
    """:func:`convergence_times` of one trajectory: a float, or ``None``
    if it is still at or above the threshold at the final sample."""
    first = float(convergence_times(t, err_norms, threshold))
    return None if np.isnan(first) else first


@dataclass
class ErrorTrajectory:
    """Recorded error-dynamics run: times (M,), states (M, 3) or (B, M, 3)."""

    t: np.ndarray
    verr: np.ndarray
    terr: np.ndarray


def integrate_error_ode(
    verr0,
    terr0,
    gains: ObserverGains,
    dt: float = 1e-3,
    duration: float = 10.0,
    record_every: int = 1,
) -> ErrorTrajectory:
    """Integrate the error dynamics, batched over leading axes.

    These dynamics are the observer at rest (tilt ``e_z``, zero pivot rate,
    ``vel_meas = 0``, specific force ``g0 * e_z``) with ``vel_est = -verr``
    and ``tilt_est = e_z - terr``, so each step is
    :func:`observer.step_floats`: on Python floats for a single start, on
    (B,) component arrays for a batch.  The tilt error moves along an exact
    rotation flow, so ``|e_z - terr|`` stays 1 to machine precision.

    Raises ``ValueError`` on a non-finite start or one whose ``|e_z - terr|``
    is not 1, and unless ``alpha * dt`` is below 2.785, RK4's real stability
    limit, past which the -alpha mode grows without bound.  The limit is
    necessary, not sufficient: just under it the Lyapunov function can still
    rise along some basin starts.  Also raises, before allocating
    anything, when the step count or the record is over its cap (see
    :func:`step_count`, :func:`record_marks`).
    """
    v = np.atleast_2d(np.asarray(verr0, dtype=float))
    terr0 = np.asarray(terr0, dtype=float)
    single = terr0.ndim == 1
    u = EZ - np.atleast_2d(terr0)
    if v.shape != u.shape:
        raise ValueError("verr0 and terr0 shapes disagree")
    if not np.isfinite(v).all():
        raise ValueError("verr0 must be finite")
    norms = np.linalg.norm(u, axis=-1)
    if not (np.abs(norms - 1.0) <= MANIFOLD_TOL).all():  # a NaN or inf terr fails too
        raise ValueError("tilt error off manifold: |e_z - terr| must be 1")
    a, b, g = gains.alpha, gains.beta, gains.g0
    if not a * dt < RK4_REAL_LIMIT:
        raise ValueError(
            f"dt = {dt!r} is too large: alpha*dt = {a * dt!r} must be below "
            f"{RK4_REAL_LIMIT} (RK4 stability limit)"
        )

    marks = record_marks(step_count(duration, dt), record_every, len(u))
    rec = np.empty((len(marks), 6, len(u)))  # (vel_est, tilt_est) components
    rec[0] = np.concatenate([-v, u], axis=1).T
    if len(u) == 1:  # one start: the step on Python floats
        out, s, step = rec[:, :, 0], tuple(rec[0, :, 0].tolist()), step_floats
    else:  # a batch: the same step on (B,) component arrays
        out, s, step = rec, tuple(rec[0]), partial(step_floats, rotate=rotate_twice_arrays)
    for j in range(1, len(marks)):
        for _ in range(marks[j] - marks[j - 1]):
            s = step(a, b, g, dt, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, g, *s)
        out[j] = s

    np.negative(rec[:, :3], out=rec[:, :3])  # in place: the states become errors
    np.subtract(EZ[:, None], rec[:, 3:], out=rec[:, 3:])
    err = rec.transpose(2, 0, 1)  # (B, M, 6)
    if single:
        err = err[0]
    return ErrorTrajectory(t=np.array(marks) * dt, verr=err[..., :3], terr=err[..., 3:])


def sample_basin(
    n: int,
    gains: ObserverGains,
    rng: np.random.Generator,
    v_fraction: float = 0.99,
):
    """Draw ``n`` error states with Lyapunov value below ``v_fraction`` times
    the value at the flipped equilibrium (the guaranteed basin of attraction).

    Rejection sampling: tilt error uniform on its sphere, velocity error
    standard Gaussian, pair rejected if the Lyapunov value is over budget.
    The basin is a Lyapunov sub-level set, not a box, so rejection is the
    shape-faithful way in; the Gaussian keeps the near-boundary shell (tilt
    error close to the repelling point, where escape is arbitrarily slow)
    at the low weight it deserves.
    """
    thr = v_fraction * 2.0 * gains.g0**2
    verr = np.empty((n, 3))
    terr = np.empty((n, 3))
    got = 0
    while got < n:
        m = max(2 * (n - got), 64)
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

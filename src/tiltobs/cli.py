"""Command-line front end.

Four subcommands around the same config format:

* ``simulate``  closed-loop run, writes the series CSV and a report
* ``analyze``   gain-level stability facts plus basin sampling
* ``sweep``     grid of (alpha, beta) cells, one summary row each
* ``error-ode`` integrate the reduced error dynamics directly

Every subcommand takes ``--config`` (defaults apply when absent), ``--out``
(output directory) and ``--seed`` (override the config's seed).  Each is a
handler around the one sequence in :func:`main`, which writes the effective
config next to the outputs once the handler has succeeded, so a run can be
reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import analysis, harness


def _flag(parse):
    """Argparse type from a config value parser: its ``ValueError`` becomes
    a usage error naming the flag."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _float_list(text: str) -> list:
    """Comma-separated finite numbers, at least one; empty items are skipped."""
    values = [harness._parse_float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected at least one number, got {text!r}")
    return values


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """Argparse type for integers >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _read_settings(path) -> harness.ExperimentConfig:
    """A sweep's base config, parsed but not validated: its cells replace
    the gains, and :func:`.harness.build_scene` checks every other key."""
    return harness.parse_settings(Path(path).read_text())


def cmd_simulate(cfg, args, out) -> str:
    log = harness.run_simulation(cfg)
    csv_path = out / cfg.output.csv
    report_path = out / cfg.output.report
    harness.emit_csv(log, csv_path)
    harness.write_report(log, report_path, threshold=args.threshold)
    _, final = harness.grade_tilt(log, args.threshold)
    return (
        f"wrote {csv_path} and {report_path} "
        f"({len(log.t)} rows, final tilt error {final:.3g})"
    )


def cmd_analyze(cfg, args, out) -> str:
    gains = harness.config_gains(cfg)
    (v_zero, t_zero), (v_flip, t_flip) = analysis.equilibria(gains)
    f_zero = float(np.linalg.norm(analysis.error_field(v_zero, t_zero, gains)))
    f_flip = float(np.linalg.norm(analysis.error_field(v_flip, t_flip, gains)))
    lam = analysis.unstable_root(gains)
    eig = np.linalg.eigvals(analysis.linearization(v_flip, t_flip, gains))

    n_steps = analysis.step_count(10.0, cfg.dt)
    try:  # before the basin is drawn: a huge batch fails here, allocating nothing
        analysis.record_marks(n_steps, cfg.decimation, args.basin_samples)
    except ValueError as exc:
        raise ValueError(f"--basin-samples {args.basin_samples}: {exc}") from None
    rng = np.random.default_rng(cfg.seed)
    verr0, terr0 = analysis.sample_basin(args.basin_samples, gains, rng)
    traj = analysis.integrate_error_ode(
        verr0, terr0, gains, duration=10.0, dt=cfg.dt, record_every=cfg.decimation
    )
    # one (B, M) buffer: |terr|^2, then |verr|^2 + |terr|^2, then its root
    sq = np.einsum("...i,...i->...", traj.terr, traj.terr)
    eps = 1.0 - sq.max(axis=1) / 4.0
    sq += np.einsum("...i,...i->...", traj.verr, traj.verr)
    xi = np.sqrt(sq, out=sq)
    converged = int(np.sum(xi[:, -1] < 1e-3))
    # never converged: +inf, so a quantile it reaches reads "none"
    conv = np.nan_to_num(analysis.convergence_times(traj.t, xi, 1e-3), nan=np.inf)
    p50, p90, p99 = np.percentile(conv, [50, 90, 99], method="inverted_cdf").tolist()
    V = analysis.lyapunov(traj.verr, traj.terr, gains)
    dV = np.diff(V, axis=1)
    monotone = bool((dV <= 1e-9 * np.maximum(1.0, V[:, :1])).all())

    path = out / "analysis.txt"
    path.write_text(harness.key_value_text({
        "gains.alpha": gains.alpha,
        "gains.beta": gains.beta,
        "gains.g0": gains.g0,
        "gain_ratio": gains.gain_ratio,
        "basin_level": 2.0 * gains.g0 ** 2,
        "field_norm_at_zero": f_zero,
        "field_norm_at_flipped": f_flip,
        "flipped_verr_z": float(v_flip[2]),
        "unstable_root": lam,
        "flipped_eigenvalues_real": np.sort(eig.real),
        "basin_samples": args.basin_samples,
        "basin_converged": converged,
        "basin_slowest_convergence_s": float(conv.max()),
        "basin_convergence_s.p50": p50,
        "basin_convergence_s.p90": p90,
        "basin_convergence_s.p99": p99,
        "basin_v_monotone": monotone,
        "basin_epsilon_min": float(eps.min()),
    }))
    return f"wrote {path} ({converged}/{args.basin_samples} basin samples converged)"


def cmd_sweep(cfg, args, out) -> str:
    rows = harness.sweep(cfg, args.alphas, args.betas, threshold=args.threshold)
    path = out / "sweep.csv"
    harness.write_sweep_csv(rows, path)
    counts = Counter(r["status"] for r in rows)
    summary = ", ".join(f"{counts[s]} {s}" for s in ("ok", "rejected", "diverged"))
    return f"wrote {path} ({summary} of {len(rows)} cells)"


def cmd_error_ode(cfg, args, out) -> str:
    gains = harness.config_gains(cfg)
    verr0 = cfg.init.vel_err if args.verr0 is None else args.verr0
    if args.terr0 is None:
        raw, name = cfg.init.tilt_err, "init.tilt_err"
    else:
        raw, name = args.terr0, "--terr0"
    # place the tilt error on its sphere the same way the simulator does
    _, terr0 = harness.project_tilt_error(analysis.EZ, raw, name)
    duration = cfg.duration if args.duration is None else args.duration
    dt = cfg.dt if args.dt is None else args.dt
    traj = analysis.integrate_error_ode(
        verr0, terr0, gains, duration=duration, dt=dt, record_every=cfg.decimation
    )
    V = analysis.lyapunov(traj.verr, traj.terr, gains)
    Vdot = analysis.lyapunov_rate(traj.verr, traj.terr, gains)
    path = out / "error_ode.csv"
    harness.write_csv(
        path, harness.ERROR_ODE_HEADER,
        np.column_stack([traj.t, traj.verr, traj.terr, V, Vdot]).tolist(),
    )
    return f"wrote {path} ({len(traj.t)} rows, final V {float(V[-1]):.3g})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltobs",
        description="Tilt observer simulation and stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, read=harness.load_config):
        p.add_argument("--config", help="config file (defaults when absent)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
        p.set_defaults(handler=handler, read=read)

    p = sub.add_parser("simulate", help="closed-loop run to CSV and report")
    common(p, cmd_simulate)
    p.add_argument("--threshold", type=_positive_float, default=0.05,
                   help="tilt-error norm defining convergence in the report")

    p = sub.add_parser("analyze", help="stability facts and basin sampling")
    common(p, cmd_analyze)
    p.add_argument("--basin-samples", type=_int_at_least(1), default=200,
                   help="random starts drawn inside the guaranteed basin")

    p = sub.add_parser("sweep", help="grid over gains, one row per cell")
    common(p, cmd_sweep, read=_read_settings)
    p.add_argument("--alphas", type=_flag(_float_list), required=True,
                   help="comma-separated alpha values")
    p.add_argument("--betas", type=_flag(_float_list), required=True,
                   help="comma-separated beta values")
    p.add_argument("--threshold", type=_positive_float, default=0.05,
                   help="tilt-error norm defining convergence")

    p = sub.add_parser("error-ode", help="integrate the error dynamics directly")
    common(p, cmd_error_ode)
    p.add_argument("--verr0", type=_flag(harness._parse_vec),
                   help="initial velocity error, x,y,z")
    p.add_argument("--terr0", type=_flag(harness._parse_vec), help="initial tilt error, x,y,z "
                   "(projected onto the unit-estimate sphere)")
    p.add_argument("--duration", type=_positive_float, help="override config duration")
    p.add_argument("--dt", type=_positive_float, help="override config step")

    return parser


def main(argv=None) -> int:
    """Load the config, apply ``--seed``, make ``--out``, run the command, then
    save ``effective.cfg``: a run that fails saves nothing."""
    args = build_parser().parse_args(argv)
    try:
        cfg = harness.ExperimentConfig() if args.config is None else args.read(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = args.handler(cfg, args, out)
        harness.save_config(cfg, out / "effective.cfg")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

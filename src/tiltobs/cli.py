"""Command-line front end.

Four subcommands around the same config format:

* ``simulate``  closed-loop run, writes the series CSV and a report
* ``analyze``   gain-level stability facts plus basin sampling
* ``sweep``     grid of (alpha, beta) cells, one summary row each
* ``error-ode`` integrate the reduced error dynamics directly

Every subcommand takes ``--config`` (defaults apply when absent), ``--out``
(output directory) and ``--seed`` (override the config's seed), and writes
the effective config next to its outputs so a run can be reproduced from its
artifacts alone.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import analysis, harness
from .observer import make_gains

ERROR_ODE_HEADER = "t,verr_x,verr_y,verr_z,terr_x,terr_y,terr_z,V,Vdot"


def _parse_floats(text: str):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"expected at least one number, got {text!r}")
    return values


def _parse_vec3(text: str) -> np.ndarray:
    values = _parse_floats(text)
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {text!r}")
    return np.array(values)


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


def _load(args) -> harness.ExperimentConfig:
    if args.config is None:
        cfg = harness.ExperimentConfig()
    else:
        cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    log = harness.run_simulation(cfg)
    csv_path = out / cfg.output.csv
    report_path = out / cfg.output.report
    harness.emit_csv(log, csv_path)
    harness.write_report(log, report_path, threshold=args.threshold)
    harness.save_config(cfg, out / "effective.cfg")
    final = float(np.linalg.norm(log.tilt_err[-1]))
    print(
        f"wrote {csv_path} and {report_path} "
        f"({len(log.t)} rows, final tilt error {final:.3g})"
    )
    return 0


def cmd_analyze(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    gains = make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)
    (v_zero, t_zero), (v_flip, t_flip) = analysis.equilibria(gains)
    f_zero = float(np.linalg.norm(analysis.error_field(v_zero, t_zero, gains)))
    f_flip = float(np.linalg.norm(analysis.error_field(v_flip, t_flip, gains)))
    lam = analysis.unstable_root(gains)
    eig = np.linalg.eigvals(analysis.linearization(v_flip, t_flip, gains))

    rng = np.random.default_rng(cfg.seed)
    verr0, terr0 = analysis.sample_basin(args.basin_samples, gains, rng)
    traj = analysis.integrate_error_ode(
        verr0, terr0, gains, duration=10.0, dt=cfg.dt, record_every=max(1, cfg.decimation)
    )
    xi = np.sqrt(
        np.linalg.norm(traj.verr, axis=-1) ** 2
        + np.linalg.norm(traj.terr, axis=-1) ** 2
    )
    converged = int(np.sum(xi[:, -1] < 1e-3))
    reached = xi < 1e-3
    first = np.where(reached.any(axis=1), reached.argmax(axis=1), -1)
    slowest = float(traj.t[first.max()]) if (first >= 0).all() else None
    V = analysis.lyapunov(traj.verr, traj.terr, gains)
    dV = np.diff(V, axis=1)
    monotone = bool((dV <= 1e-9 * np.maximum(1.0, V[:, :1])).all())
    eps = 1.0 - np.linalg.norm(traj.terr, axis=-1).max(axis=1) ** 2 / 4.0

    lines = [
        f"gains.alpha = {gains.alpha!r}",
        f"gains.beta = {gains.beta!r}",
        f"gains.g0 = {gains.g0!r}",
        f"gain_ratio = {gains.gain_ratio!r}",
        f"basin_level = {2.0 * gains.g0 ** 2!r}",
        f"field_norm_at_zero = {f_zero!r}",
        f"field_norm_at_flipped = {f_flip!r}",
        f"flipped_verr_z = {float(v_flip[2])!r}",
        f"unstable_root = {lam!r}",
        f"flipped_eigenvalues_real = "
        + ", ".join(repr(float(x)) for x in sorted(eig.real)),
        f"basin_samples = {args.basin_samples}",
        f"basin_converged = {converged}",
        f"basin_slowest_convergence_s = {'none' if slowest is None else repr(slowest)}",
        f"basin_v_monotone = {monotone}",
        f"basin_epsilon_min = {float(eps.min())!r}",
    ]
    path = out / "analysis.txt"
    path.write_text("\n".join(lines) + "\n")
    harness.save_config(cfg, out / "effective.cfg")
    print(f"wrote {path} ({converged}/{args.basin_samples} basin samples converged)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    alphas = _parse_floats(args.alphas)
    betas = _parse_floats(args.betas)
    rows = harness.sweep(cfg, alphas, betas, threshold=args.threshold)
    path = out / "sweep.csv"
    harness.write_sweep_csv(rows, path)
    harness.save_config(cfg, out / "effective.cfg")
    counts = Counter(r["status"] for r in rows)
    summary = ", ".join(f"{counts[s]} {s}" for s in ("ok", "rejected", "diverged"))
    print(f"wrote {path} ({summary} of {len(rows)} cells)")
    return 0


def cmd_error_ode(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    gains = make_gains(cfg.gains.alpha, cfg.gains.beta, cfg.gains.g0)

    verr0 = _parse_vec3(args.verr0) if args.verr0 else np.asarray(cfg.init.vel_err, float)
    raw = _parse_vec3(args.terr0) if args.terr0 else np.asarray(cfg.init.tilt_err, float)
    # place the tilt error on its sphere the same way the simulator does
    direction = analysis.EZ - raw
    n = float(np.linalg.norm(direction))
    if n < 1e-12:
        raise ValueError("tilt error places the estimate at the zero vector")
    terr0 = analysis.EZ - direction / n

    duration = args.duration if args.duration is not None else cfg.duration
    dt = args.dt if args.dt is not None else cfg.dt
    traj = analysis.integrate_error_ode(
        verr0, terr0, gains, duration=duration, dt=dt,
        record_every=max(1, cfg.decimation),
    )
    V = analysis.lyapunov(traj.verr, traj.terr, gains)
    Vdot = analysis.lyapunov_rate(traj.verr, traj.terr, gains)
    cols = np.column_stack([traj.t, traj.verr, traj.terr, V, Vdot])
    lines = [ERROR_ODE_HEADER]
    lines.extend(
        ",".join(harness.format_number(v) for v in row) for row in cols
    )
    path = out / "error_ode.csv"
    path.write_text("\n".join(lines) + "\n")
    harness.save_config(cfg, out / "effective.cfg")
    print(f"wrote {path} ({len(traj.t)} rows, final V {float(V[-1]):.3g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltobs",
        description="Tilt observer simulation and stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (defaults when absent)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")

    p = sub.add_parser("simulate", help="closed-loop run to CSV and report")
    common(p)
    p.add_argument("--threshold", type=_positive_float, default=0.05,
                   help="tilt-error norm defining convergence in the report")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("analyze", help="stability facts and basin sampling")
    common(p)
    p.add_argument("--basin-samples", type=_int_at_least(1), default=200,
                   help="random starts drawn inside the guaranteed basin")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep", help="grid over gains, one row per cell")
    common(p)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--betas", required=True, help="comma-separated beta values")
    p.add_argument("--threshold", type=_positive_float, default=0.05,
                   help="tilt-error norm defining convergence")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("error-ode", help="integrate the error dynamics directly")
    common(p)
    p.add_argument("--verr0", help="initial velocity error, x,y,z")
    p.add_argument("--terr0", help="initial tilt error, x,y,z "
                   "(projected onto the unit-estimate sphere)")
    p.add_argument("--duration", type=_positive_float, help="override config duration")
    p.add_argument("--dt", type=_positive_float, help="override config step")
    p.set_defaults(handler=cmd_error_ode)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

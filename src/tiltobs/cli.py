"""Command-line front end.

Four subcommands around the same config format:

* ``simulate``  closed-loop run, writes the series CSV and a report
* ``analyze``   gain-level stability facts plus basin sampling
* ``sweep``     grid of (alpha, beta) cells, one summary row each
* ``error-ode`` integrate the reduced error dynamics directly

Every subcommand takes ``--config`` (defaults apply when absent), ``--out``
(output directory) and ``--seed`` (override the config's seed).  Each is a
handler that writes nothing: it returns its files as ``{file name: text}``
and the detail of its summary line.  :func:`main` alone writes, once the
handler has succeeded: the files and the effective config beside them, so a
run can be reproduced from its artifacts alone.
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


def cmd_simulate(cfg, args):
    log = harness.run_simulation(cfg)
    report = harness.run_report(log, args.threshold)
    files = {cfg.output.csv: harness.run_csv(log),
             cfg.output.report: harness.key_value_text(report)}
    return files, f"{len(log.t)} rows, final tilt error {report['tilt_err_final_norm']:.3g}"


def cmd_analyze(cfg, args):
    gains, n = harness.config_gains(cfg), args.basin_samples
    facts = analysis.stability_report(gains, cfg.dt, cfg.decimation, n,
                                      np.random.default_rng(cfg.seed))
    files = {"analysis.txt": harness.key_value_text(facts)}
    return files, f"{facts['basin_converged']}/{n} basin samples converged"


def cmd_sweep(cfg, args):
    rows = harness.sweep(cfg, args.alphas, args.betas, threshold=args.threshold)
    counts = Counter(r["status"] for r in rows)
    summary = ", ".join(f"{counts[s]} {s}" for s in ("ok", "rejected", "diverged"))
    files = {"sweep.csv": harness.csv_text(harness.SWEEP_HEADER, (r.values() for r in rows))}
    return files, f"{summary} of {len(rows)} cells"


def cmd_error_ode(cfg, args):
    gains = harness.config_gains(cfg)
    name = "init.tilt_err" if args.terr0 is None else "--terr0"
    # each flag given replaces its config key, so effective.cfg reruns this run
    for section, key, flag in ((cfg, "duration", args.duration), (cfg, "dt", args.dt),
                               (cfg.init, "vel_err", args.verr0),
                               (cfg.init, "tilt_err", args.terr0)):
        if flag is not None:
            setattr(section, key, flag)
    harness.validate_config(cfg)  # the flags are held to their keys' bounds
    # place the tilt error on its sphere the same way the simulator does
    _, terr0 = harness.project_tilt_error(analysis.EZ, cfg.init.tilt_err, name)
    t, states = analysis.error_flow(cfg.init.vel_err, terr0, gains, dt=cfg.dt,
                                    duration=cfg.duration, record_every=cfg.decimation)
    err = np.fromiter(states, dtype=(float, (6, 1)), count=len(t))[..., 0]  # verr, terr
    V = analysis.lyapunov(err[:, :3], err[:, 3:], gains)
    Vdot = analysis.lyapunov_rate(err[:, :3], err[:, 3:], gains)
    files = {"error_ode.csv": harness.csv_text(harness.ERROR_ODE_HEADER,
                                               np.column_stack([t, err, V, Vdot]))}
    return files, f"{len(t)} rows, final V {float(V[-1]):.3g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltobs",
        description="Tilt observer simulation and stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--config", help="config file (defaults when absent)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
        p.set_defaults(handler=handler)

    p = sub.add_parser("simulate", help="closed-loop run to CSV and report")
    common(p, cmd_simulate)
    p.add_argument("--threshold", type=_positive_float, default=harness.TILT_THRESHOLD,
                   help="tilt-error norm defining convergence in the report")

    p = sub.add_parser("analyze", help="stability facts and basin sampling")
    common(p, cmd_analyze)
    p.add_argument("--basin-samples", type=_int_at_least(1), default=200,
                   help="random starts drawn inside the guaranteed basin")

    p = sub.add_parser("sweep", help="grid over gains, one row per cell")
    common(p, cmd_sweep)
    p.add_argument("--alphas", type=_flag(_float_list), required=True,
                   help="comma-separated alpha values")
    p.add_argument("--betas", type=_flag(_float_list), required=True,
                   help="comma-separated beta values")
    p.add_argument("--threshold", type=_positive_float, default=harness.TILT_THRESHOLD,
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
    """Load the config, apply ``--seed`` and run the command; only once it has
    succeeded, make ``--out`` and write the command's files and
    ``effective.cfg`` there, so a failed run makes and writes nothing."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = (harness.ExperimentConfig() if args.config is None
               else harness.load_config(args.config))
        if args.seed is not None:
            cfg.seed = args.seed
        files, detail = args.handler(cfg, args)
        summary = f"wrote {' and '.join(str(out / name) for name in files)} ({detail})"
        out.mkdir(parents=True, exist_ok=True)
        for name, text in {**files, harness.EFFECTIVE_CONFIG: harness.config_text(cfg)}.items():
            (out / name).write_text(text)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

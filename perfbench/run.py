"""Benchmark runner: drives one CLI command in-process, back to back.

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 30 --trace 0

A closed loop: one caller in one single-threaded process runs an invocation
of ``tiltobs.cli.main``, checks what it wrote, and starts the next one, until
the next would end past ``--seconds``.  Every invocation gets the same
arguments, derived from ``--seed``.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
``--trace 1`` reports the per-layer metrics: it alternates untraced
invocations with invocations under the span wrappers of ``tracer.py``, and
on ``sweep`` adds one single-threaded sweep of the same grid as a baseline.

The last line of standard output is the JSON result.  The line before it is
a JSON detail record: sample counts, the tail percentile of wall_s, failed
checks, unresolved trace sites and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = workloads.ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def setup_times(workload: str, seed: int) -> list:
    """Fresh-process seconds from interpreter start to the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT,
        ) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        times.append(t1 - t0)
    return times


class Loop:
    """Back-to-back invocations of one workload's command."""

    def __init__(self, cli, workload, prepared, seed: int, out: Path):
        self.cli = cli
        self.workload = workload
        self.prepared = prepared
        self.seed = seed
        self.out = out
        self.argv = prepared.argv + ["--out", str(out)]
        self.attempted = 0
        self.problems = []  # one entry per failed operation
        # peak RSS once the first invocation is done (KiB on Linux): what a
        # CLI process running the command once reaches.  Later invocations
        # only add heap fragmentation, which grows with their number.
        self.first_peak_kb = None

    def invoke(self) -> float:
        """Run and check one invocation; return its wall seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # the loop must go on and count it
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        if self.first_peak_kb is None:
            self.first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.check(f"exit {code}" if code != 0 else None)
        return wall

    def output_bytes(self) -> int:
        """Size of the files the last invocation wrote."""
        if not self.out.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, failure=None):
        """Count one operation, failed with ``failure`` or by its output check."""
        self.attempted += 1
        if failure is None:
            try:
                found = self.workload.check(self.out, self.seed, self.prepared.expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [f"output unreadable: {type(exc).__name__}: {exc}"]
            failure = "; ".join(found) or None
        if failure is not None:
            self.problems.append(failure)

    def run_for(self, seconds: float) -> list:
        """Invoke until the next invocation would end past ``seconds``
        (at least once); return the wall time of each."""
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.invoke())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > seconds:
                return walls


def wall_detail(walls: list) -> dict:
    """Median with its sample count, and the highest percentile that has at
    least ten samples beyond it when that is above the median."""
    n = len(walls)
    detail = {"median": statistics.median(walls), "n": n, "samples": walls}
    if n > 20:
        detail["tail"] = {"percentile": 100 * (n - 10) // n, "value": sorted(walls)[n - 11]}
    return detail


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced(loop: Loop, args) -> tuple:
    setup = setup_times(args.workload, args.seed)
    walls = loop.run_for(args.seconds)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(loop.first_peak_kb / 1024.0, "MB"),
    }
    return metrics, {"wall_s": wall_detail(walls), "setup_s": setup}


def serial_sweep(loop: Loop, harness):
    """Seconds for the workload's grid through ``harness.sweep`` on one
    thread, checked like an invocation's output; None when the program's
    sweep takes no ``max_workers``."""
    if "max_workers" not in inspect.signature(harness.sweep).parameters:
        return None
    cfg = harness.ExperimentConfig()
    cfg.seed = loop.seed
    t0 = time.perf_counter()
    try:
        rows = harness.sweep(cfg, workloads.SWEEP_ALPHAS, workloads.SWEEP_BETAS, max_workers=1)
    except (ValueError, RuntimeError) as exc:
        loop.check(f"serial sweep: {exc}")
        return None
    seconds = time.perf_counter() - t0
    shutil.rmtree(loop.out, ignore_errors=True)
    loop.out.mkdir(parents=True)
    harness.write_sweep_csv(rows, loop.out / "sweep.csv")
    loop.check()
    return seconds


def traced(loop: Loop, harness, args) -> tuple:
    """Alternate untraced and traced invocations, so that both see the same
    machine conditions, until the next pair would end past ``--seconds``."""
    tr = tracer.Tracer()
    plain, walls, written = [], [], 0
    start = time.perf_counter()
    while True:
        plain.append(loop.invoke())
        tr.install()
        try:
            walls.append(loop.invoke())
        finally:
            tr.uninstall()
        written += loop.output_bytes()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    serial = serial_sweep(loop, harness) if args.workload == "sweep" else None

    n = len(walls)
    stats, min_self, covered = tr.summary()
    counts = tr.counts
    m = {}
    for name, st in stats.items():
        m[f"{name}.calls"] = metric(st["calls"] / n, "count")
        m[f"{name}.self_s"] = metric(st["self"] / n, "s")
        m[f"{name}.busy_s"] = metric(st["busy"] / n, "s")

    step = stats["observer.observer_step"]
    m["observer.observer_step.us_per_call"] = metric(
        1e6 * step["self"] / step["calls"] if step["calls"] else 0.0, "us")
    ode = stats["analysis.integrate_error_ode"]
    traj_steps = counts.get(("analysis.integrate_error_ode", "traj_steps"), 0)
    m["analysis.integrate_error_ode.traj_steps"] = metric(traj_steps / n, "count")
    m["analysis.integrate_error_ode.ns_per_traj_step"] = metric(
        1e9 * ode["total"] / traj_steps if traj_steps else 0.0, "ns")
    candidates = counts.get(("analysis.sample_basin", "candidates"), 0)
    m["analysis.sample_basin.accept_ratio"] = metric(
        counts.get(("analysis.sample_basin", "kept"), 0) / candidates if candidates else 0.0,
        "ratio")
    m["plant.MountNoise.samples"] = metric(counts.get(("plant.MountNoise", "samples"), 0) / n,
                                           "count")
    m["harness.emit_csv.bytes"] = metric(counts.get(("harness.emit_csv", "bytes"), 0) / n, "B")
    m["cli.main.bytes_written"] = metric(written / n, "B")
    for key in ("cells_ok", "cells_rejected"):
        m[f"harness.sweep.{key}"] = metric(counts.get(("harness.sweep", key), 0) / n, "count")
    pooled = statistics.median(plain)
    m["harness.sweep.serial_s"] = metric(serial or 0.0, "s")
    m["harness.sweep.thread_speedup"] = metric(serial / pooled if serial else 0.0, "ratio")
    m["trace.overhead_s"] = metric(statistics.median(walls) - pooled, "s")
    m["trace.coverage"] = metric(covered / sum(walls), "ratio")

    if min_self < -1e-9:
        loop.problems.append(f"negative self time {min_self}")
    detail = {
        "untraced_wall_s": wall_detail(plain),
        "traced_wall_s": wall_detail(walls),
        "min_span_self_s": min_self,
        "spans_recorded": len(tr.spans),
        "sites_missing": tr.missing,
    }
    return m, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, harness = workloads.import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        loop = Loop(cli, workload, workload.prepare(harness, args.seed), args.seed, out)
        if args.trace:
            metrics, detail = traced(loop, harness, args)
        else:
            metrics, detail = untraced(loop, args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=loop.problems[:5], environment=environment())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": len(loop.problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

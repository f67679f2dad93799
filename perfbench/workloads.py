"""The benchmark's four workloads, one per CLI command.

Each workload turns the seed into the command's arguments (``prepare``) and
checks what one invocation wrote (``check``).  A check returns a list of
problems; an empty list means the output is correct.  Checks parse numbers
rather than compare text, and their tolerances admit roundoff-level changes
(about 1e-14) while catching a changed algorithm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NOISY_CFG = ROOT / "configs" / "noisy.cfg"

EZ = np.array([0.0, 0.0, 1.0])

SIMULATE_HEADER = (
    "t,x2_x,x2_y,x2_z,x2hat_x,x2hat_y,x2hat_z,"
    "x1err_x,x1err_y,x1err_z,x2err_x,x2err_y,x2err_z,"
    "V,Vdot,ya_x,ya_y,ya_z,yg_x,yg_y,yg_z"
)
SWEEP_HEADER = "alpha,beta,status,gain_ratio,convergence_time,final_tilt_err_norm"
ERROR_ODE_HEADER = "t,verr_x,verr_y,verr_z,terr_x,terr_y,terr_z,V,Vdot"

BASIN_SAMPLES = 1000
SWEEP_ALPHAS = (5.0, 10.0, 19.8, 30.0)
SWEEP_BETAS = (1.0, 5.0, 10.0, 20.0)

# simulate, seed 0: the criterion-11 run
SEED0_TILT_ERR_FINAL = 0.0019159412362174356
SEED0_STEADY_RMS_BAR = 0.004
TAIL_BAR = 0.1  # criterion 11: tilt error under this from 1.5 s on
REL_TOL = 1e-6
# error-ode starts are drawn below this share of the flipped point's V, and
# must end below ERROR_ODE_FINAL_V after the configured 10 s
ERROR_ODE_START_SHARE = 0.9
ERROR_ODE_FINAL_V = 1e-12


def import_program():
    """Import the package from this checkout's ``src`` and return its ``cli``
    and ``harness`` modules.

    Raises ``RuntimeError`` when the sources are missing, so the benchmark
    never measures some other installed copy.
    """
    package = SRC / "tiltobs"
    if not (package / "__init__.py").is_file():
        raise RuntimeError(f"no package sources at {package}")
    sys.path.insert(0, str(SRC))
    from tiltobs import cli, harness

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported tiltobs from {cli.__file__}, not from {package}")
    return cli, harness


@dataclass
class Prepared:
    """Arguments of one workload's command (without ``--out``) plus what its
    check needs to know."""

    argv: list
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (harness, seed) -> Prepared
    check: Callable  # (out_dir, seed, expect) -> list of problems


def _key_values(path: Path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def _read_csv(path: Path, header: str, rows: int):
    """Numeric body of a CSV with the given header and row count, or a problem."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return None, f"{path.name}: header is {lines[:1]}, expected {header!r}"
    width = header.count(",") + 1
    try:
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return None, f"{path.name}: unparsable number ({exc})"
    if data.shape != (rows, width):
        return None, f"{path.name}: shape {data.shape}, expected {(rows, width)}"
    if not np.isfinite(data).all():
        return None, f"{path.name}: non-finite values"
    return data, None


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


# ---------------------------------------------------------------------------
# simulate


def prepare_simulate(harness, seed: int) -> Prepared:
    cfg = harness.load_config(NOISY_CFG)
    n_rows = int(round(cfg.duration / cfg.dt)) // cfg.decimation + 1
    return Prepared(
        argv=["simulate", "--config", str(NOISY_CFG), "--seed", str(seed)],
        expect={"csv": cfg.output.csv, "report": cfg.output.report, "rows": n_rows},
    )


def check_simulate(out: Path, seed: int, expect: dict) -> list:
    data, problem = _read_csv(out / expect["csv"], SIMULATE_HEADER, expect["rows"])
    if problem:
        return [problem]
    problems = []
    cols = SIMULATE_HEADER.split(",")
    t = data[:, 0]
    i = cols.index("x2err_x")
    err = np.linalg.norm(data[:, i : i + 3], axis=1)
    tail = float(err[t >= 1.5].max())
    if not tail < TAIL_BAR:
        problems.append(f"tilt error {tail} from 1.5 s on, bar {TAIL_BAR}")
    final = float(_key_values(out / expect["report"])["tilt_err_final_norm"])
    if not _close(final, float(err[-1])):
        problems.append(f"report tilt_err_final_norm {final} disagrees with CSV {err[-1]}")
    if seed == 0:
        steady = err[(t >= 3.0) & (t <= 10.0)]
        rms = float(np.sqrt(np.mean(steady**2)))
        if not rms < SEED0_STEADY_RMS_BAR:
            problems.append(f"seed 0 steady rms {rms}, bar {SEED0_STEADY_RMS_BAR}")
        if not _close(final, SEED0_TILT_ERR_FINAL):
            problems.append(f"seed 0 tilt_err_final_norm {final}, stored {SEED0_TILT_ERR_FINAL}")
    return problems


# ---------------------------------------------------------------------------
# analyze


def prepare_analyze(harness, seed: int) -> Prepared:
    return Prepared(
        argv=["analyze", "--basin-samples", str(BASIN_SAMPLES), "--seed", str(seed)],
        expect={},
    )


def check_analyze(out: Path, seed: int, expect: dict) -> list:
    facts = _key_values(out / "analysis.txt")
    problems = []
    if facts.get("basin_converged") != str(BASIN_SAMPLES):
        problems.append(f"basin_converged = {facts.get('basin_converged')}, expected {BASIN_SAMPLES}")
    if facts.get("basin_v_monotone") != "True":
        problems.append(f"basin_v_monotone = {facts.get('basin_v_monotone')}")
    return problems


# ---------------------------------------------------------------------------
# sweep


def _csv_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def prepare_sweep(harness, seed: int) -> Prepared:
    cfg = harness.ExperimentConfig()
    return Prepared(
        argv=["sweep", "--alphas", _csv_floats(SWEEP_ALPHAS),
              "--betas", _csv_floats(SWEEP_BETAS), "--seed", str(seed)],
        expect={"g0": cfg.gains.g0},
    )


def check_sweep(out: Path, seed: int, expect: dict) -> list:
    lines = (out / "sweep.csv").read_text().splitlines()
    grid = [(a, b) for a in SWEEP_ALPHAS for b in SWEEP_BETAS]
    if not lines or lines[0] != SWEEP_HEADER or len(lines) != len(grid) + 1:
        return [f"sweep.csv: header {lines[:1]} and {len(lines) - 1} rows, expected {len(grid)}"]
    g0 = expect["g0"]
    problems = []
    for line, (a, b) in zip(lines[1:], grid):
        alpha, beta, status, ratio, _, final = line.split(",")
        if (float(alpha), float(beta)) != (a, b):
            problems.append(f"sweep row {line!r}: expected cell ({a}, {b})")
            continue
        expected = "rejected" if b * g0 >= a * a else "ok"
        if status != expected:
            problems.append(f"sweep cell ({a}, {b}): status {status}, expected {expected}")
        elif status == "ok":
            if not math.isfinite(float(final)):
                problems.append(f"sweep cell ({a}, {b}): final_tilt_err_norm {final}")
            if not _close(float(ratio), b * g0 / (a * a)):
                problems.append(f"sweep cell ({a}, {b}): gain_ratio {ratio}")
    return problems


# ---------------------------------------------------------------------------
# error-ode


def basin_start(seed: int, gains):
    """A (verr0, terr0) start drawn from the seed inside the guaranteed basin:
    tilt error uniform on its sphere, velocity error standard normal,
    rejected until the Lyapunov value is under a share of the flipped
    point's."""
    rng = np.random.default_rng(seed)
    alpha, g0 = gains.alpha, gains.g0
    level = ERROR_ODE_START_SHARE * 2.0 * g0**2
    while True:
        d = rng.standard_normal(3)
        terr = EZ - d / np.linalg.norm(d)
        verr = rng.standard_normal(3)
        u = alpha * verr - g0 * terr
        if 0.5 * u @ u + 0.5 * g0**2 * terr @ terr < level:
            return verr, terr


def prepare_error_ode(harness, seed: int) -> Prepared:
    cfg = harness.ExperimentConfig()
    verr0, terr0 = basin_start(seed, cfg.gains)
    n_rows = int(round(cfg.duration / cfg.dt)) // cfg.decimation + 1
    return Prepared(
        argv=["error-ode", f"--verr0={_csv_floats(verr0)}", f"--terr0={_csv_floats(terr0)}",
              "--seed", str(seed)],
        expect={"verr0": verr0, "terr0": terr0, "rows": n_rows},
    )


def check_error_ode(out: Path, seed: int, expect: dict) -> list:
    data, problem = _read_csv(out / "error_ode.csv", ERROR_ODE_HEADER, expect["rows"])
    if problem:
        return [problem]
    problems = []
    start = np.concatenate([expect["verr0"], expect["terr0"]])
    if np.abs(data[0, 1:7] - start).max() > 1e-7:
        problems.append(f"error-ode first row {data[0, 1:7]}, start {start}")
    off = np.abs(np.linalg.norm(EZ - data[:, 4:7], axis=1) - 1.0).max()
    if off > 1e-7:
        problems.append(f"error-ode tilt error leaves its sphere by {off}")
    V = data[:, 7]
    if (np.diff(V) > 1e-9 * max(1.0, V[0])).any():
        problems.append("error-ode V rises")
    if not V[-1] < ERROR_ODE_FINAL_V:
        problems.append(f"error-ode final V {V[-1]}, bar {ERROR_ODE_FINAL_V}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate", prepare_simulate, check_simulate),
        Workload("analyze", prepare_analyze, check_analyze),
        Workload("sweep", prepare_sweep, check_sweep),
        Workload("error-ode", prepare_error_ode, check_error_ode),
    )
}

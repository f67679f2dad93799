"""Shared test plumbing: the acceptance-verdict recorder and the golden
output digests.

The acceptance tests in test_acceptance.py each measure a margin and record a
one-line verdict.  Printing from inside a test gets swallowed by capture, so
the lines are replayed in the terminal summary where they are always visible.

Tests that need the record of error-dynamics starts, one start or many,
collect it from the live flow with the ``collect`` fixture.

The CLI tests hash the artifacts they write against ``golden_digests.json``,
so a refactor that changes any output byte fails; a harness test hashes the
RunLog arrays of two runs at full precision too.  After an intended output
change, ``python -m pytest tests/test_cli.py tests/test_harness.py
--update-golden`` rewrites the digests of the artifacts that run hashed.
"""

import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tiltobs.analysis import error_flow

pytest_plugins = ["pytester"]  # runs pytest on a generated file

ACCEPTANCE_LINES: list[str] = []

GOLDEN = Path(__file__).with_name("golden_digests.json")

# report lines that hold wall-clock measurements, dropped before hashing
TIMED = re.compile(r"(runtime_s|time\.\w+_s|steps_per_s) = ")


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true",
                     help="rewrite the golden digests of the artifacts hashed in this run")


@pytest.fixture(scope="session")
def criterion():
    """Record a pass/fail line for one acceptance criterion, then assert it."""

    def record(num: int, passed: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        assert passed, line

    return record


@pytest.fixture(scope="session")
def collect():
    """``collect(verr0, terr0, gains, **run)`` records the :func:`error_flow`
    of (B, 3) starts, or of a (3,) start as a batch of one: its M times
    ``t``, its (M, 6, B) ``states`` (so ``(t, states)`` is a flow again) and
    their (B, M, 3) ``verr`` and ``terr`` views."""

    def record(verr0, terr0, gains, **run):
        t, states = error_flow(verr0, terr0, gains, **run)
        states = np.fromiter(states, dtype=(float, (6, np.size(verr0) // 3)), count=len(t))
        err = states.transpose(2, 0, 1)
        return SimpleNamespace(t=t, states=states, verr=err[..., :3], terr=err[..., 3:])

    return record


def _digests(lines):
    """SHA-256 of the lines, and the first 8 hex digits of each line's own."""
    whole = hashlib.sha256("".join(lines).encode()).hexdigest()
    per_line = "".join(hashlib.sha256(line.encode()).hexdigest()[:8] for line in lines)
    return whole, per_line


@pytest.fixture(scope="session")
def golden(request):
    """``check(name, path)`` asserts that the artifact at ``path``, timing
    lines dropped, hashes to the golden digest recorded under ``name``; a
    mismatch names the artifact and its first differing line."""
    update = request.config.getoption("--update-golden")
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"artifacts": {}}

    def check(name: str, path) -> None:
        numbered = [
            (n, line)
            for n, line in enumerate(Path(path).read_text().splitlines(keepends=True), start=1)
            if not TIMED.match(line)
        ]
        whole, per_line = _digests([line for _, line in numbered])
        if update:
            table["artifacts"][name] = {"sha256": whole, "lines": per_line}
            return
        recorded = table["artifacts"].get(name)
        assert recorded is not None, f"{name}: no golden digest in {GOLDEN.name}"
        if whole == recorded["sha256"]:
            return
        old = recorded["lines"]
        k = next(
            (k for k in range(len(numbered)) if per_line[8 * k : 8 * k + 8] != old[8 * k : 8 * k + 8]),
            len(numbered),
        )
        where = (f"line {numbered[k][0]}: {numbered[k][1]!r}" if k < len(numbered)
                 else f"its end: {len(numbered)} lines, golden has {len(old) // 8}")
        note = ""
        if table["numpy"] != np.__version__:
            note = f" (digests recorded with numpy {table['numpy']}, running {np.__version__})"
        pytest.fail(f"{name} differs from its golden digest first at {where}{note}")

    yield check
    if update:
        table["numpy"] = np.__version__
        table["artifacts"] = dict(sorted(table["artifacts"].items()))
        GOLDEN.write_text(json.dumps(table, indent=1) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

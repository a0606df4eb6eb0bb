"""Run the bitwise suites once per OpenBLAS kernel set.

The bitwise identities (a column of a stack equals the run alone, a split
march equals the unsplit one, criterion 09, cocycle composition, the
equilibrium and Hausdorff gaps against their plain formulas, a strided
stream against ``integrate`` and the difference history's gaps) rest on
the bits of the BLAS products.  A DYNAMIC_ARCH OpenBLAS picks its kernels by the
CPU it finds, and ``OPENBLAS_CORETYPE`` forces one set for one process.
This script runs ``tests/test_stack.py``, ``tests/test_split.py``,
``tests/test_acceptance.py``, ``tests/test_cocycle.py``,
``tests/test_attractor.py`` and ``tests/test_solver.py`` in one child
pytest process per kernel set.
An unknown name, or one that OpenBLAS does not take, falls back silently
to the CPU's own set, so each child's set is checked against the running
core that the pytest header prints (``tests/conftest.py``).  A set newer
than the CPU can die of an illegal instruction; that counts as a failure.

Usage:
    python3 scripts/kernel_matrix.py

Prints one line per set (the forced set, the running core, passed and
failed counts) and exits 1 when a set did not take effect, a test failed or
errored, or a run ended without a count; 0 otherwise.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = (
    "tests/test_stack.py",
    "tests/test_split.py",
    "tests/test_acceptance.py",
    "tests/test_cocycle.py",
    "tests/test_attractor.py",
    "tests/test_solver.py",
)
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai")


def running_core(output: str) -> str | None:
    """The core the pytest header names as running, or None."""
    match = re.search(r"running: ([^)]+)\)", output)
    return match.group(1) if match else None


def counts(output: str) -> tuple[int, int] | None:
    """(passed, failed or errored) from pytest's closing summary line, or
    None when the output has none."""
    lines = [line for line in output.splitlines() if re.search(r" in [\d.]+s", line)]
    if not lines:
        return None
    found = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", lines[-1])}
    failed = found.get("failed", 0) + found.get("error", 0) + found.get("errors", 0)
    return found.get("passed", 0), failed


def run(core: str) -> tuple[str | None, tuple[int, int] | None, int]:
    """Run the suites with ``core`` forced: the running core the header
    names, the counts and the exit code."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=core,
        PYTHONPATH=os.path.join(ROOT, "src") + (os.pathsep + path if path else ""),
    )
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *SUITES]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    output = done.stdout + done.stderr
    return running_core(output), counts(output), done.returncode


def main() -> int:
    bad = 0
    print(f"{'forced':<12} {'running':<14} {'passed':>6} {'failed':>6}  verdict")
    for core in CORES:
        running, got, code = run(core)
        passed, failed = got or (0, 0)
        if running is None or running.lower() != core.lower():
            verdict = "NOT IN EFFECT"
        elif got is None:
            verdict = f"NO COUNT (exit {code})"
        elif failed or code:
            verdict = "FAILED"
        else:
            verdict = "ok"
        bad += verdict != "ok"
        print(f"{core:<12} {running or '?':<14} {passed:>6} {failed:>6}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

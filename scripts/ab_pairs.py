"""Alternate the end-to-end benchmark between two checkouts and compare them.

For each seed the script runs ``CHECKOUT/benchmarks/run.py --workload
WORKLOAD --seed SEED --trace 0`` once in each checkout, one run after the
other, the first checkout first on the first, third, ... seed and second on
the others, so a drift in the host's speed falls on both alike.  Each run
takes run.py's own default duration.  Then, for every end-to-end metric
that this repository's ``BENCHMARK.json`` declares, it prints each
checkout's median and quartiles (``statistics.quantiles(values, n=4)``) and
the number of pairs in which the second checkout's value is better, in the
metric's own direction.

Usage:
    python3 scripts/ab_pairs.py PARENT_CHECKOUT CHANGED_CHECKOUT WORKLOAD SEED [SEED ...]

Exits 0 when every run succeeded and reported every output correct, 1 when
a run failed or reported a failed output (the report covers the pairs
before it), and 2 when a checkout has no ``benchmarks/run.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metrics(output: str) -> tuple[bool, dict[str, float]]:
    """Whether a run.py output reports its outputs correct, and its metric
    values, both read from its last line."""
    result = json.loads(output.strip().splitlines()[-1])
    return result["correct"], {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(declared: list[dict], before: list[dict], after: list[dict]) -> list[str]:
    """One block of lines per declared metric: the medians and quartiles of
    the runs ``before`` and ``after`` (one dict of values per seed, paired
    by position) and the pairs that ``after`` won."""
    lines = []
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run[name] for run in before]
        b = [run[name] for run in after]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        for label, values in (("parent", a), ("change", b)):
            q1, median, q3 = quartiles(values)
            lines.append(f"  {label}  median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}")
        lines.append(f"  change better in {wins} of {len(a)} pairs")
    return lines


def run(checkout: str, workload: str, seed: int) -> tuple[bool, dict[str, float]]:
    """One ``--trace 0`` run of ``workload`` in ``checkout``."""
    argv = [sys.executable, os.path.join(checkout, "benchmarks", "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{checkout} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return False, {}
    return metrics(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or not all(arg.isdigit() for arg in argv[3:]):
        print(__doc__.split("Usage:\n")[1].split("\n\n")[0], file=sys.stderr)
        return 2
    checkouts, workload, seeds = argv[:2], argv[2], [int(arg) for arg in argv[3:]]
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, "benchmarks", "run.py")):
            print(f"no benchmarks/run.py under {checkout}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    runs: tuple[list[dict], list[dict]] = ([], [])
    ok = True
    for i, seed in enumerate(seeds):
        values = [{}, {}]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            correct, values[side] = run(checkouts[side], workload, seed)
            ok = ok and correct
        if not all(values):
            break
        for side in (0, 1):
            runs[side].append(values[side])
        print(f"seed {seed}: " + "  ".join(
            f"{m['name']} {values[0][m['name']]:.4g} / {values[1][m['name']]:.4g}"
            for m in declared
        ), flush=True)
    if runs[0]:
        print("\n".join(report(declared, *runs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

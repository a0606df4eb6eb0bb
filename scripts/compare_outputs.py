"""Compare the outputs of every shipped config between two result trees.

Each tree holds one directory per config, named after the config file
(``DIR/equilibrium/``, ``DIR/upper_semi/``, ...).  A tree that does not
exist yet is first filled by running every ``configs/*.json`` into it with
the package found under ``--src-a`` or ``--src-b`` (default: this
checkout's ``src``), and each run's exit code, own peak RSS and the
number of ``BoundaryLeakWarning``s it wrote to stderr are printed, then
on a line of their own the places those warnings name and the magnitudes
they print (``file:function ×count [magnitude ...]``), so a warning that
moves to another function, or a boundary ring that changes, shows in every
comparison, and an edit that only shifts lines does not; an existing tree
is taken as it is.  Per config the script
reports whether the CSV files are byte-identical and whether the
summaries are equal once ``metadata`` (the timestamp) and
``config.output.directory`` are dropped, since those two differ between
identical runs.  For a config that differs it also reports the largest
relative difference, |a - b| / max(|a|, |b|), over the numbers that both
trees hold at the same place (CSV cells, summary numbers) and where it
occurs, so a change that moves bits can say by how much, and it names each
summary key that only one tree holds (``config.spec.nonlinearity.scale
only in B``), so a change that adds or drops a key shows which.

Usage:
    python3 scripts/compare_outputs.py DIR_A DIR_B
    python3 scripts/compare_outputs.py DIR_A DIR_B --src-a OTHER_CHECKOUT/src

Exits 0 when every config matches, 1 on any difference (a missing summary
included) and 2 when there is no config, or no package to fill a missing
tree with.
"""

from __future__ import annotations

import argparse
import ast
import csv
import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fill(tree: str, src: str, configs: list[str]) -> None:
    """Run every config into its own directory under ``tree``, one process
    each, and print each run's exit code, peak RSS and count of
    ``BoundaryLeakWarning`` lines on stderr, then where they point and the
    magnitudes they print."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for config in configs:
        out = os.path.join(tree, stem_of(config))
        code, stderr, peak_mb = run_measured(
            [sys.executable, "-m", "pullbacklab.cli", "run", "--config", config,
             "--output-dir", out, "--quiet"],
            env,
        )
        # exit 1 is also a failed check, which the summary records; a run
        # that wrote no summary (a traceback exits 1 too) shows its stderr
        leaks = stderr.count(": BoundaryLeakWarning: ")
        print(f"ran {stem_of(config)} into {tree} (exit {code}), peak RSS {peak_mb:.1f} MB, "
              f"{leaks} BoundaryLeakWarnings")
        print(f"  {stem_of(config)} leak warnings at: {leak_places(stderr)}")
        if not any(name.endswith("_summary.json") for name in _listing(out)):
            print(stderr, file=sys.stderr)


def enclosing_function(path: str, line: int) -> str:
    """The name of the innermost function in the file ``path`` whose lines
    hold ``line``, ``<module>`` outside every function, or the line number
    itself where the file cannot be read or parsed."""
    try:
        with open(path) as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError, ValueError):
        return str(line)
    name = "<module>"
    # breadth first, so a nested function that holds the line comes last
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.lineno <= line <= node.end_lineno:
                name = node.name
    return name


def leak_places(stderr: str) -> str:
    """Each distinct place a ``BoundaryLeakWarning`` on ``stderr`` names,
    as ``file:function ×count [magnitude ...]`` in order of first
    appearance (the file by its base name, so two checkouts compare; the
    function as :func:`enclosing_function` finds it in the file the warning
    names), the magnitudes being what its warnings print after ``solution
    magnitude``, in order; "none" without one."""
    found = re.findall(
        r"^(.+):(\d+): BoundaryLeakWarning: (?:solution magnitude (\S+))?", stderr, re.MULTILINE
    )
    places = {}
    for f, line, magnitude in found:
        place = f"{os.path.basename(f)}:{enclosing_function(f, int(line))}"
        places.setdefault(place, []).append(magnitude)
    return ", ".join(
        f"{place} ×{len(magnitudes)} [{' '.join(filter(None, magnitudes))}]"
        for place, magnitudes in places.items()
    ) or "none"


def run_measured(argv: list[str], env: dict) -> tuple[int, str, float]:
    """Run ``argv`` in a child process: its exit code, its stderr and its own
    peak RSS in MB.  The peak comes from ``os.wait4`` on that child, not
    from ``RUSAGE_CHILDREN``, which keeps only the largest peak of all the
    children this process has reaped.  On Linux a child's peak is at least
    what this process held when it started the child, which for this script
    is far below any config's run."""
    with tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err, text=True)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        # ru_maxrss counts kilobytes on Linux and bytes on macOS
        unit = 1 if sys.platform == "darwin" else 1024
        return child.returncode, err.read(), usage.ru_maxrss * unit / 2**20


def stem_of(config: str) -> str:
    return os.path.splitext(os.path.basename(config))[0]


def comparable(summary: dict) -> dict:
    """The summary without what differs between identical runs."""
    summary = dict(summary)
    summary.pop("metadata", None)
    config = dict(summary.get("config", {}))
    output = dict(config.get("output", {}))
    output.pop("directory", None)
    config["output"] = output
    summary["config"] = config
    return summary


def _listing(directory: str) -> list[str]:
    """The sorted file names in ``directory``; none when it does not exist."""
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal numbers (two NaNs included), inf
    when only one of them is finite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


MISSING = object()


def json_leaves(a, b, where: str = ""):
    """(place, a, b) for every place that two JSON values share, down to
    where their structure differs, and for every key that only one of them
    holds, with ``MISSING`` on the other side."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from json_leaves(a.get(key, MISSING), b.get(key, MISSING),
                                   f"{where}.{key}" if where else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            yield from json_leaves(item_a, item_b, f"{where}[{i}]")
    else:
        yield where, a, b


def json_pairs(a, b, where: str = ""):
    """(place, a, b) for every number that two JSON values hold at the same
    place; parts whose structure differs are skipped."""
    for place, x, y in json_leaves(a, b, where):
        if _is_number(x) and _is_number(y):
            yield place, float(x), float(y)


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_pairs(path_a: str, path_b: str):
    """(place, a, b) for every cell that parses as a number in both files at
    the same line and column; the place names the line and the header."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    header = rows_a[0] if rows_a else []
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            a, b = _float(cell_a), _float(cell_b)
            if a is not None and b is not None:
                name = header[col] if col < len(header) else str(col + 1)
                yield f"line {line}, column {name}", a, b


def one_sided_keys(dir_a: str, dir_b: str) -> list[str]:
    """``place only in A`` (or ``B``) for each key that one directory's
    summary holds and the other's lacks, ``metadata`` aside."""
    found = []
    for name in sorted(set(_listing(dir_a)) & set(_listing(dir_b))):
        if name.endswith("_summary.json"):
            with open(os.path.join(dir_a, name)) as fa, open(os.path.join(dir_b, name)) as fb:
                leaves = json_leaves(comparable(json.load(fa)), comparable(json.load(fb)))
            found += [f"{place} only in {'B' if a is MISSING else 'A'}"
                      for place, a, b in leaves if MISSING in (a, b)]
    return found


def largest_difference(dir_a: str, dir_b: str) -> tuple[float, str] | None:
    """The largest relative difference over the numbers of the files both
    directories hold, and where it is with the two numbers; None when no
    number differs."""
    names = set(_listing(dir_a)) & set(_listing(dir_b))
    worst = None
    for name in sorted(names):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name.endswith(".csv"):
            pairs = csv_pairs(path_a, path_b)
        elif name.endswith("_summary.json"):
            with open(path_a) as fa, open(path_b) as fb:
                pairs = json_pairs(comparable(json.load(fa)), comparable(json.load(fb)))
        else:
            continue
        for where, a, b in pairs:
            rel = relative_difference(a, b)
            if rel > 0.0 and (worst is None or rel > worst[0]):
                worst = (rel, f"{name}: {where} ({a!r} vs {b!r})")
    return worst


def compare(dir_a: str, dir_b: str) -> list[str]:
    """Differences between the outputs of one config in two trees."""
    names_a = _listing(dir_a)
    names_b = _listing(dir_b)
    problems = []
    if names_a != names_b:
        problems.append(f"file lists differ: {names_a} vs {names_b}")
    for name in sorted(set(names_a) & set(names_b)):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name.endswith(".csv"):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name} differs")
        elif name.endswith("_summary.json"):
            with open(path_a) as fa, open(path_b) as fb:
                if comparable(json.load(fa)) != comparable(json.load(fb)):
                    problems.append(f"{name} differs outside metadata")
    if not any(name.endswith("_summary.json") for name in names_a):
        problems.append("no summary written")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--src-a", default=os.path.join(ROOT, "src"),
                        help="package source that fills DIR_A if it does not exist")
    parser.add_argument("--src-b", default=os.path.join(ROOT, "src"),
                        help="package source that fills DIR_B if it does not exist")
    parser.add_argument("--configs", default=os.path.join(ROOT, "configs"),
                        help="directory of the configs to run and compare")
    args = parser.parse_args(argv)

    configs = sorted(glob.glob(os.path.join(args.configs, "*.json")))
    if not configs:
        print(f"no configs in {args.configs}", file=sys.stderr)
        return 2
    for tree, src in ((args.dir_a, args.src_a), (args.dir_b, args.src_b)):
        if not os.path.exists(tree):
            if not os.path.isdir(os.path.join(src, "pullbacklab")):
                print(f"no pullbacklab package under {src}", file=sys.stderr)
                return 2
            fill(tree, src, configs)

    differing = 0
    for config in configs:
        stem = stem_of(config)
        dir_a, dir_b = os.path.join(args.dir_a, stem), os.path.join(args.dir_b, stem)
        problems = compare(dir_a, dir_b)
        if problems:
            differing += 1
            print(f"{stem}: DIFFERENT: " + "; ".join(problems))
            worst = largest_difference(dir_a, dir_b)
            if worst is None:
                found = ["no number differs"]
            else:
                found = [f"largest relative difference {worst[0]:.2g} in {worst[1]}"]
            print(f"{stem}: " + "; ".join(found + one_sided_keys(dir_a, dir_b)))
        else:
            print(f"{stem}: CSVs byte-identical, summaries equal outside metadata")
    print(f"{len(configs) - differing} of {len(configs)} configs match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

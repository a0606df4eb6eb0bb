"""scripts/compare_outputs.py on two planted result trees."""

import ast
import importlib.util
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(REPO_ROOT, "scripts", "compare_outputs.py")
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plant(tree, stem, csv_text, results, timestamp):
    out = tree / stem
    out.mkdir(parents=True)
    (out / f"{stem}_state.csv").write_text(csv_text)
    summary = {"metadata": {"timestamp": timestamp}, "passed": True, "results": results}
    (out / f"{stem}_summary.json").write_text(json.dumps(summary))


def test_report_names_the_largest_relative_difference(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    for stem in ("gone", "moved", "same"):
        (configs / f"{stem}.json").write_text("{}")
    csv_a = "x,value\n-1.0,0.5\n1.0,2.0\n"
    csv_b = "x,value\n-1.0,0.5\n1.0,2.000000000002\n"  # 1e-12 relative
    results_a = {"norms": {"l2": 1.0, "h1": [3.0, 4.0]}, "label": "a"}
    results_b = {"norms": {"l2": 1.0, "h1": [3.0, 4.000000001]}, "label": "a"}
    plant(tmp_path / "a", "moved", csv_a, results_a, "t0")
    plant(tmp_path / "b", "moved", csv_b, results_b, "t1")
    plant(tmp_path / "a", "gone", csv_a, results_a, "t0")  # missing from tree b
    plant(tmp_path / "a", "same", csv_a, results_a, "t0")
    plant(tmp_path / "b", "same", csv_a, results_a, "t1")

    script = load_script()
    code = script.main([str(tmp_path / "a"), str(tmp_path / "b"), "--configs", str(configs)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines == [
        "gone: DIFFERENT: file lists differ: ['gone_state.csv', 'gone_summary.json'] vs []",
        "gone: no number differs",
        "moved: DIFFERENT: moved_state.csv differs; moved_summary.json differs outside metadata",
        "moved: largest relative difference 2.5e-10 in moved_summary.json: results.norms.h1[1] (4.0 vs 4.000000001)",
        "same: CSVs byte-identical, summaries equal outside metadata",
        "1 of 3 configs match",
    ]
    assert script.largest_difference(str(tmp_path / "a" / "same"), str(tmp_path / "b" / "same")) is None
    csv_only = list(script.csv_pairs(str(tmp_path / "a" / "moved" / "moved_state.csv"),
                                     str(tmp_path / "b" / "moved" / "moved_state.csv")))
    where, a, b = csv_only[-1]
    assert where == "line 3, column value"
    assert script.relative_difference(a, b) == abs(a - b) / b
    assert script.relative_difference(float("nan"), float("nan")) == 0.0
    assert script.relative_difference(1.0, float("inf")) == float("inf")


FAKE_CLI = '''
import os, sys, warnings
class BoundaryLeakWarning(UserWarning):
    pass
config, out = sys.argv[sys.argv.index("--config") + 1], sys.argv[sys.argv.index("--output-dir") + 1]
if config.endswith("crash.json"):
    raise RuntimeError("traceback of the crashed run")
os.makedirs(out)
open(os.path.join(out, "failed_summary.json"), "w").write("{}")
print("stderr of a run that wrote its summary", file=sys.stderr)
for magnitude in ("1e-7", "2e-7"):
    warnings.warn(f"solution magnitude {magnitude}", BoundaryLeakWarning)
sys.exit(1)
'''


def test_fill_shows_stderr_of_runs_that_wrote_no_summary(tmp_path, capsys):
    # both runs exit 1: a traceback and a failed check look alike by the code
    package = tmp_path / "src" / "pullbacklab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    configs = [str(tmp_path / "crash.json"), str(tmp_path / "failed.json")]
    load_script().fill(str(tmp_path / "tree"), str(tmp_path / "src"), configs)
    captured = capsys.readouterr()
    assert f"ran crash into {tmp_path / 'tree'} (exit 1)" in captured.out
    assert f"ran failed into {tmp_path / 'tree'} (exit 1)" in captured.out
    # each run's count of the warnings it wrote to stderr, then their places
    crash, crash_places, failed, failed_places = captured.out.splitlines()
    assert crash.endswith(", 0 BoundaryLeakWarnings")
    assert failed.endswith(", 2 BoundaryLeakWarnings")
    assert crash_places == "  crash leak warnings at: none"
    # the fake cli warns at module level
    assert failed_places == "  failed leak warnings at: cli.py:<module> ×2 [1e-7 2e-7]"
    assert "RuntimeError: traceback of the crashed run" in captured.err
    assert "wrote its summary" not in captured.err


LEAKY = """import warnings


def _exec_simulate():
    warnings.warn("a")
    warnings.warn("b")


def outer():
    def inner():
        warnings.warn("c")
    return inner
"""


def test_leak_places_print_each_places_magnitudes_in_order(tmp_path):
    # a place is the file and the function around the warned line, read
    # from the file the warning names: lines 5 and 6 are one place, so an
    # edit that only shifts lines keeps it.  A ring that moves changes the
    # magnitudes even where count and place hold
    for tree in ("a", "b"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "cli.py").write_text(LEAKY)
    a, b, gone = tmp_path / "a" / "cli.py", tmp_path / "b" / "cli.py", tmp_path / "gone.py"
    trail = " adjacent to the artificial boundary exceeds 1e-08; enlarge the domain radius"
    stderr = "".join([
        f"{a}:5: BoundaryLeakWarning: solution magnitude 1.234e-07{trail}\n",
        "  warnings.warn(\n",
        f"{b}:11: BoundaryLeakWarning: solution magnitude 5.000e-08{trail}\n",
        f"{a}:6: BoundaryLeakWarning: solution magnitude 2.000e-07{trail}\n",
        f"{a}:1: BoundaryLeakWarning: a message without a magnitude\n",
        f"{gone}:40: BoundaryLeakWarning: solution magnitude 3.000e-08{trail}\n",
        f"{a}:5: UserWarning: solution magnitude 1.000e+00\n",
    ])
    script = load_script()
    # a file that cannot be read keeps its line number
    assert script.leak_places(stderr) == (
        "cli.py:_exec_simulate ×2 [1.234e-07 2.000e-07], cli.py:inner ×1 [5.000e-08], "
        "cli.py:<module> ×1 [], gone.py:40 ×1 [3.000e-08]"
    )
    moved = stderr.replace("2.000e-07", "2.001e-07")
    assert script.leak_places(moved) != script.leak_places(stderr)
    assert script.leak_places("no warnings\n") == "none"


PEAKS_PROBE = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("compare_outputs", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
big = "import sys; block = b'x' * (64 << 20); sys.stderr.write('big')"
print(script.run_measured([sys.executable, "-c", big], dict(os.environ)))
print(script.run_measured([sys.executable, "-c", "pass"], dict(os.environ)))
"""


def test_each_run_reports_its_own_peak_rss():
    # a small run after a large one reads its own peak, not the largest of
    # all the children reaped so far.  Measured from a small process: on
    # Linux a child's peak also counts what its parent held at the fork
    path = os.path.join(REPO_ROOT, "scripts", "compare_outputs.py")
    done = subprocess.run(
        [sys.executable, "-c", PEAKS_PROBE, path], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    big, small = (ast.literal_eval(line) for line in done.stdout.splitlines())
    assert big[:2] == (0, "big") and small[:2] == (0, "")
    assert big[2] > small[2] + 48

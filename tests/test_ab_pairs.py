"""scripts/ab_pairs.py's reading of benchmark output and its report."""

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(REPO_ROOT, "scripts", "ab_pairs.py")
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(correct, wall, rss):
    """What benchmarks/run.py prints for one workload, shortened."""
    result = {
        "correct": correct,
        "attempted": 40,
        "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return (
        "== sweep-1d  seed 1  40 runs, 0 failed  sha 0123abc\n"
        f"   wall_s                              {wall} s\n"
        f"   peak_rss_mb                         {rss} MB\n"
        + json.dumps(result)
        + "\n"
    )


DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def test_metrics_come_from_the_last_line():
    ab = load_script()
    assert ab.metrics(run_output(True, 0.303, 41.1)) == (
        True,
        {"wall_s": 0.303, "peak_rss_mb": 41.1},
    )
    assert ab.metrics(run_output(False, 0.3, 41.0))[0] is False


def test_report_gives_medians_quartiles_and_pair_wins():
    ab = load_script()
    before = [ab.metrics(run_output(True, w, r))[1] for w, r in
              [(0.303, 41.0), (0.277, 41.2), (0.275, 41.1), (0.290, 41.0)]]
    after = [ab.metrics(run_output(True, w, r))[1] for w, r in
             [(0.238, 41.0), (0.234, 41.3), (0.280, 41.2), (0.233, 40.9)]]
    lines = ab.report(DECLARED, before, after)
    assert lines[0] == "wall_s (s, lower is better)"
    # statistics.quantiles' default (exclusive) method on four values
    assert lines[1] == "  parent  median 0.2835  q1 0.2755  q3 0.29975"
    assert lines[2] == "  change  median 0.236  q1 0.23325  q3 0.2695"
    assert lines[3] == "  change better in 3 of 4 pairs"
    # a tie is no win
    assert lines[7] == "  change better in 1 of 4 pairs"
    assert ab.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_usage_errors_exit_two(tmp_path, capsys):
    ab = load_script()
    assert ab.main([str(tmp_path), str(tmp_path), "sweep-1d"]) == 2
    assert ab.main([str(tmp_path), str(tmp_path), "sweep-1d", "x"]) == 2
    assert ab.main([str(tmp_path), REPO_ROOT, "sweep-1d", "1"]) == 2
    assert "no benchmarks/run.py" in capsys.readouterr().err

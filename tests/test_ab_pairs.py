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


def test_verdict_takes_the_first_rule_that_holds():
    ab = load_script()
    wall, rss = DECLARED  # bounds 0.25 and 0.1
    parent = [0.30, 0.31, 0.29, 0.30, 0.32, 0.28, 0.30, 0.31, 0.29, 0.30]
    # 9 of 10 pairs won and a gap of the medians (0.05) past the parent's
    # quartile spread (0.0125)
    faster = [x - 0.05 for x in parent[:9]] + [0.31]
    assert ab.wins(wall, parent, faster) == 9
    assert ab.verdict(wall, parent, faster) == "gain shown"
    # 8 of 10 is no claim, however large the gap
    assert ab.verdict(wall, parent, faster[:8] + [0.31, 0.31]) == "within bound"
    # every pair won by less than the parent's spread
    assert ab.verdict(wall, parent, [x - 0.001 for x in parent]) == "within bound"
    # a median 30% worse against a 25% bound
    assert ab.verdict(wall, parent, [x * 1.3 for x in parent]) == "worse beyond bound"
    # higher is better: a median 11% lower against a 10% bound
    rate = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
    assert ab.verdict(rate, parent, [x * 0.89 for x in parent]) == "worse beyond bound"
    assert ab.verdict(rate, parent, [x * 1.2 for x in parent]) == "gain shown"
    # the medians agree, but the change's runs spread over half the median
    wide = [0.15, 0.45] * 5
    assert ab.verdict(wall, parent, wide) == "unresolved"
    # as wide, but every run of the change is faster than every parent run
    assert ab.verdict(wall, [0.30, 0.90] * 5, [0.10, 0.28] * 5) == "within bound"
    # a spread of 0.4 MB on 41 MB is inside rss's 10% bound
    assert ab.verdict(rss, [41.0, 41.4] * 5, [41.2, 41.0] * 5) == "within bound"
    # ok_frac reads 1 on both sides, and a zero median is no division
    ok = {"name": "ok_frac", "unit": "1", "better": "higher", "bound": 0.05}
    assert ab.verdict(ok, [1.0] * 10, [1.0] * 10) == "within bound"
    assert ab.verdict(wall, [0.0] * 10, [0.0] * 10) == "within bound"
    assert ab.verdict(wall, [0.0] * 10, [0.1] * 10) == "worse beyond bound"


def test_report_ends_with_one_verdict_per_metric():
    ab = load_script()
    before = [{"wall_s": w, "peak_rss_mb": 41.0} for w in (0.30, 0.31, 0.29, 0.30)]
    after = [{"wall_s": w - 0.05, "peak_rss_mb": 41.0} for w in (0.30, 0.31, 0.29, 0.30)]
    lines = ab.report(DECLARED, before, after)
    assert lines[-3:] == ["verdicts", "  wall_s: gain shown", "  peak_rss_mb: within bound"]

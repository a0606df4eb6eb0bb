"""One benchmark process: import pullbacklab once, then run one workload's
config through ``pullbacklab.cli.run`` back to back for a fixed time.

Usage (run.py starts this; it is not meant to be typed):

    python3 worker.py SRC_DIR CONFIG WORKLOAD OUT_DIR SECONDS TRACE RESULT_JSON

Every run's outputs are checked and digested.  With TRACE=0 each run is
followed by set-up samples: fresh interpreters timed until ``import
pullbacklab.cli`` finishes, about one per three seconds of experiment, so they
are spread over the whole measurement like the runs.  With TRACE=1 untraced
and traced runs alternate, so their difference is the tracing overhead
measured under the same conditions; the spans of the last traced run are
saved next to RESULT_JSON.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time


def _machine() -> dict:
    import numpy as np
    import scipy

    def blas(config) -> str:
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def _setup_time(src: str) -> float:
    """Seconds from starting a fresh interpreter until its ``import
    pullbacklab.cli`` has finished and it has exited."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import pullbacklab.cli"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _bytes_in(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def main(argv: list[str]) -> int:
    src, config_path, workload_name, out_dir, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, src)
    import pullbacklab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported pullbacklab from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    with open(config_path) as handle:
        summary_name = f"{json.load(handle)['experiment']}_summary.json"
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()

    runs = []  # one dict per run of the experiment
    layer_runs = []
    setup = []
    cycles = []  # seconds per run plus the set-up samples after it
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        run = {"traced": traced, "problems": []}
        if traced:
            tracer.install()
            tracer.reset()
            root = tracer.begin("cli.run")
        t0 = time.perf_counter()
        try:
            code = cli.run(config_path, out_dir, quiet=True)
        except Exception as exc:  # a crash is a failed run, not a failed benchmark
            code = None
            run["problems"].append(f"raised {exc!r}")
        finally:
            run["wall_s"] = time.perf_counter() - t0
            if traced:
                tracer.finish(root)
                tracer.uninstall()
        if code not in (0, None):
            run["problems"].append(f"exit code {code}")
        if code == 0:
            _inspect(run, workload, os.path.join(out_dir, summary_name), out_dir)
            if runs and run.get("digest") != runs[0].get("digest"):
                run["problems"].append("summary digest differs from the first run")
        if traced:
            layers = tracer.summary()
            layers["cli.run_s"] = float(tracer.end[root] - tracer.start[root])
            layers["cli.bytes_written"] = _bytes_in(out_dir) if os.path.isdir(out_dir) else 0
            # the layers' self times partition the root span
            parts = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            if abs(parts - layers["cli.run_s"]) > 1e-6 * layers["cli.run_s"]:
                run["problems"].append(
                    f"layer self times sum to {parts}, the root span lasts {layers['cli.run_s']}"
                )
            layer_runs.append(layers)
        elif not trace:
            setup.extend(_setup_time(src) for _ in range(max(1, round(run["wall_s"] / 3))))
        runs.append(run)
        cycles.append(time.perf_counter() - cycle_start)
        # stop once another run would end past the deadline by more than half
        # a run, so that a run lasts about --seconds on average
        if time.perf_counter() + statistics.median(cycles) / 2 >= deadline and (
            not trace or len(runs) >= 2
        ):
            break

    result = {
        "machine": _machine(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
        "setup_s": setup,
    }
    if trace:
        result["layers"] = _combine(layer_runs, runs)
        import numpy as np

        np.savez(os.path.splitext(result_path)[0] + "-spans.npz", **tracer.arrays())
    with open(result_path, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


def _inspect(run: dict, workload, summary_path: str, out_dir: str) -> None:
    """Check one run's outputs and record their digest and headline results."""
    from workloads import check_summary, digest

    try:
        with open(summary_path) as handle:
            summary = json.load(handle)
        run["problems"].extend(check_summary(workload, summary, out_dir))
        run["digest"] = digest(summary)
        run["headlines"] = workload.headlines(summary)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        run["problems"].append(f"unreadable outputs: {exc!r}")


def _combine(layer_runs: list[dict], runs: list[dict]) -> dict:
    """Counts of the first traced run (they must repeat exactly), medians of
    times, and the traced minus untraced median wall time."""
    out = {}
    for key, first in layer_runs[0].items():
        values = [lr[key] for lr in layer_runs]
        if isinstance(first, int):
            if len(set(values)) != 1:
                for run in runs:
                    if run["traced"]:
                        run["problems"].append(f"{key} differs between traced runs: {values}")
            out[key] = first
        else:
            out[key] = statistics.median(values)
    walls = {flag: [r["wall_s"] for r in runs if r["traced"] is flag] for flag in (False, True)}
    out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

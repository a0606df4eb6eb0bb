"""pullbacklab benchmark: time one workload end to end, or trace its layers.

    python3 benchmarks/run.py --workload equilibrium-1d --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run

1. writes the workload's config, generated from ``--seed``;
2. starts one worker process that runs the config through
   ``pullbacklab.cli.run`` back to back for ``--seconds``, checks every
   run's outputs (exit code, completed checks, output files, summary digest
   equal across repeats) and, between runs, times fresh interpreters
   importing ``pullbacklab.cli`` (setup_s);
3. prints every metric with its unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced runs
only; with ``--trace 1`` they are the per-layer ones, from a traced run.
``--workload all`` runs every workload in turn and prefixes each metric with
the workload's name.  Scratch files and a record of each run (machine tags,
git SHA, digest, headline results) go to ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BUDGET_S = 170.0  # a run must end within 180 s

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "state_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
PER_LAYER = {
    "solver.solves": "count",
    "solver.solve_s": "s",
    "solver.cg_iters": "count",
    "solver.marches": "count",
    "solver.state_steps": "count",
    "solver.busy_s": "s",
    "solver.self_s": "s",
    "solver.us_per_state_step": "us",
    "model.forcing_calls": "count",
    "model.forcing_s": "s",
    "model.reaction_calls": "count",
    "model.reaction_s": "s",
    "model.self_s": "s",
    "field.fields_built": "count",
    "field.norm_calls": "count",
    "field.norm_s": "s",
    "field.csv_s": "s",
    "field.self_s": "s",
    "noise.calls": "count",
    "noise.samples": "count",
    "noise.self_s": "s",
    "cocycle.calls": "count",
    "cocycle.self_s": "s",
    "attractor.calls": "count",
    "attractor.self_s": "s",
    "cli.self_s": "s",
    "cli.run_s": "s",
    "cli.bytes_written": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = tmp
    return env


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _baseline_digest(workload: str, seed: int) -> str | None:
    try:
        with open(os.path.join(HERE, "baseline.json")) as handle:
            return json.load(handle)["digests"][workload][str(seed)]
    except (OSError, KeyError):
        return None


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload; returns the result object and writes its record."""
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.json")
    with open(config, "w") as handle:
        json.dump(workload.build(seed), handle, indent=1)
    env = _child_env(work)

    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, config, name,
           os.path.join(work, "out"), str(seconds), str(int(trace)), result_path]
    with open(os.path.join(work, "worker.log"), "w") as log, subprocess.Popen(
        cmd, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
    ) as worker_proc:
        try:
            code = worker_proc.wait(timeout=deadline - time.perf_counter())
        except subprocess.TimeoutExpired:
            # the worker's own children (set-up interpreters) share its group
            os.killpg(worker_proc.pid, signal.SIGKILL)
            worker_proc.wait()
            raise
    if code != 0:
        with open(os.path.join(work, "worker.log")) as log:
            raise BenchmarkError(f"worker exited with {code}:\n{log.read()[-2000:]}")
    with open(result_path) as handle:
        worker = json.load(handle)

    runs = worker["runs"]
    failed = [r for r in runs if r["problems"]]
    if trace:
        values = {key: worker["layers"][key] for key in PER_LAYER}
        units = PER_LAYER
    else:
        walls = [r["wall_s"] for r in runs]
        values = {
            "wall_s": statistics.median(walls),
            "state_steps_per_s": statistics.median(workload.state_steps / w for w in walls),
            "setup_s": statistics.median(worker["setup_s"]),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_frac": 1.0 - len(failed) / len(runs),
        }
        units = END_TO_END
    first = next((r for r in runs if "digest" in r), {})
    reference = _baseline_digest(name, seed)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "machine": worker["machine"],
        "digest": first.get("digest"),
        "headlines": first.get("headlines"),
        "digest_matches_baseline": None if reference is None else first.get("digest") == reference,
        "setup_samples_s": worker["setup_s"],
        "runs": runs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    with open(os.path.join(WORK, "records", f"{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"== {name}  seed {seed}  {len(runs)} runs, {len(failed)} failed  "
          f"sha {record['git_sha'] or 'unknown'}")
    print(f"   machine: {json.dumps(record['machine'])}")
    print(f"   digest {record['digest']}  same as baseline: "
          f"{record['digest_matches_baseline']}  headlines {json.dumps(record['headlines'])}")
    for r in failed[:5]:
        print(f"   failed run: {'; '.join(r['problems'])}")
    for key, value in values.items():
        print(f"   {key:28s} {value:>16.6g} {units[key]}")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pullbacklab", "cli.py")):
        print(f"no pullbacklab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

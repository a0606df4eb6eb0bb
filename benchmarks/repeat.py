"""Repeat the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

    python3 benchmarks/repeat.py --workloads sweep-1d --seeds 0 1 2 3 4
    python3 benchmarks/repeat.py --seeds 0 1 2 3 4 5 6 7 8 9 --out baseline.json

The spread is the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
Runs go one after another, never side by side.  With ``--out`` the medians,
quartiles, every value, each seed's summary digest and the machine tags are
written to a JSON file: that is how benchmarks/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args()

    report = {"run_seconds": args.seconds, "workloads": {}, "digests": {}}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        digests = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for key in values:
                values[key].append(result["metrics"][key]["value"])
            record_path = os.path.join(ROOT, ".bench_work", "records", f"{name}-seed{seed}-trace0.json")
            with open(record_path) as handle:
                record = json.load(handle)
            digests[str(seed)] = record["digest"]
            report["machine"], report["git_sha"] = record["machine"], record["git_sha"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        figures = {}
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            figures[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": metric["unit"], "values": vals}
            print(f"  {name:15s} {metric['name']:18s} median {med:10.5g} {metric['unit']:4s}"
                  f" q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}"
                  f" bound {metric['bound']:.2f} ({spread / metric['bound']:.2f} of it)")
        report["workloads"][name] = figures
        report["digests"][name] = digests
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

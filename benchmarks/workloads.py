"""The benchmark's workloads: configs built from a workload seed, their
nominal work, and how their summaries are checked and digested.

Only the noise seeds depend on the workload seed, so every seed asks for the
same amount of work and the same code paths; the program sees nothing but
the generated config.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
from typing import Callable, NamedTuple

_SPEC_1D = {
    "lambda": 2.0,
    "epsilon": 0.5,
    "dimension": 1,
    "domain_radius": 8.0,
    "nonlinearity": {"kind": "cubic", "alpha3": 1.0},
    "forcing": {"kind": "tanh_gaussian", "amplitude": 0.5, "delta": 0.5, "width": 1.0},
}
_BUMP = {"kind": "gaussian_bump", "amplitude": 1.0, "width": 1.5}


def _equilibrium_1d(seed: int) -> dict:
    # the quick-start config, configs/equilibrium.json, on noise seed 7 + seed.
    # Its tol of 1e-6 is loosened to 1e-4: the final increment ranges from
    # 1e-10 to 2e-6 over noise seeds 7..36, and a path that ends above 1e-6
    # exits 1, which would count as a failed run.  Every horizon is marched
    # whatever the tolerance, so the work is the same.
    return {
        "experiment": "equilibrium",
        "spec": copy.deepcopy(_SPEC_1D),
        "grid": {"points_per_axis": 129},
        "solver": {"dt": 0.001},
        "noise": {"seed": 7 + seed, "window": [-26.0, 1.0], "dt": 0.001},
        "equilibrium": {
            "tau": 0.0,
            "t_schedule": [1.0, 2.0, 4.0, 8.0, 16.0, 24.0],
            "tol": 1e-04,
            "initial": dict(_BUMP),
        },
    }


def _sweep_1d(seed: int) -> dict:
    # configs/upper_semi.json with noise seeds [3s, 3s+1, 3s+2]
    spec = copy.deepcopy(_SPEC_1D)
    spec["epsilon"] = 0.0
    return {
        "experiment": "upper-semi",
        "spec": spec,
        "grid": {"points_per_axis": 129},
        "solver": {"dt": 0.001},
        "upper-semi": {
            "tau": 0.0,
            "horizon": 8.0,
            "seeds": [3 * seed, 3 * seed + 1, 3 * seed + 2],
            "epsilon_ladder": [0.5, 0.25, 0.1],
            "ensemble": [{"kind": "zero"}, dict(_BUMP)],
            "ratio_bound": 0.35,
            "max_inversions": 1,
        },
    }


def _trajectory_2d(seed: int) -> dict:
    # configs/simulate_2d.json stretched to horizon 8, storing every 10th state
    spec = copy.deepcopy(_SPEC_1D)
    spec["dimension"] = 2
    spec["domain_radius"] = 6.0
    return {
        "experiment": "simulate",
        "spec": spec,
        "grid": {"points_per_axis": 65},
        "solver": {"dt": 0.002, "store_stride": 10},
        "noise": {"seed": 1 + seed, "window": [-1.0, 9.0], "dt": 0.002},
        "simulate": {"tau": 0.0, "horizon": 8.0, "initial": dict(_BUMP)},
    }


def _headlines_equilibrium(summary: dict) -> dict:
    r = summary["results"]
    return {"l2": r["norms"]["l2"], "last_increment": r["history"][-1][1]}


def _headlines_sweep(summary: dict) -> dict:
    return {"ratio_l2": summary["results"]["ratio_l2"]}


def _headlines_trajectory(summary: dict) -> dict:
    return {"final_l2": summary["results"]["final_norms"]["l2"]}


def _check_equilibrium(summary: dict, out_dir: str) -> list[str]:
    r = summary["results"]
    problems = []
    if len(r["history"]) != 5:
        problems.append(f"history holds {len(r['history'])} increments, want 5")
    rows = _csv_rows(os.path.join(out_dir, "equilibrium_history.csv"))
    if [[float(c) for c in row] for row in rows] != r["history"]:
        problems.append("history CSV disagrees with the summary")
    if len(_csv_rows(os.path.join(out_dir, "equilibrium_state.csv"))) != 129:
        problems.append("state CSV does not hold 129 grid points")
    return problems


def _check_sweep(summary: dict, out_dir: str) -> list[str]:
    rows = _csv_rows(os.path.join(out_dir, "upper-semi_sweep.csv"))
    if len(rows) != 9:
        return [f"sweep CSV holds {len(rows)} rows, want 3 intensities x 3 seeds"]
    return []


def _check_trajectory(summary: dict, out_dir: str) -> list[str]:
    r = summary["results"]
    rows = _csv_rows(os.path.join(out_dir, "simulate_trajectory.csv"))
    problems = []
    if r["stored_states"] != 401 or len(rows) != 401:
        problems.append(f"{len(rows)} stored states in the CSV, want 401")
    elif float(rows[-1][1]) != r["final_norms"]["l2"]:
        problems.append("trajectory CSV's final l2 disagrees with the summary")
    return problems


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


class Workload(NamedTuple):
    name: str
    build: Callable[[int], dict]
    # state-steps the experiment needs when every march runs on its own;
    # sharing work between marches does not lower this figure
    state_steps: int
    headlines: Callable[[dict], dict]
    check: Callable[[dict, str], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        # 6 pullbacks over [1, 2, 4, 8, 16, 24] at dt 1e-3
        Workload("equilibrium-1d", _equilibrium_1d, 55_000,
                 _headlines_equilibrium, _check_equilibrium),
        # 2 members x (3 seeds x 3 intensities + zero-noise reference) x 8000 steps
        Workload("sweep-1d", _sweep_1d, 160_000, _headlines_sweep, _check_sweep),
        # one 4000-step march on 65 x 65
        Workload("trajectory-2d", _trajectory_2d, 4_000,
                 _headlines_trajectory, _check_trajectory),
    )
}


def digest(summary: dict) -> str:
    """sha256 of the summary without its timestamp block and output directory,
    which differ between otherwise identical runs."""
    body = copy.deepcopy(summary)
    body.pop("metadata", None)
    body.get("config", {}).get("output", {}).pop("directory", None)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_summary(workload: Workload, summary: dict, out_dir: str) -> list[str]:
    """Problems found in one run's outputs; empty when they are as expected."""
    problems = []
    if not summary.get("passed"):
        failed = [k for k, ok in summary.get("checks", {}).items() if not ok]
        problems.append(f"checks failed: {failed}")
    if summary.get("results", {}).get("error"):
        problems.append(f"run reported an error: {summary['results']['error']}")
    if not problems:
        problems.extend(workload.check(summary, out_dir))
    return problems

"""Experiment runner: one JSON config in, one JSON summary (plus CSVs) out.

Usage:

    pullbacklab run --config cfg.json [--output-dir DIR] [--quiet]
    pullbacklab describe EXPERIMENT

The config carries the problem (spec), discretisation (grid, solver), noise
realisation (noise) and one experiment block named after the experiment.
Every time in the config is snapped onto the solver's dt lattice; snaps are
logged into the summary.  Summaries embed the resolved config, the seed and
the package version; the timestamp and the number of processes a march
could split across (``solver.worker_count``) live in a separate "metadata"
key so two runs of the same config are byte-identical outside it.  Files
are written to a temp name and renamed into place.

Exit codes: 0 all named checks passed, 1 some check failed (including a run
that diverged after the single dt-halving retry), 2 configuration problem.

Sweep cells are assembled in seed order.  A large 1D endpoint march may be
split across forked workers (``solver.final_states``), but no output depends
on timing or on the number of workers.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .attractor import (
    absorbing_radius,
    compute_equilibrium,
    fit_decay_rate,
    sweep_shrinks,
    tail_profile,
    truncation_diagnostics,
    upper_semicontinuity_sweep,
)
from .cocycle import pullback_state, pullback_states, verify_cocycle_property
from .errors import (
    ConfigurationError,
    DivergenceError,
    GridMismatchError,
    OutOfWindowError,
)
from .field import (
    Field,
    Grid,
    Trajectory,
    eigenmode,
    gaussian_bump,
    h1_norm,
    l2_norm,
    lp_norm,
    write_field_csv,
    write_trajectory_csv,
    zero_field,
)
from .model import (
    ProblemSpec,
    _number,
    _reject_unknown,
    _require,
    check_hypotheses,
    grid_for,
    spec_from_config,
)
from .noise import _SNAP, Path, flat_path, refine, sample_path, shift, z_factor
from .solver import SolverConfig, integrate, worker_count

EXPERIMENTS = (
    "simulate",
    "pullback",
    "equilibrium",
    "decay-rate",
    "tail",
    "truncation",
    "upper-semi",
    "cocycle-test",
    "check-hypotheses",
    "absorbing",
)

# experiments that integrate along a configured noise path
_NEEDS_PATH = frozenset(EXPERIMENTS) - {"upper-semi", "check-hypotheses"}


# ---------------------------------------------------------------------------
# config resolution


@dataclass
class _Plan:
    experiment: str
    spec: ProblemSpec
    grid: Grid
    cfg: SolverConfig
    noise: dict | None
    block: dict
    out_dir: str
    formats: tuple[str, ...]
    snaps: list = field(default_factory=list)

    def resolved_config(self) -> dict:
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "spec": {
                "lambda": self.spec.lam,
                "epsilon": self.spec.epsilon,
                "dimension": self.spec.dimension,
                "domain_radius": self.spec.domain_radius,
                "nonlinearity": self.block["_nonlinearity_raw"],
                "forcing": self.block["_forcing_raw"],
            },
            "grid": {"points_per_axis": self.grid.points_per_axis},
            "solver": {
                "dt": self.cfg.dt,
                "store_stride": self.cfg.store_stride,
            },
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }
        if self.noise is not None:
            out["noise"] = dict(self.noise)
        block: dict[str, Any] = {}
        for k, v in self.block.items():
            if k.startswith("_"):
                continue
            # initial-data entries were materialized into Field objects;
            # embed the raw blocks they came from instead
            block[k] = self.block.get(f"_{k}_raw", v)
        out[self.experiment] = block
        return out


def _snap_time(plan: _Plan, value: float, where: str) -> float:
    dt = plan.cfg.dt
    n = round(value / dt)
    snapped = n * dt
    if abs(value - snapped) > _SNAP * dt:
        raise ConfigurationError(
            f"{where}={value!r} is not a multiple of solver.dt={dt!r}"
        )
    if snapped != value:
        plan.snaps.append(f"{where}: {value!r} -> {snapped!r}")
    return snapped


def _initial_field(grid: Grid, section, where: str) -> Field:
    if not isinstance(section, Mapping):
        raise ConfigurationError(f"{where} must be a mapping with a 'kind'")
    kind = _require(section, "kind", where)
    if kind == "zero":
        _reject_unknown(section, {"kind"}, where)
        return zero_field(grid)
    if kind == "gaussian_bump":
        _reject_unknown(section, {"kind", "amplitude", "width"}, where)
        amp = _number(_require(section, "amplitude", where), f"{where}.amplitude")
        width = _number(section.get("width", 1.0), f"{where}.width")
        return gaussian_bump(grid, amp, width)
    if kind == "eigenmode":
        _reject_unknown(section, {"kind", "mode", "amplitude"}, where)
        mode = _require(section, "mode", where)
        if not isinstance(mode, int) or mode < 1:
            raise ConfigurationError(f"{where}.mode must be a positive integer")
        amp = _number(section.get("amplitude", 1.0), f"{where}.amplitude")
        base = eigenmode(grid, mode)
        return base.with_values(base.values * amp)
    raise ConfigurationError(
        f"{where}.kind: unknown kind {kind!r} (have: zero, gaussian_bump, eigenmode)"
    )


def _parse_noise(section, plan: _Plan) -> dict:
    where = "noise"
    if not isinstance(section, Mapping):
        raise ConfigurationError("noise must be a mapping")
    _reject_unknown(section, {"seed", "window", "dt"}, where)
    seed = _require(section, "seed", where)
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigurationError(f"noise.seed must be an integer or null, got {seed!r}")
    window = _require(section, "window", where)
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not all(isinstance(w, (int, float)) for w in window)
    ):
        raise ConfigurationError("noise.window must be [t_min, t_max]")
    dt = _number(_require(section, "dt", where), "noise.dt")
    lo = _snap_time(plan, float(window[0]), "noise.window[0]")
    hi = _snap_time(plan, float(window[1]), "noise.window[1]")
    if not lo < hi:
        raise ConfigurationError(f"noise.window must be increasing, got {window!r}")
    if not (lo <= 0.0 <= hi):
        raise ConfigurationError("noise.window must contain time 0")
    return {"seed": seed, "window": [lo, hi], "dt": dt}


def _make_path(plan: _Plan, retried: bool) -> Path:
    noise = plan.noise
    if noise is None:
        raise ConfigurationError(
            f"noise: required for experiment {plan.experiment!r}"
        )
    lo, hi = noise["window"]
    if noise["seed"] is None:
        return flat_path(lo, hi, noise["dt"] / (2.0 if retried else 1.0))
    path = sample_path(noise["seed"], lo, hi, noise["dt"])
    if retried:
        path = refine(path)
    return path


_BLOCK_KEYS: dict[str, set[str]] = {
    "simulate": {"tau", "horizon", "initial"},
    "pullback": {"tau", "horizon", "initial"},
    "equilibrium": {"tau", "t_schedule", "tol", "initial"},
    "decay-rate": {"tau", "window", "fit_start", "initial_a", "initial_b", "tolerance"},
    "tail": {"tau", "horizon", "radii", "initial", "fraction_bound", "fraction_radius"},
    "truncation": {"tau", "horizon", "levels", "initial", "final_bound"},
    "upper-semi": {
        "tau",
        "horizon",
        "seeds",
        "epsilon_ladder",
        "ensemble",
        "ratio_bound",
        "max_inversions",
    },
    "cocycle-test": {"tau", "t", "s", "initial", "residual_bound"},
    "check-hypotheses": {"n_samples", "s_range", "tolerance"},
    "absorbing": {
        "tau",
        "quadrature_horizon",
        "pullback_horizon",
        "initial",
        "stability_bound",
        "constant_band",
    },
}


def _resolve(raw, out_dir_override: str | None) -> _Plan:
    if not isinstance(raw, Mapping):
        raise ConfigurationError("config root must be a JSON object")
    allowed = {"experiment", "spec", "grid", "solver", "noise", "output"} | set(
        EXPERIMENTS
    )
    _reject_unknown(raw, allowed, "config")
    experiment = _require(raw, "experiment", "config")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"config.experiment: unknown experiment {experiment!r}; "
            f"known: {list(EXPERIMENTS)}"
        )
    for name in EXPERIMENTS:
        if name in raw and name != experiment:
            raise ConfigurationError(
                f"config.{name}: block present but experiment={experiment!r}"
            )

    spec_section = _require(raw, "spec", "config")
    spec = spec_from_config(spec_section)

    grid_section = _require(raw, "grid", "config")
    _reject_unknown(grid_section, {"points_per_axis"}, "grid")
    m = _require(grid_section, "points_per_axis", "grid")
    if not isinstance(m, int):
        raise ConfigurationError("grid.points_per_axis must be an integer")
    grid = grid_for(spec, m)

    solver_section = _require(raw, "solver", "config")
    if "linear_solver_tol" in solver_section:
        raise ConfigurationError(
            "solver.linear_solver_tol was removed: both implicit solves are now "
            "direct, so there is no tolerance to set; delete the key"
        )
    _reject_unknown(solver_section, {"dt", "store_stride"}, "solver")
    stride = solver_section.get("store_stride", 1)
    if not isinstance(stride, int):
        raise ConfigurationError("solver.store_stride must be an integer")
    cfg = SolverConfig(
        dt=_number(_require(solver_section, "dt", "solver"), "solver.dt"),
        store_stride=stride,
    )

    out_section = raw.get("output", {})
    _reject_unknown(out_section, {"directory", "formats"}, "output")
    out_dir = out_section.get("directory", ".")
    formats = tuple(out_section.get("formats", ["json", "csv"]))
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigurationError(f"output.formats: unknown format {fmt!r}")
    if out_dir_override is not None:
        out_dir = out_dir_override

    plan = _Plan(
        experiment=experiment,
        spec=spec,
        grid=grid,
        cfg=cfg,
        noise=None,
        block={},
        out_dir=out_dir,
        formats=formats,
    )

    if "noise" in raw:
        plan.noise = _parse_noise(raw["noise"], plan)
    elif experiment in _NEEDS_PATH:
        raise ConfigurationError(f"noise: required for experiment {experiment!r}")

    block_raw = raw.get(experiment, {})
    if not isinstance(block_raw, Mapping):
        raise ConfigurationError(f"config.{experiment} must be a mapping")
    _reject_unknown(block_raw, _BLOCK_KEYS[experiment], f"config.{experiment}")
    plan.block = _parse_block(experiment, block_raw, plan)
    plan.block["_nonlinearity_raw"] = dict(spec_section["nonlinearity"])
    plan.block["_forcing_raw"] = dict(spec_section["forcing"])
    return plan


def _parse_block(experiment: str, b: Mapping, plan: _Plan) -> dict:
    where = f"config.{experiment}"
    grid = plan.grid
    out: dict[str, Any] = {}

    def time_of(key: str, default=None) -> float:
        if default is not None and key not in b:
            value = default
        else:
            value = _number(_require(b, key, where), f"{where}.{key}")
        return _snap_time(plan, float(value), f"{where}.{key}")

    if experiment in ("simulate", "pullback"):
        out["tau"] = time_of("tau", 0.0)
        out["horizon"] = time_of("horizon")
        if out["horizon"] < 0.0:
            raise ConfigurationError(f"{where}.horizon must be nonnegative")
        out["initial"] = _require(b, "initial", where)
    elif experiment == "equilibrium":
        out["tau"] = time_of("tau", 0.0)
        sched = _require(b, "t_schedule", where)
        if not isinstance(sched, (list, tuple)) or len(sched) < 2:
            raise ConfigurationError(f"{where}.t_schedule must list at least two horizons")
        out["t_schedule"] = [
            _snap_time(plan, _number(t, f"{where}.t_schedule[{i}]"), f"{where}.t_schedule[{i}]")
            for i, t in enumerate(sched)
        ]
        out["tol"] = _number(b.get("tol", 1e-6), f"{where}.tol")
        out["initial"] = _require(b, "initial", where)
    elif experiment == "decay-rate":
        out["tau"] = time_of("tau", 0.0)
        out["window"] = time_of("window")
        out["fit_start"] = time_of("fit_start", 1.0)
        out["tolerance"] = _number(b.get("tolerance", 0.1), f"{where}.tolerance")
        out["initial_a"] = _require(b, "initial_a", where)
        out["initial_b"] = _require(b, "initial_b", where)
    elif experiment == "tail":
        out["tau"] = time_of("tau", 0.0)
        out["horizon"] = time_of("horizon")
        radii = _require(b, "radii", where)
        if not isinstance(radii, (list, tuple)) or not radii:
            raise ConfigurationError(f"{where}.radii must be a non-empty list")
        out["radii"] = [_number(r, f"{where}.radii[{i}]") for i, r in enumerate(radii)]
        if any(r2 <= r1 for r1, r2 in zip(out["radii"], out["radii"][1:])):
            raise ConfigurationError(f"{where}.radii must be strictly increasing")
        out["initial"] = _require(b, "initial", where)
        if "fraction_bound" in b:
            out["fraction_bound"] = _number(b["fraction_bound"], f"{where}.fraction_bound")
            out["fraction_radius"] = _number(
                _require(b, "fraction_radius", where), f"{where}.fraction_radius"
            )
    elif experiment == "truncation":
        out["tau"] = time_of("tau", 0.0)
        out["horizon"] = time_of("horizon")
        levels = _require(b, "levels", where)
        if not isinstance(levels, (list, tuple)) or len(levels) < 2:
            raise ConfigurationError(f"{where}.levels must list at least two levels")
        out["levels"] = [_number(l, f"{where}.levels[{i}]") for i, l in enumerate(levels)]
        if any(l2_ <= l1_ for l1_, l2_ in zip(out["levels"], out["levels"][1:])):
            raise ConfigurationError(f"{where}.levels must be strictly increasing")
        out["final_bound"] = _number(b.get("final_bound", 1e-8), f"{where}.final_bound")
        out["initial"] = _require(b, "initial", where)
    elif experiment == "upper-semi":
        out["tau"] = time_of("tau", 0.0)
        out["horizon"] = time_of("horizon")
        seeds = _require(b, "seeds", where)
        if not isinstance(seeds, (list, tuple)) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            raise ConfigurationError(f"{where}.seeds must be a list of integers")
        out["seeds"] = list(seeds)
        ladder = _require(b, "epsilon_ladder", where)
        if not isinstance(ladder, (list, tuple)):
            raise ConfigurationError(f"{where}.epsilon_ladder must be a list")
        out["epsilon_ladder"] = [
            _number(e, f"{where}.epsilon_ladder[{i}]") for i, e in enumerate(ladder)
        ]
        ensemble = _require(b, "ensemble", where)
        if not isinstance(ensemble, (list, tuple)) or not ensemble:
            raise ConfigurationError(f"{where}.ensemble must be a non-empty list")
        out["ensemble"] = list(ensemble)
        out["ratio_bound"] = _number(b.get("ratio_bound", 0.2), f"{where}.ratio_bound")
        max_inv = b.get("max_inversions", 1)
        if not isinstance(max_inv, int):
            raise ConfigurationError(f"{where}.max_inversions must be an integer")
        out["max_inversions"] = max_inv
    elif experiment == "cocycle-test":
        out["tau"] = time_of("tau", 0.0)
        out["t"] = time_of("t")
        out["s"] = time_of("s")
        out["residual_bound"] = _number(
            b.get("residual_bound", 1e-10), f"{where}.residual_bound"
        )
        out["initial"] = _require(b, "initial", where)
    elif experiment == "check-hypotheses":
        n_samples = b.get("n_samples", 17)
        if not isinstance(n_samples, int):
            raise ConfigurationError(f"{where}.n_samples must be an integer")
        out["n_samples"] = n_samples
        out["s_range"] = _number(b.get("s_range", 5.0), f"{where}.s_range")
        out["tolerance"] = _number(b.get("tolerance", 1e-12), f"{where}.tolerance")
    elif experiment == "absorbing":
        out["tau"] = time_of("tau", 0.0)
        out["quadrature_horizon"] = time_of("quadrature_horizon")
        out["pullback_horizon"] = time_of("pullback_horizon")
        out["stability_bound"] = _number(
            b.get("stability_bound", 0.01), f"{where}.stability_bound"
        )
        out["constant_band"] = _number(b.get("constant_band", 0.2), f"{where}.constant_band")
        out["initial"] = _require(b, "initial", where)

    # materialize initial data now so bad blocks fail before any integration
    for key in ("initial", "initial_a", "initial_b"):
        if key in out:
            out[key] = _initial_field(grid, out[key], f"{where}.{key}")
            out[f"_{key}_raw"] = dict(b[key])
    if "ensemble" in out:
        fields = []
        raws = []
        for i, entry in enumerate(out["ensemble"]):
            fields.append(_initial_field(grid, entry, f"{where}.ensemble[{i}]"))
            raws.append(dict(entry))
        out["ensemble"] = fields
        out["_ensemble_raw"] = raws
    return out


# ---------------------------------------------------------------------------
# experiment execution


def _norms(state: Field, p: float) -> dict:
    return {
        "l2": l2_norm(state),
        "h1": h1_norm(state),
        f"l{p:g}": lp_norm(state, p),
    }


def _exec_simulate(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    eps = spec.epsilon
    tau, horizon = b["tau"], b["horizon"]
    u0 = b["initial"]
    w = shift(path, -tau)
    v0 = u0.with_values(u0.values * z_factor(w, eps, tau))
    traj = integrate(v0, tau, tau + horizon, w, spec, cfg)
    u_states = tuple(
        state.with_values(state.values / z_factor(w, eps, float(t)))
        for t, state in zip(traj.times, traj.states)
    )
    u_traj = Trajectory(times=traj.times, states=u_states, stride=traj.stride)
    p = spec.nonlinearity.p
    results = {
        "initial_norms": _norms(u_states[0], p),
        "final_norms": _norms(u_states[-1], p),
        "stored_states": len(u_states),
    }
    tables = {"trajectory": u_traj}
    return results, {"completed": True}, tables


def _exec_pullback(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    state = pullback_state(
        b["horizon"], b["tau"], path, spec.epsilon, b["initial"], spec, cfg
    )
    p = spec.nonlinearity.p
    results = {"norms": _norms(state, p), "tau": b["tau"], "horizon": b["horizon"]}
    return results, {"completed": True}, {"state": state}


def _exec_equilibrium(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    res = compute_equilibrium(
        b["tau"], path, spec.epsilon, spec, cfg, b["initial"], b["t_schedule"], b["tol"]
    )
    results = {
        "converged": res.converged,
        "tolerance": res.tolerance,
        "history": [[t, inc] for t, inc in res.history],
        "norms": {"l2": res.l2, "h1": res.h1, f"l{spec.nonlinearity.p:g}": res.lp},
    }
    table = (
        ["horizon", "relative_increment"],
        [[t, inc] for t, inc in res.history],
    )
    return results, {"converged": res.converged}, {"history": table, "state": res.state}


def _exec_decay_rate(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    fit = fit_decay_rate(
        b["tau"],
        path,
        spec.epsilon,
        spec,
        cfg,
        b["initial_a"],
        b["initial_b"],
        b["window"],
        b["fit_start"],
    )
    ok = fit.underflow or fit.slope <= fit.bound + b["tolerance"]
    results = {
        "slope": fit.slope,
        "bound": fit.bound,
        "tolerance": b["tolerance"],
        "underflow": fit.underflow,
    }
    table = (
        ["t", "log_sq_gap"],
        [[t, v] for t, v in zip(fit.times, fit.log_sq_gaps)],
    )
    return results, {"slope_within_tolerance": ok}, {"history": table}


def _exec_tail(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    prof = tail_profile(
        b["tau"], path, spec.epsilon, spec, cfg, b["initial"], b["horizon"], b["radii"]
    )
    rows = []
    for radius, t2, t1 in prof.rows:
        f2 = t2 / prof.full_l2 if prof.full_l2 > 0.0 else 0.0
        f1 = t1 / prof.full_h1 if prof.full_h1 > 0.0 else 0.0
        rows.append([radius, t2, t1, f2, f1])
    slack = 1e-12
    mono_l2 = all(r2[1] <= r1[1] + slack * (1.0 + r1[1]) for r1, r2 in zip(rows, rows[1:]))
    mono_h1 = all(r2[2] <= r1[2] + slack * (1.0 + r1[2]) for r1, r2 in zip(rows, rows[1:]))
    checks = {"tail_nonincreasing_l2": mono_l2, "tail_nonincreasing_h1": mono_h1}
    results = {
        "full_l2": prof.full_l2,
        "full_h1": prof.full_h1,
        "rows": rows,
    }
    if "fraction_bound" in b:
        bound = b["fraction_bound"]
        at = b["fraction_radius"]
        match = [r for r in rows if r[0] == at]
        if not match:
            raise ConfigurationError(
                f"config.tail.fraction_radius={at!r} is not one of the radii"
            )
        checks["tail_fraction_small"] = match[0][3] <= bound and match[0][4] <= bound
        results["fraction_bound"] = bound
        results["fraction_radius"] = at
    table = (["radius", "tail_l2", "tail_h1", "frac_l2", "frac_h1"], rows)
    return results, checks, {"tail": table, "state": prof.state}


def _exec_truncation(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    diags = truncation_diagnostics(
        b["tau"], path, spec.epsilon, spec, cfg, b["initial"], b["horizon"], b["levels"]
    )
    values = [d.value for d in diags]
    decreasing = all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    final_small = values[-1] <= b["final_bound"]
    results = {
        "levels": b["levels"],
        "values": values,
        "rates": [d.rho for d in diags],
        "window_max_abs": diags[0].window_max_abs,
        "final_bound": b["final_bound"],
    }
    checks = {"strictly_decreasing": decreasing, "final_small": final_small}
    table = (
        ["level", "rho", "value"],
        [[d.level, d.rho, d.value] for d in diags],
    )
    return results, checks, {"truncation": table}


def _exec_upper_semi(plan: _Plan, path: Path | None):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    res = upper_semicontinuity_sweep(
        b["tau"], b["seeds"], b["epsilon_ladder"], spec, cfg, b["ensemble"], b["horizon"]
    )
    sh = sweep_shrinks(res, b["ratio_bound"])
    checks = {
        "mean_l2_shrinks": sh["ok_l2"],
        "mean_h1_shrinks": sh["ok_h1"],
        "few_inversions_l2": sh["inversions_l2"] <= b["max_inversions"],
        "few_inversions_h1": sh["inversions_h1"] <= b["max_inversions"],
    }
    results = {
        "epsilon_ladder": list(res.epsilon_ladder),
        "mean_l2": list(res.mean_l2),
        "mean_h1": list(res.mean_h1),
        "ratio_l2": sh["ratio_l2"],
        "ratio_h1": sh["ratio_h1"],
        "inversions_l2": sh["inversions_l2"],
        "inversions_h1": sh["inversions_h1"],
        "ratio_bound": sh["ratio_bound"],
    }
    sweep_table = (
        ["epsilon", "seed", "dist_l2", "dist_h1"],
        [[r.epsilon, r.seed, r.dist_l2, r.dist_h1] for r in res.rows],
    )
    means_table = (
        ["epsilon", "mean_l2", "mean_h1"],
        [
            [e, m2, m1]
            for e, m2, m1 in zip(res.epsilon_ladder, res.mean_l2, res.mean_h1)
        ],
    )
    return results, checks, {"sweep": sweep_table, "means": means_table}


def _exec_cocycle_test(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    residual = verify_cocycle_property(
        b["t"], b["s"], b["tau"], path, spec.epsilon, b["initial"], spec, cfg
    )
    results = {"residual": residual, "bound": b["residual_bound"]}
    return results, {"residual_small": residual <= b["residual_bound"]}, {}


def _exec_check_hypotheses(plan: _Plan, path: Path | None):
    b = plan.block
    report = check_hypotheses(plan.spec, b["n_samples"], b["s_range"], b["tolerance"])
    checks = {
        name: slack >= -report.tolerance for name, slack in report.slacks.items()
    }
    results = {
        "slacks": report.slacks,
        "worst_points": {k: list(v) for k, v in report.worst_points.items()},
        "tolerance": report.tolerance,
    }
    return results, checks, {}


def _exec_absorbing(plan: _Plan, path: Path):
    b = plan.block
    spec, cfg, grid = plan.spec, plan.cfg, plan.grid
    eps = spec.epsilon
    tau = b["tau"]
    t1 = b["pullback_horizon"]
    # both pullbacks end at tau along one path, so they march as one stack
    u0 = b["initial"]
    near, far = pullback_states(
        (t1, 2.0 * t1), tau, (path, path), (eps, eps), (u0, u0), spec, cfg
    )
    obs1, obs2 = l2_norm(near), l2_norm(far)
    h1_q = b["quadrature_horizon"]
    w1 = absorbing_radius(tau, path, eps, spec, grid, h1_q, observed_norm=obs1)
    w2 = absorbing_radius(tau, path, eps, spec, grid, 2.0 * h1_q, observed_norm=obs2)
    quad_change = abs(w2.integral - w1.integral) / w1.integral
    const_change = (
        abs(w2.fitted_constant - w1.fitted_constant) / w1.fitted_constant
        if w1.fitted_constant > 0.0
        else 0.0
    )
    results = {
        "integral": w1.integral,
        "integral_doubled": w2.integral,
        "observed": obs1,
        "observed_doubled": obs2,
        "fitted_constant": w1.fitted_constant,
        "fitted_constant_doubled": w2.fitted_constant,
        "quadrature_change": quad_change,
        "constant_change": const_change,
    }
    checks = {
        "quadrature_stable": quad_change <= b["stability_bound"],
        "constant_stable": const_change <= b["constant_band"],
    }
    return results, checks, {}


_EXECUTORS: dict[str, Callable] = {
    "simulate": _exec_simulate,
    "pullback": _exec_pullback,
    "equilibrium": _exec_equilibrium,
    "decay-rate": _exec_decay_rate,
    "tail": _exec_tail,
    "truncation": _exec_truncation,
    "upper-semi": _exec_upper_semi,
    "cocycle-test": _exec_cocycle_test,
    "check-hypotheses": _exec_check_hypotheses,
    "absorbing": _exec_absorbing,
}


# ---------------------------------------------------------------------------
# output


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _emit(plan: _Plan, results, checks, tables, retried, say) -> str:
    os.makedirs(plan.out_dir, exist_ok=True)
    stem = plan.experiment
    if "csv" in plan.formats:
        for name, table in tables.items():
            target = os.path.join(plan.out_dir, f"{stem}_{name}.csv")
            if isinstance(table, Trajectory):
                buf = io.StringIO()
                write_trajectory_csv(table, buf, p=plan.spec.nonlinearity.p)
                _atomic_write(target, buf.getvalue())
            elif isinstance(table, Field):
                buf = io.StringIO()
                write_field_csv(table, buf)
                _atomic_write(target, buf.getvalue())
            else:
                header, rows = table
                _write_table_csv(target, header, rows)
            say(f"wrote {target}")
    seed = plan.noise["seed"] if plan.noise is not None else None
    summary = {
        "schema": "pullbacklab-summary/1",
        "version": __version__,
        "experiment": plan.experiment,
        "seed": seed,
        "config": plan.resolved_config(),
        "snapped": list(plan.snaps),
        "retried_after_divergence": retried,
        "results": results,
        "checks": checks,
        "passed": all(checks.values()),
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "workers": worker_count(),
        },
    }
    target = os.path.join(plan.out_dir, f"{stem}_summary.json")
    _atomic_write(target, json.dumps(_sanitize(summary), indent=2, sort_keys=True) + "\n")
    say(f"wrote {target}")
    return target


# ---------------------------------------------------------------------------
# entry points


_DESCRIPTIONS = {
    "simulate": """\
simulate: march the equation forward from time tau over a horizon along one
noise path and record the state's norms.  Emits final and initial L2/H1/Lp
norms in the summary and a trajectory CSV (columns: t, l2, h1, l{p}).""",
    "pullback": """\
pullback: start from time tau - horizon and observe at tau, driving with the
path re-based so the observation time is the origin.  Emits the observed
state's norms and a profile CSV (columns: coordinates, value).""",
    "equilibrium": """\
equilibrium: repeat the pullback over an increasing horizon schedule; the
runs converge to the unique random fixed point when lambda > alpha3.  Emits
converged flag, final norms, and a history CSV (columns: horizon,
relative_increment) whose tail must shrink monotonically.""",
    "decay-rate": """\
decay-rate: run two initial states in lockstep along one path and fit the
slope of log squared-gap against time.  The slope must not exceed
-(lambda - alpha3) plus the configured tolerance.  Emits slope, bound and a
fit-history CSV (columns: t, log_sq_gap).""",
    "tail": """\
tail: pull back over a horizon, then measure the solution's L2/H1 mass
outside balls of the configured radii.  Fractions must not increase with
radius; an optional bound checks the fraction at one radius.  Emits a CSV
(columns: radius, tail_l2, tail_h1, frac_l2, frac_h1).""",
    "truncation": """\
truncation: evaluate the damped superlevel integral over the trailing unit
window for a ladder of thresholds.  Values must decrease strictly along the
ladder and the last must fall below final_bound.  Emits a CSV (columns:
level, rho, value).""",
    "upper-semi": """\
upper-semi: approximate the attractor by pulling an ensemble back at each
intensity of a decreasing ladder, one path per seed shared across the
ladder, and measure the one-sided Hausdorff distance to the zero-intensity
sample.  Per-intensity means must shrink toward zero.  Emits sweep and means
CSVs (columns: epsilon, seed, dist_l2, dist_h1 / epsilon, mean_l2, mean_h1).""",
    "cocycle-test": """\
cocycle-test: check the two-step composition law of the solution operator
against the one-shot run on the same path; the relative L2 residual must not
exceed residual_bound (0 exactly when t or s is 0).""",
    "check-hypotheses": """\
check-hypotheses: scan the five structure conditions on the nonlinearity
(dissipativity, growth, slope bound, space gradient, slope growth) over a
deterministic lattice and report the worst slack of each; all must be
nonnegative up to the tolerance.""",
    "absorbing": """\
absorbing: evaluate the forcing-memory integral whose square root bounds
every sufficiently late pullback state, at the configured quadrature horizon
and at twice it, against observed pullback norms.  The integral must be
stable under doubling and the fitted constant must sit in the configured
band.""",
}


def describe(experiment_name: str) -> str:
    """Plain-text description of an experiment and its emitted quantities."""
    try:
        return _DESCRIPTIONS[experiment_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_name!r}; known: {list(EXPERIMENTS)}"
        ) from None


def run(config_path: str, output_dir: str | None = None, quiet: bool = False) -> int:
    """Execute the experiment named in the config file.  Returns the exit code."""

    def say(message: str) -> None:
        if not quiet:
            print(message)

    try:
        with open(config_path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"config: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON in {config_path}: {exc}", file=sys.stderr)
        return 2

    try:
        plan = _resolve(raw, output_dir)
    except ConfigurationError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2

    for line in plan.snaps:
        say(f"snapped {line}")

    executor = _EXECUTORS[plan.experiment]
    retried = False
    try:
        try:
            path = _make_path(plan, retried) if plan.experiment in _NEEDS_PATH else None
            results, checks, tables = executor(plan, path)
        except DivergenceError as exc:
            say(f"run diverged at t={exc.t}; halving dt and retrying once")
            retried = True
            plan.cfg = replace(plan.cfg, dt=plan.cfg.dt / 2.0)
            path = _make_path(plan, retried) if plan.experiment in _NEEDS_PATH else None
            results, checks, tables = executor(plan, path)
    except (ConfigurationError, OutOfWindowError, GridMismatchError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        results = {"error": str(exc)}
        checks = {"completed": False}
        tables = {}

    _emit(plan, results, checks, tables, retried, say)
    for name, ok in checks.items():
        say(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pullbacklab",
        description="numerical laboratory for pullback dynamics of a noisy "
        "reaction-diffusion equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the experiment named in a config file")
    run_parser.add_argument("--config", required=True, help="path to a JSON config")
    run_parser.add_argument(
        "--output-dir", default=None, help="override the config's output directory"
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    describe_parser = sub.add_parser("describe", help="explain an experiment")
    describe_parser.add_argument("experiment", help="experiment name")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output_dir, args.quiet)
    try:
        print(describe(args.experiment))
    except ConfigurationError as exc:
        print(f"describe: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

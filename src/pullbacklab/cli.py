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

Each experiment is one ``Experiment`` record in ``EXPERIMENTS``.  Its parser
reads each key of its block once, and a key it never read is unknown.  It
checks types, list shapes and the rules only the experiment knows, so such
a bad block exits 2 before any path is sampled.  Every other rule on a
value is the run function's: its refusal starts with the argument it
refuses, and ``run`` reports it under the block's key (``_keyed``), after
the path is sampled but still before any march.  Every other section is
read the same way, through ``model.ConfigSection``.

Exit codes: 0 all named checks passed, 1 some check failed (including a run
that diverged after the single dt-halving retry), 2 configuration problem
or an output that cannot be written (an output directory that cannot be
made is refused before any march).

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
from contextlib import contextmanager
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
from .cocycle import phi_states, pullback_state, pullback_states
from .cocycle import verify_cocycle_property
from .errors import (
    ConfigurationError,
    DivergenceError,
    GridMismatchError,
    OutOfWindowError,
)
from .field import (
    Field,
    Grid,
    Quadrature,
    eigenmode,
    gaussian_bump,
    l2_norm,
    write_field_csv,
    write_table_csv,
    zero_field,
)
from .model import ConfigSection, ProblemSpec, check_hypotheses, spec_from_config
from .noise import Path, flat_path, lattice_steps, refine, refine_levels, sample_path
from .noise import _check_intensity
from .solver import SolverConfig, worker_count

# ---------------------------------------------------------------------------
# config resolution


@dataclass
class _Plan:
    experiment: str
    spec: ProblemSpec
    epsilon: float
    grid: Grid
    cfg: SolverConfig
    stride: int
    noise: dict | None
    raw_spec: Mapping
    raw_block: Mapping
    out_dir: str
    formats: tuple[str, ...]
    block: dict = field(default_factory=dict)
    snaps: list = field(default_factory=list)

    def snapped(self) -> list[str]:
        """The snaps, then how many times :func:`_make_path` bridge-refines
        the path at the plan's dt, a retry's halved dt included."""
        levels = 0 if self.noise is None else refine_levels(self.noise["dt"], self.cfg.dt)
        if not levels:
            return list(self.snaps)
        dt = self.noise["dt"]
        note = f"noise.dt: {dt!r} -> {dt / 2**levels!r} by {levels} bridge refinements"
        return [*self.snaps, note]

    def resolved_config(self) -> dict:
        out: dict[str, Any] = {
            "experiment": self.experiment,
            "spec": {
                "lambda": self.spec.lam,
                "epsilon": self.epsilon,
                "dimension": self.grid.dimension,
                "domain_radius": self.grid.radius,
                "nonlinearity": self.raw_spec["nonlinearity"],
                "forcing": self.raw_spec["forcing"],
            },
            "grid": {"points_per_axis": self.grid.points_per_axis},
            "solver": {"dt": self.cfg.dt, "store_stride": self.stride},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }
        if self.noise is not None:
            out["noise"] = dict(self.noise)
        # initial data was materialized into Fields (an ensemble into a list
        # of them); embed the raw entries they came from instead
        out[self.experiment] = {
            k: self.raw_block[k]
            if isinstance(v, Field) or (isinstance(v, list) and v and isinstance(v[0], Field))
            else v
            for k, v in self.block.items()
        }
        return out


def _parse_noise(b: _Block) -> dict:
    seed = b.get("seed")
    if seed is not None:
        seed = b.integer("seed", least=0)
    window = b.get("window")
    b.check(isinstance(window, (list, tuple)) and len(window) == 2, "window",
            "must be [t_min, t_max]")
    dt = b.number("dt")
    b.check(dt > 0.0, "dt", f"must be positive, got {dt!r}")
    lo, hi = (b.snapped(w, b.path(f"window[{i}]")) for i, w in enumerate(window))
    b.check(lo < hi, "window", f"must be increasing, got {window!r}")
    b.check(lo <= 0.0 <= hi, "window", "must contain time 0")
    refine_levels(dt, b.plan.cfg.dt)  # raises when no halving of dt divides solver.dt
    return {"seed": seed, "window": [lo, hi], "dt": dt}


def _make_path(plan: _Plan) -> Path | None:
    """The configured path, bridge-refined the fewest times that make its
    step divide solver.dt, so the run reads samples only; None for an
    experiment that reads no configured path."""
    if plan.noise is None:
        return None
    seed, (lo, hi), dt = plan.noise["seed"], plan.noise["window"], plan.noise["dt"]
    path = flat_path(lo, hi, dt) if seed is None else sample_path(seed, lo, hi, dt)
    for _ in range(refine_levels(path.dt, plan.cfg.dt)):
        path = refine(path)
    return path


class _Block(ConfigSection):
    """A config section that also reads what the plan gives meaning to:
    times, snapped onto the dt lattice; initial data, materialized into
    Fields; a check's bounds, which must be nonnegative; and lists of
    values, each entry named by its index."""

    def __init__(self, raw, plan: _Plan, where: str):
        super().__init__(raw, where)
        self.plan = plan

    def time(self, key: str, default: float | None = None) -> float:
        return self.snapped(self.get(key, default), self.path(key))

    def initial(self, key: str) -> Field:
        return self.field(self.get(key), self.path(key))

    def bound(self, key: str, default: float | None = None) -> float:
        """A number that must be nonnegative: a check's bound or band."""
        value = self.number(key, default)
        self.check(value >= 0.0, key, "must be nonnegative")
        return value

    def items(self, key: str, read: Callable, rule: str) -> list:
        """A list, each entry read by ``read(entry, where)``."""
        entries = self.get(key)
        self.check(isinstance(entries, (list, tuple)), key, rule)
        return [read(e, f"{self.path(key)}[{i}]") for i, e in enumerate(entries)]

    def increasing(self, key: str, rule: str, least: int = 0) -> list:
        """A strictly increasing list of at least ``least`` numbers."""
        values = self.items(key, self.as_number, rule)
        self.check(len(values) >= least, key, rule)
        ok = all(a < b for a, b in zip(values, values[1:]))
        self.check(ok, key, "must be strictly increasing")
        return values

    def snapped(self, value, where: str) -> float:
        value = self.as_number(value, where)
        dt = self.plan.cfg.dt
        snapped = lattice_steps(value, dt, f"{where}={value!r}") * dt
        if snapped != value:
            self.plan.snaps.append(f"{where}: {value!r} -> {snapped!r}")
        return snapped

    def field(self, value, where: str) -> Field:
        grid = self.plan.grid
        with ConfigSection(value, where) as r:
            kind = r.kind("zero", "gaussian_bump", "eigenmode")
            if kind == "zero":
                return zero_field(grid)
            if kind == "gaussian_bump":
                return r.made(gaussian_bump, grid, r.number("amplitude"), r.number("width", 1.0))
            mode, amp = r.integer("mode"), r.number("amplitude", 1.0)
            base = r.made(eigenmode, grid, mode)
            return base.with_values(base.values * amp)


@contextmanager
def _keyed(keys: Mapping[str, str]):
    """Report a ConfigurationError whose message starts with one of
    ``keys`` under that key's config name.  A run function or constructor
    names the argument it refuses first, and ``keys`` maps each argument
    to the key it was read from; any other error passes as it is."""
    try:
        yield
    except ConfigurationError as exc:
        name, _, rule = str(exc).partition(" ")
        if name not in keys:
            raise
        raise ConfigurationError(f"{keys[name]} {rule}") from None


# the box's keys sit in the spec section, its points in the grid's
_BOX_KEYS = {
    "dimension": "spec: dimension",
    "radius": "spec: domain_radius",
    "points_per_axis": "grid: points_per_axis",
}


def _resolve(raw, out_dir_override: str | None) -> _Plan:
    with ConfigSection(raw, "config") as root:
        experiment = root.get("experiment")
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"config.experiment: unknown experiment {experiment!r}; "
                f"known: {list(EXPERIMENTS)}"
            )
        for name in EXPERIMENTS:
            if name in root and name != experiment:
                raise ConfigurationError(
                    f"config.{name}: block present but experiment={experiment!r}"
                )
        exp = EXPERIMENTS[experiment]

        # the spec section also carries the runs' intensity and box: no problem data
        spec_section = ConfigSection(root.get("spec"), "spec")
        epsilon = spec_section.number("epsilon")
        _check_intensity(epsilon, "spec: epsilon")
        box = spec_section.integer("dimension"), spec_section.number("domain_radius")
        spec = spec_from_config(spec_section)

        with ConfigSection(root.get("grid"), "grid") as r, _keyed(_BOX_KEYS):
            grid = Grid(*box, r.integer("points_per_axis"))

        with ConfigSection(root.get("solver"), "solver") as r:
            cfg = r.made(SolverConfig, r.number("dt"))
            stride = r.integer("store_stride", 1, least=1)
            r.check(exp.stores or stride == 1, "store_stride",
                    f"must be 1 for {experiment!r}, which stores nothing, got {stride}")

        with ConfigSection(root.get("output", {}), "output") as r:
            out_dir = r.get("directory", ".")
            r.check(isinstance(out_dir, str), "directory", f"must be a string, got {out_dir!r}")
            formats = r.get("formats", ["json", "csv"])
            r.check(isinstance(formats, list), "formats", f"must be a list, got {formats!r}")
            for fmt in formats:
                if fmt not in ("json", "csv"):
                    raise ConfigurationError(f"output.formats: unknown format {fmt!r}")
            r.check("json" in formats, "formats",
                    f"must include \"json\", got {formats!r}: every run writes its summary")

        plan = _Plan(
            experiment=experiment,
            spec=spec,
            epsilon=epsilon,
            grid=grid,
            cfg=cfg,
            stride=stride,
            noise=None,
            raw_spec=spec_section.raw,
            raw_block=root.get(experiment, {}),
            out_dir=out_dir if out_dir_override is None else out_dir_override,
            formats=tuple(formats),
        )

        if exp.needs_path:
            if "noise" not in root:
                raise ConfigurationError(f"noise: required for experiment {experiment!r}")
            with _Block(root.get("noise"), plan, "noise") as b:
                plan.noise = _parse_noise(b)
        elif "noise" in root:
            raise ConfigurationError(
                f"noise: experiment {experiment!r} reads no configured noise path; "
                "delete the section"
            )

        # every key is read once, so a bad block fails before any integration
        with _Block(plan.raw_block, plan, f"config.{experiment}") as b:
            plan.block = exp.parse(b)
    return plan


# ---------------------------------------------------------------------------
# experiments: each parser reads its block in the order its snaps are logged,
# and each executor's docstring is its describe text


def _norms(state: Field, p: float) -> dict:
    return dict(zip(("l2", "h1", f"l{p:g}"), Quadrature(state.grid).norms(state.values, p=p)))


def _parse_march(b: _Block) -> dict:
    out = {"tau": b.time("tau", 0.0), "horizon": b.time("horizon")}
    b.check(out["horizon"] >= 0.0, "horizon", "must be nonnegative")
    out["initial"] = b.initial("initial")
    return out


def _exec_simulate(plan: _Plan, path: Path):
    """simulate: march the equation forward from time tau over a horizon along one
    noise path and record the state's norms.  Emits final and initial L2/H1/Lp
    norms in the summary and a trajectory CSV (columns: t, l2, h1, l{p})."""
    b, spec = plan.block, plan.spec
    run = (b["horizon"], b["tau"], path, plan.epsilon, b["initial"], spec, plan.cfg, plan.stride)
    # each stored state is reduced to its CSV row, in one checked pass, as
    # the run yields it
    quad, p = Quadrature(plan.grid), spec.nonlinearity.p
    rows = [[float(t), *quad.norms(u, p=p)] for t, u in phi_states(*run)]
    names = ("l2", "h1", f"l{p:g}")
    results = {
        "initial_norms": dict(zip(names, rows[0][1:])),
        "final_norms": dict(zip(names, rows[-1][1:])),
        "stored_states": len(rows),
    }
    return results, {"completed": True}, {"trajectory": (["t", *names], rows)}


def _exec_pullback(plan: _Plan, path: Path):
    """pullback: start from time tau - horizon and observe at tau, driving with the
    path re-based so the observation time is the origin.  Emits the observed
    state's norms and a profile CSV (columns: coordinates, value)."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    state = pullback_state(
        b["horizon"], b["tau"], path, plan.epsilon, b["initial"], spec, cfg
    )
    p = spec.nonlinearity.p
    results = {"norms": _norms(state, p), "tau": b["tau"], "horizon": b["horizon"]}
    return results, {"completed": True}, {"state": state}


def _parse_equilibrium(b: _Block) -> dict:
    return {
        "tau": b.time("tau", 0.0),
        "t_schedule": b.items("t_schedule", b.snapped, "must be a list"),
        "tol": b.number("tol", 1e-6),
        "initial": b.initial("initial"),
    }


def _exec_equilibrium(plan: _Plan, path: Path):
    """equilibrium: repeat the pullback over an increasing horizon schedule; the
    runs converge to the unique random fixed point when lambda > alpha3.  Emits
    converged flag, final norms, and a history CSV (columns: horizon,
    relative_increment) whose tail must shrink monotonically."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    res = compute_equilibrium(
        b["tau"], path, plan.epsilon, spec, cfg, b["initial"], b["t_schedule"], b["tol"]
    )
    results = {
        "converged": res.converged,
        "tolerance": b["tol"],
        "history": [[t, inc] for t, inc in res.history],
        "norms": {"l2": res.l2, "h1": res.h1, f"l{spec.nonlinearity.p:g}": res.lp},
    }
    table = (
        ["horizon", "relative_increment"],
        [[t, inc] for t, inc in res.history],
    )
    return results, {"converged": res.converged}, {"history": table, "state": res.state}


def _parse_decay_rate(b: _Block) -> dict:
    return {
        "tau": b.time("tau", 0.0),
        "window": b.time("window"),
        "fit_start": b.time("fit_start", 1.0),
        "tolerance": b.number("tolerance", 0.1),
        "initial_a": b.initial("initial_a"),
        "initial_b": b.initial("initial_b"),
    }


def _exec_decay_rate(plan: _Plan, path: Path):
    """decay-rate: run two initial states, given at time tau, in lockstep from tau
    along one path re-based at tau (as simulate does) and fit the slope of log
    squared-gap against time.  The slope must lie at or below -(lambda - alpha3)
    plus the configured tolerance.  Emits slope, bound and a fit-history CSV
    (columns: t, log_sq_gap)."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    fit = fit_decay_rate(
        b["tau"], path, plan.epsilon, spec, cfg,
        b["initial_a"], b["initial_b"], b["window"], b["fit_start"],
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


def _parse_tail(b: _Block) -> dict:
    out = {
        "tau": b.time("tau", 0.0),
        "horizon": b.time("horizon"),
        "radii": b.increasing("radii", "must be a list"),
        "initial": b.initial("initial"),
    }
    # the optional check at one radius takes both keys
    if "fraction_bound" in b or "fraction_radius" in b:
        out["fraction_bound"] = b.bound("fraction_bound")
        at = out["fraction_radius"] = b.number("fraction_radius")
        if at not in out["radii"]:
            raise ConfigurationError(f"{b.where}.fraction_radius={at!r} is not one of the radii")
    return out


def _exec_tail(plan: _Plan, path: Path):
    """tail: pull back over a horizon, then measure the solution's L2/H1 mass
    outside balls of the configured radii.  Fractions must not increase with
    radius; an optional bound checks the fraction at one radius.  Emits a CSV
    (columns: radius, tail_l2, tail_h1, frac_l2, frac_h1)."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    prof = tail_profile(
        b["tau"], path, plan.epsilon, spec, cfg, b["initial"], b["horizon"], b["radii"]
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
        bound, at = b["fraction_bound"], b["fraction_radius"]
        f2, f1 = next(row[3:] for row in rows if row[0] == at)
        checks["tail_fraction_small"] = f2 <= bound and f1 <= bound
        results["fraction_bound"] = bound
        results["fraction_radius"] = at
    table = (["radius", "tail_l2", "tail_h1", "frac_l2", "frac_h1"], rows)
    return results, checks, {"tail": table, "state": prof.state}


def _parse_truncation(b: _Block) -> dict:
    out = {
        "tau": b.time("tau", 0.0),
        "horizon": b.time("horizon"),
        "levels": b.increasing("levels", "must list at least two levels", 2),
        "final_bound": b.bound("final_bound", 1e-8),
        "initial": b.initial("initial"),
    }
    # the unit window is counted on the lattice, as truncation_diagnostics
    # counts it, before any path is sampled
    lattice_steps(1.0, b.plan.cfg.dt, "the unit window 1.0")
    return out


def _exec_truncation(plan: _Plan, path: Path):
    """truncation: evaluate the damped superlevel integral over the trailing unit
    window for a ladder of thresholds.  Values must decrease strictly along the
    ladder and the last must fall below final_bound.  Emits a CSV (columns:
    level, rho, value)."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    diags = truncation_diagnostics(
        b["tau"], path, plan.epsilon, spec, cfg, b["initial"], b["horizon"], b["levels"]
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


def _seed(value, where: str) -> int:
    return ConfigSection.as_integer(value, where, least=0)


def _parse_upper_semi(b: _Block) -> dict:
    return {
        "tau": b.time("tau", 0.0),
        "horizon": b.time("horizon"),
        "seeds": b.items("seeds", _seed, "must be a list of integers"),
        "epsilon_ladder": b.items("epsilon_ladder", b.as_number, "must be a list"),
        "ensemble": b.items("ensemble", b.field, "must be a list"),
        "ratio_bound": b.bound("ratio_bound", 0.2),
        "max_inversions": b.integer("max_inversions", 1, least=0),
    }


def _exec_upper_semi(plan: _Plan, path: Path | None):
    """upper-semi: approximate the attractor by pulling an ensemble back at each
    intensity of a decreasing ladder, one path per seed shared across the
    ladder, and measure the one-sided Hausdorff distance to the zero-intensity
    sample.  Per-intensity means must shrink toward zero.  Emits sweep and means
    CSVs (columns: epsilon, seed, dist_l2, dist_h1 / epsilon, mean_l2, mean_h1)."""
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


def _parse_cocycle_test(b: _Block) -> dict:
    return {
        "tau": b.time("tau", 0.0),
        "t": b.time("t"),
        "s": b.time("s"),
        "residual_bound": b.bound("residual_bound", 1e-10),
        "initial": b.initial("initial"),
    }


def _exec_cocycle_test(plan: _Plan, path: Path):
    """cocycle-test: check the two-step composition law of the solution operator
    against the one-shot run on the same path; the relative L2 residual must not
    exceed residual_bound (0 exactly when t or s is 0)."""
    b = plan.block
    spec, cfg = plan.spec, plan.cfg
    residual = verify_cocycle_property(
        b["t"], b["s"], b["tau"], path, plan.epsilon, b["initial"], spec, cfg
    )
    results = {"residual": residual, "bound": b["residual_bound"]}
    return results, {"residual_small": residual <= b["residual_bound"]}, {}


def _parse_check_hypotheses(b: _Block) -> dict:
    return {
        "n_samples": b.integer("n_samples", 17),
        "s_range": b.number("s_range", 5.0),
        "tolerance": b.number("tolerance", 1e-12),
    }


def _exec_check_hypotheses(plan: _Plan, path: Path | None):
    """check-hypotheses: scan the five structure conditions on the nonlinearity
    (dissipativity, growth, slope bound, space gradient, slope growth) over a
    deterministic lattice and report the worst slack of each; all must be
    nonnegative up to the tolerance."""
    b = plan.block
    report = check_hypotheses(plan.spec, plan.grid, b["n_samples"], b["s_range"])
    checks = {name: slack >= -b["tolerance"] for name, slack in report.slacks.items()}
    results = {
        "slacks": report.slacks,
        "worst_points": {k: list(v) for k, v in report.worst_points.items()},
        "tolerance": b["tolerance"],
    }
    return results, checks, {}


def _parse_absorbing(b: _Block) -> dict:
    out = {
        "tau": b.time("tau", 0.0),
        "quadrature_horizon": b.time("quadrature_horizon"),
        "pullback_horizon": b.time("pullback_horizon"),
        "stability_bound": b.bound("stability_bound", 0.01),
        "constant_band": b.bound("constant_band", 0.2),
        "initial": b.initial("initial"),
    }
    # absorbing_radius takes the marched norm, so its own check fires only after the march
    for key in ("quadrature_horizon", "pullback_horizon"):
        b.check(out[key] > 0.0, key, "must be positive")
    return out


def _exec_absorbing(plan: _Plan, path: Path):
    """absorbing: evaluate the forcing-memory integral whose square root bounds
    every sufficiently late pullback state, at the configured quadrature horizon
    and at twice it, against observed pullback norms.  The integral must be
    stable under doubling and the fitted constant must sit in the configured
    band."""
    b = plan.block
    spec, cfg, grid = plan.spec, plan.cfg, plan.grid
    eps = plan.epsilon
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


@dataclass(frozen=True)
class Experiment:
    """``parse`` reads the config block into ``plan.block``; ``execute(plan,
    path)`` returns (results, checks, tables), and its docstring is the
    ``describe`` text.  A table is a (header, rows) pair or a Field.  Only an
    experiment that ``needs_path`` marches along the configured noise path,
    so only its config has a noise section, and only one that ``stores`` a
    trajectory reads ``solver.store_stride``: any other takes only 1."""

    parse: Callable[[_Block], dict]
    execute: Callable[[_Plan, Path | None], tuple]
    needs_path: bool = True
    stores: bool = False


EXPERIMENTS: dict[str, Experiment] = {
    "simulate": Experiment(_parse_march, _exec_simulate, stores=True),
    "pullback": Experiment(_parse_march, _exec_pullback),
    "equilibrium": Experiment(_parse_equilibrium, _exec_equilibrium),
    "decay-rate": Experiment(_parse_decay_rate, _exec_decay_rate),
    "tail": Experiment(_parse_tail, _exec_tail),
    "truncation": Experiment(_parse_truncation, _exec_truncation),
    "upper-semi": Experiment(_parse_upper_semi, _exec_upper_semi, needs_path=False),
    "cocycle-test": Experiment(_parse_cocycle_test, _exec_cocycle_test),
    "check-hypotheses": Experiment(
        _parse_check_hypotheses, _exec_check_hypotheses, needs_path=False
    ),
    "absorbing": Experiment(_parse_absorbing, _exec_absorbing),
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
    """Write ``text`` to ``path`` through a file beside it, renamed over it
    once written.  That file is made by ``open``, so the umask sets its
    mode as for any new file (``tempfile.mkstemp`` makes it owner-only),
    and exclusively (``"x"``), under a random name: a name that another
    writer holds raises rather than being shared."""
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
    handle = open(tmp, "x", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _blocking_file(directory: str) -> str | None:
    """The nearest existing ancestor of ``directory``, itself included,
    when it is not a directory, so that no directory can be made there;
    None otherwise."""
    probe = os.path.abspath(directory)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    return None if os.path.isdir(probe) else probe


def _emit(plan: _Plan, results, checks, tables, retried, say) -> str:
    os.makedirs(plan.out_dir, exist_ok=True)
    stem = plan.experiment
    if "csv" in plan.formats:
        for name, table in tables.items():
            target = os.path.join(plan.out_dir, f"{stem}_{name}.csv")
            buf = io.StringIO()
            if isinstance(table, Field):
                write_field_csv(table, buf)
            else:
                write_table_csv(*table, buf)
            _atomic_write(target, buf.getvalue())
            say(f"wrote {target}")
    seed = plan.noise["seed"] if plan.noise is not None else None
    summary = {
        "schema": "pullbacklab-summary/1",
        "version": __version__,
        "experiment": plan.experiment,
        "seed": seed,
        "config": plan.resolved_config(),
        "snapped": plan.snapped(),
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


def describe(experiment_name: str) -> str:
    """Plain-text description of an experiment and its emitted quantities:
    its executor's docstring."""
    import inspect  # already loaded by dataclasses

    try:
        return inspect.getdoc(EXPERIMENTS[experiment_name].execute)
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

    blocker = _blocking_file(plan.out_dir)
    if blocker is not None:
        print(f"output: cannot make {plan.out_dir}: {blocker} is not a directory", file=sys.stderr)
        return 2

    for line in plan.snapped():
        say(f"snapped {line}")

    execute = EXPERIMENTS[plan.experiment].execute
    # the run functions check their own arguments, named as the block's keys
    keys = {key: f"config.{plan.experiment}.{key}" for key in plan.block}
    retried = False
    try:
        with _keyed(keys):
            try:
                results, checks, tables = execute(plan, _make_path(plan))
            except DivergenceError as exc:
                say(f"run diverged at t={exc.t}; halving dt and retrying once")
                retried = True
                plan.cfg = replace(plan.cfg, dt=plan.cfg.dt / 2.0)
                results, checks, tables = execute(plan, _make_path(plan))
    except (ConfigurationError, OutOfWindowError, GridMismatchError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        results = {"error": str(exc)}
        checks = {"completed": False}
        tables = {}

    try:
        _emit(plan, results, checks, tables, retried, say)
    except OSError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return 2
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

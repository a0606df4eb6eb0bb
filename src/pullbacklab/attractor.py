"""Pullback objects: random equilibria, attractor samples, bound witnesses.

Everything here is built from repeated cocycle evaluations with the start
time pushed further into the past while the observation time stays put.
The module provides

* :func:`compute_equilibrium` -- the pullback limit state for a scalar
  observation time, with a Cauchy-increment convergence history,
* :func:`fit_decay_rate` -- the observed contraction rate between two runs
  of the conjugated equation, for comparison against ``-(lambda - alpha3)``,
* :func:`approximate_attractor` / :func:`hausdorff_semidistance` /
  :func:`upper_semicontinuity_sweep` -- finite-ensemble attractor snapshots
  and their behaviour as the noise intensity is driven to zero,
* :func:`tail_profile` -- mass of the pullback state outside centred balls,
* :func:`truncation_diagnostics` -- the damped superlevel integral that
  controls how much of the solution lives above each threshold of a ladder,
* :func:`window_regularity_report` / :func:`absorbing_radius` -- observed
  energy quantities paired with the forcing-memory integrals that bound
  them, packaged as :class:`BoundWitness` records with fitted constants.

The sup/integral pairings deliberately report the *fitted* constant rather
than asserting a particular one: the theory guarantees existence of a bound,
the laboratory measures its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .field import Field, Grid, Quadrature, check_levels, check_tail_radii
from .model import ProblemSpec, forcing_norms_sq
from .noise import (
    Path,
    flat_path,
    lattice_steps,
    sample_path,
    z_series,
    z_window_bounds,
)
from .solver import (
    SolverConfig,
    difference_history,
    final_states,
    steps_between,
    stored_values,
)
from .cocycle import _rebased, pullback_state, pullback_states


def _require_contractive(spec: ProblemSpec, what: str) -> float:
    gap = spec.lam - spec.nonlinearity.alpha3
    if gap <= 0.0:
        raise ConfigurationError(
            f"{what} needs lambda > alpha3 (gap {gap!r} is not positive)"
        )
    return gap


# ---------------------------------------------------------------------------
# random equilibria


@dataclass(frozen=True)
class EquilibriumResult:
    """Pullback limit at one observation time.

    ``history`` holds (horizon, relative L2 increment) pairs, one per
    consecutive pair of horizons in the schedule.  ``converged`` records
    whether the final increment dipped below the tolerance.
    """

    state: Field
    history: tuple[tuple[float, float], ...]
    converged: bool
    l2: float
    h1: float
    lp: float


def compute_equilibrium(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    u0: Field,
    t_schedule: Sequence[float],
    tol: float = 1e-6,
) -> EquilibriumResult:
    """Run the pullback limit over an increasing schedule of horizons.

    Each horizon starts the run from the same ``u0``, pushed further into
    the past; the contraction of the conjugated equation makes the states
    at time ``tau`` a Cauchy sequence.  All horizons share the path and the
    end time, so they are marched as one staggered stack
    (:func:`~pullbacklab.cocycle.pullback_states`): the schedule costs the
    steps of its longest horizon, and every state equals its own
    :func:`~pullbacklab.cocycle.pullback_state` bit for bit.  Requires
    ``lambda > alpha3``.
    """
    _require_contractive(spec, "compute_equilibrium")
    horizons = [float(t) for t in t_schedule]
    if len(horizons) < 2:
        raise ConfigurationError("t_schedule must list at least two horizons")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigurationError("t_schedule must be strictly increasing")
    if horizons[0] <= 0.0:
        raise ConfigurationError("t_schedule must hold positive horizons")
    if tol <= 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")

    k = len(horizons)
    states = pullback_states(
        horizons, tau, (path,) * k, (epsilon,) * k, (u0,) * k, spec, cfg
    )
    quad = Quadrature(u0.grid)
    history: list[tuple[float, float]] = []
    for t_n, prev, cur in zip(horizons[1:], states, states[1:]):
        gap = quad.norms(cur.values - prev.values, h1=False)[0]
        history.append((t_n, gap / (1.0 + quad.norms(cur.values, h1=False)[0])))
    state = states[-1]
    converged = history[-1][1] <= tol
    l2, h1, lp = quad.norms(state.values, p=spec.nonlinearity.p)
    return EquilibriumResult(
        state=state, history=tuple(history), converged=converged, l2=l2, h1=h1, lp=lp
    )


# ---------------------------------------------------------------------------
# contraction rate


@dataclass(frozen=True)
class DecayFitResult:
    """Least-squares slope of log ||v_a - v_b||^2 against time."""

    slope: float
    bound: float
    underflow: bool
    times: tuple[float, ...]
    log_sq_gaps: tuple[float, ...]


def fit_decay_rate(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    initial_a: Field,
    initial_b: Field,
    window: float,
    fit_start: float = 1.0,
) -> DecayFitResult:
    """Measure the contraction rate of the conjugated equation.

    Two runs from distinct data along the same path, both forward runs from
    time ``tau`` as :func:`~pullbacklab.cocycle.phi` takes them:
    ``initial_a`` and ``initial_b`` are the data at ``tau``, conjugated
    there, and the path is re-based at ``tau`` (shift(path, -tau)).  The
    squared L2 gap of the conjugated runs is fitted on [tau + fit_start,
    tau + window] where the transient has died off.  Theory puts the slope
    at or below ``-(lambda - alpha3)`` up to time-stepping error; the
    caller compares ``slope`` against ``bound``.

    If the gap underflows to exactly zero inside the window the slope is
    reported as ``-inf`` with ``underflow`` set, which still certifies
    contraction.
    """
    gap = _require_contractive(spec, "fit_decay_rate")
    if not 0.0 <= fit_start < window:
        raise ConfigurationError(
            f"fit_start must lie in [0, window={window!r}), got {fit_start!r}"
        )
    if np.array_equal(initial_a.values, initial_b.values):
        raise ConfigurationError("initial_a and initial_b must differ somewhere")
    first = lattice_steps(fit_start, cfg.dt, f"fit_start={fit_start!r}")
    n = steps_between(tau, tau + window, cfg.dt)
    stride = max(1, n // 512)
    w, v0_a = _rebased(path, epsilon, tau, tau, initial_a, cfg.dt)
    _, v0_b = _rebased(path, epsilon, tau, tau, initial_b, cfg.dt)
    times, sq = difference_history(
        v0_a, v0_b, tau, tau + window, w, epsilon, spec, cfg, sample_stride=stride
    )
    if np.any(sq == 0.0):
        return DecayFitResult(
            slope=float("-inf"),
            bound=-gap,
            underflow=True,
            times=tuple(float(t) for t in times),
            log_sq_gaps=(),
        )
    # the sample times are tau + k*dt, computed as this threshold is
    mask = times >= tau + first * cfg.dt
    logs = np.log(sq[mask])
    slope = float(np.polyfit(times[mask], logs, 1)[0])
    return DecayFitResult(
        slope=slope,
        bound=-gap,
        underflow=False,
        times=tuple(float(t) for t in times[mask]),
        log_sq_gaps=tuple(float(v) for v in logs),
    )


# ---------------------------------------------------------------------------
# attractor samples and upper semicontinuity


@dataclass(frozen=True)
class AttractorSample:
    """Pullback images of a finite ensemble at one observation time."""

    members: tuple[Field, ...]
    diameter: float


def approximate_attractor(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    ensemble: Sequence[Field],
    horizon: float,
) -> AttractorSample:
    """Pull every ensemble member back over ``horizon`` and collect the images.

    The members are marched together as one stack.
    """
    _check_ensemble(ensemble)
    k = len(ensemble)
    members = pullback_states(
        (horizon,) * k, tau, (path,) * k, (epsilon,) * k, ensemble, spec, cfg
    )
    quad = Quadrature(ensemble[0].grid)
    diameter = 0.0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            diameter = max(diameter, quad.norms(a.values - b.values, h1=False)[0])
    return AttractorSample(members=members, diameter=diameter)


def _check_ensemble(ensemble: Sequence[Field]) -> None:
    if not ensemble:
        raise ConfigurationError("ensemble must be a non-empty list")
    grid = ensemble[0].grid
    for member in ensemble[1:]:
        if member.grid != grid:
            raise GridMismatchError("ensemble members live on different grids")


def hausdorff_semidistance(
    sample_a: Sequence[Field], sample_b: Sequence[Field]
) -> tuple[float, float]:
    """sup over a in A of the distance from a to the set B, as (L2, H1) from
    one ``Quadrature.norms`` pass per pair; not symmetric, and each norm
    takes its own nearest member of B."""
    if not sample_a or not sample_b:
        raise ConfigurationError("both samples must be non-empty")
    grid = sample_a[0].grid
    for member in (*sample_a, *sample_b):
        if member.grid != grid:
            raise GridMismatchError("samples live on different grids")
    quad = Quadrature(grid)
    worst_l2 = worst_h1 = 0.0
    for a in sample_a:
        best_l2 = best_h1 = math.inf
        for b in sample_b:
            l2, h1, _ = quad.norms(a.values - b.values)
            best_l2, best_h1 = min(best_l2, l2), min(best_h1, h1)
        worst_l2, worst_h1 = max(worst_l2, best_l2), max(worst_h1, best_h1)
    return worst_l2, worst_h1


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    seed: int
    dist_l2: float
    dist_h1: float


@dataclass(frozen=True)
class SweepResult:
    """Distances to the zero-noise attractor sample, per intensity and seed."""

    epsilon_ladder: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    mean_l2: tuple[float, ...]
    mean_h1: tuple[float, ...]


def upper_semicontinuity_sweep(
    tau: float,
    seeds: Sequence[int],
    epsilon_ladder: Sequence[float],
    spec: ProblemSpec,
    cfg: SolverConfig,
    ensemble: Sequence[Field],
    horizon: float,
) -> SweepResult:
    """Distance from the noisy attractor sample to the zero-noise one, as the
    intensity steps down a ladder.

    One path per seed serves every intensity, so the ladder comparison is
    against a common noise realisation.  Aggregation is a plain mean in seed
    order, so reruns reproduce byte-identical results.  All pullbacks, the
    zero-noise reference included, are marched together as one stack; a
    divergence anywhere raises at the first time some column diverges.
    """
    if not seeds:
        raise ConfigurationError("seeds must be a non-empty list of integers")
    ladder = [float(e) for e in epsilon_ladder]
    if not ladder:
        raise ConfigurationError("epsilon_ladder must be a non-empty list")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError("epsilon_ladder must be strictly decreasing")
    if ladder[-1] < 0.0 or ladder[0] > 1.0:
        raise ConfigurationError("epsilon_ladder must stay inside [0, 1]")
    _check_ensemble(ensemble)
    # over no time each sample would be the ensemble itself, at every intensity
    if horizon <= 0.0:
        raise ConfigurationError(f"horizon must be positive, got {horizon!r}")

    lo = min(-horizon, -tau, 0.0)
    hi = max(0.0, -tau)
    paths = {seed: sample_path(seed, lo, hi, cfg.dt) for seed in seeds}
    # one cell per attractor sample: the zero-noise reference first
    cells = [(flat_path(lo, hi, cfg.dt), 0.0)]
    cells += [(paths[seed], eps) for eps in ladder for seed in seeds]
    k = len(ensemble)
    members = pullback_states(
        (horizon,) * (k * len(cells)),
        tau,
        [path for path, _ in cells for _ in range(k)],
        [eps for _, eps in cells for _ in range(k)],
        list(ensemble) * len(cells),
        spec,
        cfg,
    )
    samples = (members[i : i + k] for i in range(0, len(members), k))
    reference = next(samples)

    rows: list[SweepRow] = []
    mean_l2: list[float] = []
    mean_h1: list[float] = []
    for eps in ladder:
        dists_l2 = []
        dists_h1 = []
        for seed in seeds:
            sample = next(samples)
            d2, d1 = hausdorff_semidistance(sample, reference)
            rows.append(SweepRow(epsilon=eps, seed=seed, dist_l2=d2, dist_h1=d1))
            dists_l2.append(d2)
            dists_h1.append(d1)
        mean_l2.append(sum(dists_l2) / len(dists_l2))
        mean_h1.append(sum(dists_h1) / len(dists_h1))
    return SweepResult(
        epsilon_ladder=tuple(ladder),
        rows=tuple(rows),
        mean_l2=tuple(mean_l2),
        mean_h1=tuple(mean_h1),
    )


def sweep_shrinks(result: SweepResult, ratio_bound: float = 0.2) -> dict:
    """Check a sweep for the shrink-to-zero signature.

    Returns counts of mean inversions (a mean that grew when the intensity
    stepped down) and the small-to-large intensity mean ratios, together
    with pass booleans against ``ratio_bound``.
    """
    inversions_l2 = sum(
        1 for a, b in zip(result.mean_l2, result.mean_l2[1:]) if b > a
    )
    inversions_h1 = sum(
        1 for a, b in zip(result.mean_h1, result.mean_h1[1:]) if b > a
    )
    def ratio(means: tuple[float, ...]) -> float:
        if means[0] == 0.0:
            return 0.0 if means[-1] == 0.0 else math.inf
        return means[-1] / means[0]
    r2 = ratio(result.mean_l2)
    r1 = ratio(result.mean_h1)
    return {
        "inversions_l2": inversions_l2,
        "inversions_h1": inversions_h1,
        "ratio_l2": r2,
        "ratio_h1": r1,
        "ok_l2": r2 <= ratio_bound,
        "ok_h1": r1 <= ratio_bound,
    }


# ---------------------------------------------------------------------------
# tails and truncation


@dataclass(frozen=True)
class TailProfile:
    """Mass of the pullback state outside centred balls of growing radius."""

    full_l2: float
    full_h1: float
    rows: tuple[tuple[float, float, float], ...]  # (radius, tail_l2, tail_h1)
    state: Field


def tail_profile(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    u0: Field,
    horizon: float,
    radii: Sequence[float],
) -> TailProfile:
    """Pull ``u0`` back over ``horizon`` and measure the mass beyond each radius."""
    if not radii:
        raise ConfigurationError("radii must be a non-empty list")
    check_tail_radii(u0.grid, radii)
    if horizon < 0.0:
        raise ConfigurationError(f"horizon must be nonnegative, got {horizon!r}")
    state = pullback_state(horizon, tau, path, epsilon, u0, spec, cfg)
    quad = Quadrature(state.grid)
    full_l2, full_h1, _ = quad.norms(state.values)
    radii = [float(k) for k in radii]
    rows = tuple((k, *tail) for k, tail in zip(radii, quad.tails(state.values, radii)))
    return TailProfile(full_l2=full_l2, full_h1=full_h1, rows=rows, state=state)


@dataclass(frozen=True)
class TruncationDiagnostic:
    """Damped integral of the superlevel mass over the trailing unit window.

    ``value`` is the trapezoid, over the stored times s in [tau - 1, tau],
    of exp(rho * (s - tau)) times the superlevel mass of the conjugated
    state v at s: h^N times the sum of |v|^(2p - 4) over the grid points
    where |v| >= level, as
    :func:`~pullbacklab.field.superlevel_measure_integrand` sums it.
    ``rho`` grows like level^(p - 2), so raising the level damps the
    history harder while the superlevel set itself shrinks; the value must
    fall on any ladder of levels that climbs past the solution's amplitude,
    hitting exactly zero once the level clears it.
    """

    level: float
    rho: float
    value: float
    window_max_abs: float


def truncation_rate(
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    tau: float,
    level: float,
) -> float:
    """Damping rate rho = alpha1 * E^(2-p) * exp(-(p-2)|omega(-tau)|) * level^(p-2).

    E is the minimum of z over the unit window [-1, 0] of the underlying
    path, so the rate is a pathwise quantity, not a constant.
    """
    return _truncation_rates(path, epsilon, spec, tau, [level])[0]


def _truncation_rates(
    path: Path, epsilon: float, spec: ProblemSpec, tau: float, levels: Sequence[float]
) -> list[float]:
    """:func:`truncation_rate` at each of ``levels``, bit for bit.  The window
    scan for E and omega(-tau) do not depend on the level, so they and the
    product's leading factors are computed once."""
    check_levels(levels)
    if len(levels) == 0:
        return []
    nl = spec.nonlinearity
    z_min, _ = z_window_bounds(path, epsilon)
    w_tau = path.value_at(-tau)
    prefactor = nl.alpha1 * z_min ** (2.0 - nl.p) * math.exp(-(nl.p - 2.0) * abs(w_tau))
    return [prefactor * level ** (nl.p - 2.0) for level in levels]


def truncation_diagnostics(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    u0: Field,
    horizon: float,
    levels: Sequence[float],
) -> tuple[TruncationDiagnostic, ...]:
    """Evaluate the truncation integral for every threshold in ``levels``.

    The conjugated run covers [tau - horizon, tau]; only the final unit
    window enters the integral, the earlier part just burns in the state.
    The run does not depend on the level, so it is marched once and every
    level is read off the same window, state by state as
    :func:`~pullbacklab.solver.stored_values` yields it: no state is kept,
    only each level's integrand and the window's largest amplitude.  Each
    state goes through one :meth:`~pullbacklab.field.Quadrature.superlevel`
    pass, which checks it as a :class:`Field` is and takes its |v| once for
    the maximum and every level's mass.  Needs ``horizon >= 1``.
    """
    unit = lattice_steps(1.0, cfg.dt, "the unit window 1.0")
    if lattice_steps(horizon, cfg.dt, f"horizon={horizon!r}") < unit:
        raise ConfigurationError(
            f"horizon must cover the unit window: at least 1, got {horizon!r}"
        )
    power = 2.0 * spec.nonlinearity.p - 4.0
    if power <= 0.0:
        raise ConfigurationError(f"power 2p - 4 must be positive, got {power}")
    rhos = _truncation_rates(path, epsilon, spec, tau, levels)
    w, v0 = _rebased(path, epsilon, tau, tau - horizon, u0, cfg.dt)
    burn_end = tau - 1.0
    (v_burn,) = final_states((v0,), (tau - horizon,), burn_end, (w,), (epsilon,), spec, cfg)
    quad = Quadrature(u0.grid)
    times, integrands, window_max = [], [[] for _ in levels], 0.0
    window = stored_values((v_burn,), burn_end, tau, (w,), (epsilon,), spec, cfg, 1)
    for s, v in window:
        top, masses = quad.superlevel(v[0], levels, power)
        times.append(s)
        window_max = max(window_max, top)
        for rho, integrand, mass in zip(rhos, integrands, masses):
            integrand.append(math.exp(rho * (s - tau)) * mass)
    return tuple(
        TruncationDiagnostic(
            level=level,
            rho=rho,
            value=float(np.trapezoid(np.array(integrand), np.array(times))),
            window_max_abs=window_max,
        )
        for level, rho, integrand in zip(levels, rhos, integrands)
    )


def truncation_diagnostic(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    u0: Field,
    horizon: float,
    level: float,
) -> TruncationDiagnostic:
    """The truncation integral for one threshold ``level``; the one-level
    case of :func:`truncation_diagnostics`."""
    return truncation_diagnostics(
        tau, path, epsilon, spec, cfg, u0, horizon, (level,)
    )[0]


# ---------------------------------------------------------------------------
# regularity witnesses and the absorbing radius


@dataclass(frozen=True)
class BoundWitness:
    """An observed quantity paired with the integral that bounds it.

    ``fitted_constant`` is observed / integral; the theory asserts the
    existence of a finite constant, the laboratory reports its size.
    """

    observed: float
    integral: float
    fitted_constant: float


def _memory_integral(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    grid: Grid,
    horizon: float,
    dt: float,
) -> float:
    """exp(2 eps omega(-tau)) * trapezoid of e^(lam s) z(s)^2 (||g(s+tau)||^2 + 1)
    over s in [-horizon, 0], sampled on the path lattice."""
    n = steps_between(-horizon, 0.0, dt)
    s_nodes = -horizon + dt * np.arange(n + 1)
    s_nodes[-1] = 0.0
    zs = z_series(path, epsilon, -horizon, n + 1, dt)
    g_sq = forcing_norms_sq(spec.forcing, grid, s_nodes + tau)
    integrand = np.exp(spec.lam * s_nodes) * zs**2 * (g_sq + 1.0)
    value = float(np.trapezoid(integrand, s_nodes))
    w_tau = path.value_at(-tau)
    return math.exp(2.0 * epsilon * w_tau) * value


def absorbing_radius(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    grid: Grid,
    quadrature_horizon: float,
    observed_norm: float = float("nan"),
) -> BoundWitness:
    """The forcing-memory integral whose square root bounds the pullback
    absorbing radius at time ``tau``, with an optional observed norm.

    The integrand decays like e^(lam s) into the past, so the quadrature
    horizon only needs to clear the memory of the forcing; doubling it must
    leave the value nearly unchanged, which the caller can and should check.
    """
    if quadrature_horizon <= 0.0:
        raise ConfigurationError(
            f"quadrature_horizon must be positive, got {quadrature_horizon!r}"
        )
    integral = _memory_integral(
        tau, path, epsilon, spec, grid, quadrature_horizon, path.dt
    )
    fitted = observed_norm / math.sqrt(integral) if not math.isnan(observed_norm) else float("nan")
    return BoundWitness(observed=observed_norm, integral=integral, fitted_constant=fitted)


def window_regularity_report(
    tau: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    u0: Field,
    horizon: float,
) -> dict[str, BoundWitness]:
    """Observed energy quantities of the conjugated pullback run, each paired
    with the same forcing-memory integral.

    Four witnesses:

    * ``window_h1_sup``     -- sup over [tau-1, tau] of the squared H1 norm,
    * ``dissipation_integral`` -- e^(lam(s-tau))-weighted integral over the whole
      run of the squared H1 norm plus z^(2-p) times the p-th power mass,
    * ``time_derivative_integral`` -- weighted integral over [tau-1, tau] of the
      squared L2 norm of the discrete time derivative,
    * ``high_power_integral``  -- weighted integral over [tau-1, tau] of
      z^(4-2p) times the (2p-2)-nd power mass.

    Each streamed state and each time difference is one
    :meth:`~pullbacklab.field.Quadrature.squares` pass.  Each witness is
    divided by the memory integral to report a fitted constant;
    rerunning with a deeper horizon or another path moves the observed and
    the integral together, not the constant's order of magnitude.
    """
    unit = lattice_steps(1.0, cfg.dt, "the unit window 1.0")
    if lattice_steps(horizon, cfg.dt, f"horizon={horizon!r}") <= unit:
        raise ConfigurationError(
            f"horizon must exceed the unit window, got {horizon!r}"
        )
    w, v0 = _rebased(path, epsilon, tau, tau - horizon, u0, cfg.dt)
    grid = u0.grid
    p = spec.nonlinearity.p
    dt = cfg.dt
    n = steps_between(tau - horizon, tau, dt)
    zs = z_series(w, epsilon, tau - horizon, n + 1, dt)
    # a copy of the previous state, whose buffer the march reuses
    quad, prev = Quadrature(grid), np.empty(grid.shape)

    # trapezoid accumulators; node weights are dt (half at the ends)
    dissipation = 0.0
    deriv_integral = 0.0
    high_power = 0.0
    sup_h1_sq = 0.0

    window_start = n - unit  # first node of [tau-1, tau]

    run = stored_values((v0,), tau - horizon, tau, (w,), (epsilon,), spec, cfg, 1)
    for k, (_, v) in enumerate(run):
        values = v[0]
        in_window = k >= window_start and k > 0
        powers = (p, 2.0 * p - 2.0) if in_window else (p,)
        _, h1_sq, masses = quad.squares(values, powers=powers)
        s = (k - n) * dt  # s - tau
        decay = math.exp(spec.lam * s)
        weight = 0.5 * dt if k in (0, n) else dt
        node = decay * (h1_sq + float(zs[k]) ** (2.0 - p) * masses[0])
        dissipation += weight * node
        if in_window:
            sup_h1_sq = max(sup_h1_sq, h1_sq)
            deriv_sq = quad.squares((values - prev) / dt, h1=False)[0]
            w_edge = 0.5 * dt if k in (window_start, n) else dt
            deriv_integral += w_edge * decay * deriv_sq
            high_power += w_edge * (decay * float(zs[k]) ** (4.0 - 2.0 * p) * masses[1])
        np.copyto(prev, values)

    memory = _memory_integral(tau, path, epsilon, spec, grid, horizon, dt)

    observed = {
        "window_h1_sup": sup_h1_sq,
        "dissipation_integral": dissipation,
        "time_derivative_integral": deriv_integral,
        "high_power_integral": high_power,
    }
    return {name: BoundWitness(value, memory, value / memory) for name, value in observed.items()}

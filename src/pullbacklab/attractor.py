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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .field import (
    Field,
    Grid,
    gradient_energy_density,
    h1_norm,
    l2_norm,
    lp_norm,
    superlevel_measure_integrand,
    tail_norm,
)
from .model import ProblemSpec, forcing_norm_sq
from .noise import (
    _SNAP,
    Path,
    flat_path,
    sample_path,
    shift,
    z_factor,
    z_series,
    z_window_bounds,
)
from .solver import (
    SolverConfig,
    difference_history,
    final_state,
    integrate,
    iterate_states,
    steps_between,
)
from .cocycle import _check_lattice, pullback_state, pullback_states


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
    tau: float
    epsilon: float
    history: tuple[tuple[float, float], ...]
    converged: bool
    tolerance: float
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
        raise ConfigurationError("t_schedule needs at least two horizons")
    if any(b <= a for a, b in zip(horizons, horizons[1:])) or horizons[0] <= 0.0:
        raise ConfigurationError("t_schedule must be positive and strictly increasing")
    if tol <= 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")

    k = len(horizons)
    states = pullback_states(
        horizons, tau, (path,) * k, (epsilon,) * k, (u0,) * k, spec, cfg
    )
    history: list[tuple[float, float]] = []
    for t_n, prev, cur in zip(horizons[1:], states, states[1:]):
        gap = l2_norm(cur.with_values(cur.values - prev.values))
        history.append((t_n, gap / (1.0 + l2_norm(cur))))
    state = states[-1]
    converged = history[-1][1] <= tol
    p = spec.nonlinearity.p
    return EquilibriumResult(
        state=state,
        tau=tau,
        epsilon=epsilon,
        history=tuple(history),
        converged=converged,
        tolerance=tol,
        l2=l2_norm(state),
        h1=h1_norm(state),
        lp=lp_norm(state, p),
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
    u0_a: Field,
    u0_b: Field,
    window: float,
    fit_start: float = 1.0,
) -> DecayFitResult:
    """Measure the contraction rate of the conjugated equation.

    Two runs from distinct data along the same path; the squared L2 gap is
    fitted on [tau + fit_start, tau + window] where the transient has died
    off.  Theory puts the slope at or below ``-(lambda - alpha3)`` up to
    time-stepping error; the caller compares ``slope`` against ``bound``.

    If the gap underflows to exactly zero inside the window the slope is
    reported as ``-inf`` with ``underflow`` set, which still certifies
    contraction.
    """
    gap = _require_contractive(spec, "fit_decay_rate")
    if not 0.0 <= fit_start < window:
        raise ConfigurationError(
            f"need 0 <= fit_start < window, got {fit_start!r}, {window!r}"
        )
    if np.array_equal(u0_a.values, u0_b.values):
        raise ConfigurationError("u0_a and u0_b must differ somewhere")
    _check_lattice(window, cfg.dt, "window")
    spec = replace(spec, epsilon=epsilon)
    n = steps_between(tau, tau + window, cfg.dt)
    stride = max(1, n // 512)
    times, sq = difference_history(
        u0_a, u0_b, tau, tau + window, path, spec, cfg, sample_stride=stride
    )
    if np.any(sq == 0.0):
        return DecayFitResult(
            slope=float("-inf"),
            bound=-gap,
            underflow=True,
            times=tuple(float(t) for t in times),
            log_sq_gaps=(),
        )
    mask = times >= tau + fit_start - _SNAP * cfg.dt
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

    tau: float
    epsilon: float
    seed: int | None
    horizon: float
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
    return _attractor_sample(tau, epsilon, getattr(path, "seed", None), horizon, members)


def _check_ensemble(ensemble: Sequence[Field]) -> None:
    if not ensemble:
        raise ConfigurationError("ensemble must not be empty")
    grid = ensemble[0].grid
    for member in ensemble[1:]:
        if member.grid != grid:
            raise GridMismatchError("ensemble members live on different grids")


def _attractor_sample(
    tau: float,
    epsilon: float,
    seed: int | None,
    horizon: float,
    members: tuple[Field, ...],
) -> AttractorSample:
    diameter = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = l2_norm(
                members[i].with_values(members[i].values - members[j].values)
            )
            diameter = max(diameter, d)
    return AttractorSample(
        tau=tau,
        epsilon=epsilon,
        seed=seed,
        horizon=horizon,
        members=members,
        diameter=diameter,
    )


def _member_list(sample: AttractorSample | Sequence[Field]) -> Sequence[Field]:
    if isinstance(sample, AttractorSample):
        return sample.members
    return sample


def hausdorff_semidistance(
    sample_a: AttractorSample | Sequence[Field],
    sample_b: AttractorSample | Sequence[Field],
    which: str = "l2",
) -> float:
    """sup over a in A of the distance from a to the set B.

    Not symmetric.  ``which`` picks the norm, "l2" or "h1".
    """
    if which not in ("l2", "h1"):
        raise ConfigurationError(f'which must be "l2" or "h1", got {which!r}')
    a_members = _member_list(sample_a)
    b_members = _member_list(sample_b)
    if not a_members or not b_members:
        raise ConfigurationError("both samples must be non-empty")
    grid = a_members[0].grid
    for member in (*a_members, *b_members):
        if member.grid != grid:
            raise GridMismatchError("samples live on different grids")
    norm: Callable[[Field], float] = l2_norm if which == "l2" else h1_norm
    worst = 0.0
    for a in a_members:
        best = math.inf
        for b in b_members:
            best = min(best, norm(a.with_values(a.values - b.values)))
        worst = max(worst, best)
    return worst


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    seed: int
    dist_l2: float
    dist_h1: float


@dataclass(frozen=True)
class SweepResult:
    """Distances to the zero-noise attractor sample, per intensity and seed."""

    tau: float
    horizon: float
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
    ladder = [float(e) for e in epsilon_ladder]
    if not ladder:
        raise ConfigurationError("epsilon_ladder must not be empty")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError("epsilon_ladder must be strictly decreasing")
    if ladder[-1] < 0.0 or ladder[0] > 1.0:
        raise ConfigurationError("epsilon_ladder must stay inside [0, 1]")
    if not seeds:
        raise ConfigurationError("seeds must not be empty")

    _check_ensemble(ensemble)

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
    samples = (
        _attractor_sample(tau, eps, path.seed, horizon, members[i * k : (i + 1) * k])
        for i, (path, eps) in enumerate(cells)
    )
    reference = next(samples)

    rows: list[SweepRow] = []
    mean_l2: list[float] = []
    mean_h1: list[float] = []
    for eps in ladder:
        dists_l2 = []
        dists_h1 = []
        for seed in seeds:
            sample = next(samples)
            d2 = hausdorff_semidistance(sample, reference, "l2")
            d1 = hausdorff_semidistance(sample, reference, "h1")
            rows.append(SweepRow(epsilon=eps, seed=seed, dist_l2=d2, dist_h1=d1))
            dists_l2.append(d2)
            dists_h1.append(d1)
        mean_l2.append(sum(dists_l2) / len(dists_l2))
        mean_h1.append(sum(dists_h1) / len(dists_h1))
    return SweepResult(
        tau=tau,
        horizon=horizon,
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
        "ratio_bound": ratio_bound,
        "ok_l2": r2 <= ratio_bound,
        "ok_h1": r1 <= ratio_bound,
    }


# ---------------------------------------------------------------------------
# tails and truncation


@dataclass(frozen=True)
class TailProfile:
    """Mass of the pullback state outside centred balls of growing radius."""

    tau: float
    epsilon: float
    horizon: float
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
        raise ConfigurationError("radii must not be empty")
    state = pullback_state(horizon, tau, path, epsilon, u0, spec, cfg)
    rows = tuple(
        (float(k), tail_norm(state, float(k), "l2"), tail_norm(state, float(k), "h1"))
        for k in radii
    )
    return TailProfile(
        tau=tau,
        epsilon=epsilon,
        horizon=horizon,
        full_l2=l2_norm(state),
        full_h1=h1_norm(state),
        rows=rows,
        state=state,
    )


@dataclass(frozen=True)
class TruncationDiagnostic:
    """Damped integral of the superlevel mass over the trailing unit window.

    ``value`` is the trapezoid of exp(rho * (s - tau)) times the integral of
    (|v| - level)^2 |v|^(2p - 4) over {|v| > level}, taken over s in
    [tau - 1, tau].  ``rho`` grows like level^(p - 2), so raising the level
    damps the history harder while the superlevel set itself shrinks; the
    value must fall on any ladder of levels that climbs past the solution's
    amplitude, hitting exactly zero once the level clears it.
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
    if level <= 0.0:
        raise ConfigurationError(f"level must be positive, got {level!r}")
    nl = spec.nonlinearity
    z_min, _ = z_window_bounds(path, epsilon)
    w_tau = path.value_at(-tau)
    return (
        nl.alpha1
        * z_min ** (2.0 - nl.p)
        * math.exp(-(nl.p - 2.0) * abs(w_tau))
        * level ** (nl.p - 2.0)
    )


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
    level is read off the same window.  Needs ``horizon >= 1``.
    """
    if horizon < 1.0 - _SNAP * cfg.dt:
        raise ConfigurationError(
            f"horizon must cover the unit window, got {horizon!r}"
        )
    rhos = [truncation_rate(path, epsilon, spec, tau, level) for level in levels]
    spec_eps = replace(spec, epsilon=epsilon)
    w = shift(path, -tau)
    v0 = u0.with_values(u0.values * z_factor(w, epsilon, tau - horizon))
    burn_end = tau - 1.0
    if steps_between(tau - horizon, burn_end, cfg.dt) > 0:
        v_burn = final_state(v0, tau - horizon, burn_end, w, spec_eps, cfg)
    else:
        v_burn = v0
    window_cfg = SolverConfig(
        dt=cfg.dt, linear_solver_tol=cfg.linear_solver_tol, store_stride=1
    )
    traj = integrate(v_burn, burn_end, tau, w, spec_eps, window_cfg)
    p = spec.nonlinearity.p
    times = np.asarray(traj.times)
    window_max = max(float(np.max(np.abs(state.values))) for state in traj.states)
    diags = []
    for level, rho in zip(levels, rhos):
        integrand = np.array(
            [
                math.exp(rho * (s - tau))
                * superlevel_measure_integrand(state, level, 2.0 * p - 4.0)
                for s, state in zip(times, traj.states)
            ]
        )
        value = float(np.trapezoid(integrand, times))
        diags.append(
            TruncationDiagnostic(
                level=level, rho=rho, value=value, window_max_abs=window_max
            )
        )
    return tuple(diags)


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

    name: str
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
    g_sq = np.array(
        [forcing_norm_sq(spec.forcing, grid, float(s + tau)) for s in s_nodes]
    )
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
    return BoundWitness(
        name="absorbing_radius",
        observed=observed_norm,
        integral=integral,
        fitted_constant=fitted,
    )


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

    Each is divided by the memory integral to report a fitted constant;
    rerunning with a deeper horizon or another path moves the observed and
    the integral together, not the constant's order of magnitude.
    """
    if horizon <= 1.0 + _SNAP * cfg.dt:
        raise ConfigurationError(
            f"horizon must exceed the unit window, got {horizon!r}"
        )
    _check_lattice(horizon, cfg.dt, "horizon")
    _check_lattice(tau, cfg.dt, "tau")
    spec_eps = replace(spec, epsilon=epsilon)
    w = shift(path, -tau)
    grid = u0.grid
    vol = grid.cell_volume
    p = spec.nonlinearity.p
    dt = cfg.dt
    n = steps_between(tau - horizon, tau, dt)
    zs = z_series(w, epsilon, tau - horizon, n + 1, dt)

    v = u0.with_values(u0.values * z_factor(w, epsilon, tau - horizon))

    def h1_sq(f: Field) -> float:
        return float(
            vol * (np.sum(f.values**2) + np.sum(gradient_energy_density(f)))
        )

    def power_mass(f: Field, q: float) -> float:
        return float(vol * np.sum(np.abs(f.values) ** q))

    # trapezoid accumulators; node weights are dt (half at the ends)
    dissipation = 0.0
    deriv_integral = 0.0
    high_power = 0.0
    sup_h1_sq = 0.0

    def dissipation_node(f: Field, k: int) -> float:
        s = (k - n) * dt  # s - tau
        return math.exp(spec.lam * s) * (
            h1_sq(f) + float(zs[k]) ** (2.0 - p) * power_mass(f, p)
        )

    def high_power_node(f: Field, k: int) -> float:
        s = (k - n) * dt
        return math.exp(spec.lam * s) * float(zs[k]) ** (4.0 - 2.0 * p) * power_mass(
            f, 2.0 * p - 2.0
        )

    window_start = n - steps_between(0.0, 1.0, dt)  # first node of [tau-1, tau]

    prev_values = v.values
    for k, (t_k, state) in enumerate(
        iterate_states(v, tau - horizon, tau, w, spec_eps, cfg)
    ):
        weight = 0.5 * dt if k in (0, n) else dt
        dissipation += weight * dissipation_node(state, k)
        if k >= window_start and k > 0:
            s = (k - n) * dt
            sup_h1_sq = max(sup_h1_sq, h1_sq(state))
            deriv_sq = float(
                vol * np.sum(((state.values - prev_values) / dt) ** 2)
            )
            w_edge = 0.5 * dt if k in (window_start, n) else dt
            deriv_integral += w_edge * math.exp(spec.lam * s) * deriv_sq
            high_power += w_edge * high_power_node(state, k)
        prev_values = state.values

    memory = _memory_integral(tau, path, epsilon, spec, grid, horizon, dt)

    def witness(name: str, observed: float) -> BoundWitness:
        return BoundWitness(
            name=name,
            observed=observed,
            integral=memory,
            fitted_constant=observed / memory,
        )

    return {
        "window_h1_sup": witness("window_h1_sup", sup_h1_sq),
        "dissipation_integral": witness("dissipation_integral", dissipation),
        "time_derivative_integral": witness("time_derivative_integral", deriv_integral),
        "high_power_integral": witness("high_power_integral", high_power),
    }

"""Pullback constructions on a desk-scale instance.

The dynamical assertions here are deliberately looser than the closed-form
oracles elsewhere: convergence histories, fitted slopes and sweep ratios
come out of full runs, so the checks pin signs, monotonicity and generous
brackets measured once on the fixed seeds, not exact values.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab import attractor, solver
from pullbacklab.attractor import (
    SweepResult,
    absorbing_radius,
    approximate_attractor,
    compute_equilibrium,
    fit_decay_rate,
    hausdorff_semidistance,
    sweep_shrinks,
    tail_profile,
    truncation_diagnostic,
    truncation_diagnostics,
    truncation_rate,
    upper_semicontinuity_sweep,
    window_regularity_report,
)
from pullbacklab.cocycle import phi, pullback_state
from pullbacklab.errors import ConfigurationError, GridMismatchError
from pullbacklab.field import (
    Field,
    Grid,
    Quadrature,
    gaussian_bump,
    h1_norm,
    l2_norm,
    superlevel_measure_integrand,
    zero_boundary,
    zero_field,
)
from pullbacklab.model import (
    Forcing,
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
    zero_forcing,
)
from pullbacklab.noise import (
    flat_path,
    sample_path,
    shift,
    z_factor,
    z_series,
    z_window_bounds,
)
from pullbacklab.solver import SolverConfig, integrate, steps_between

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


def _diff_norm(a, b, which="l2"):
    norm = l2_norm if which == "l2" else h1_norm
    return norm(a.with_values(a.values - b.values))


def _plain_grad(v, h):
    """The forward-difference gradient table, written out with temporaries."""
    g = np.zeros_like(v)
    g[:-1] += ((v[1:] - v[:-1]) / h) ** 2
    if v.ndim == 2:
        g[:, :-1] += ((v[:, 1:] - v[:, :-1]) / h) ** 2
    return g


def _plain_norm(v, grid, which="l2"):
    """sqrt(h^N * sum(v**2)), with the gradient table's sum added inside
    for "h1": the quadrature the gap reductions replaced, written out."""
    total = np.sum(v**2)
    if which == "h1":
        total = total + np.sum(_plain_grad(v, grid.spacing))
    return float(np.sqrt(grid.cell_volume * total))


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(dt=1e-3)


@pytest.fixture(scope="module")
def deep_path():
    # wide enough for horizon-16 pullbacks observed at tau = 0.5
    return sample_path(7, -17.0, 1.0, 1e-3)


@pytest.fixture(scope="module")
def equilibrium_pair(desk_spec, desk_grid, deep_path, cfg):
    schedule = [1.0, 2.0, 4.0, 8.0, 16.0]
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    other = gaussian_bump(desk_grid, -0.5, 2.0)
    res = compute_equilibrium(0.5, deep_path, 0.5, desk_spec, cfg, u0, schedule, tol=1e-4)
    res_other = compute_equilibrium(
        0.5, deep_path, 0.5, desk_spec, cfg, other, schedule, tol=1e-4
    )
    return res, res_other


# ---------------------------------------------------------------------------
# random equilibria


def test_equilibrium_history_contracts(equilibrium_pair):
    res, _ = equilibrium_pair
    increments = [g for _, g in res.history]
    assert all(b < a for a, b in zip(increments, increments[1:]))
    assert res.converged and increments[-1] <= 1e-4
    assert res.history[-1][0] == 16.0
    assert res.l2 == l2_norm(res.state)
    assert res.h1 == h1_norm(res.state)
    assert res.h1 > res.l2 > 0.0


def test_equilibrium_forgets_initial_data(equilibrium_pair):
    # at horizon 16 the contraction has squeezed the two starts together
    # far below the convergence tolerance (measured: rel 3e-7)
    res, res_other = equilibrium_pair
    gap = _diff_norm(res.state, res_other.state)
    assert gap <= 1e-5 * (1.0 + res.l2)


def test_equilibrium_increments_have_the_bits_of_the_plain_quadrature(
    desk_spec, desk_grid, deep_path, cfg
):
    # each increment is the plain L2 gap of two horizons' states over one
    # plus the newer state's plain L2 norm, each state pulled back alone
    schedule = [0.5, 1.0, 1.5]
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    res = compute_equilibrium(0.5, deep_path, 0.5, desk_spec, cfg, u0, schedule)
    states = [
        pullback_state(t, 0.5, deep_path, 0.5, u0, desk_spec, cfg).values for t in schedule
    ]
    want = tuple(
        (t, _plain_norm(cur - prev, desk_grid) / (1.0 + _plain_norm(cur, desk_grid)))
        for t, prev, cur in zip(schedule[1:], states, states[1:])
    )
    assert res.history == want


def test_equilibrium_validation(desk_spec, desk_grid, desk_path, cfg):
    u0 = zero_field(desk_grid)
    with pytest.raises(ConfigurationError, match="at least two"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [1.0])
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [2.0, 1.0])
    with pytest.raises(ConfigurationError, match="positive horizons"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [-1.0, 1.0])
    with pytest.raises(ConfigurationError, match="tol"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [1.0, 2.0], tol=0.0)
    marginal = ProblemSpec(
        lam=1.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )
    with pytest.raises(ConfigurationError, match="lambda > alpha3"):
        compute_equilibrium(0.0, desk_path, 0.5, marginal, cfg, u0, [1.0, 2.0])


# ---------------------------------------------------------------------------
# contraction rate


def test_decay_fit_beats_the_linear_bound(desk_spec, desk_grid, desk_path, cfg):
    fit = fit_decay_rate(
        0.0,
        desk_path,
        0.5,
        desk_spec,
        cfg,
        gaussian_bump(desk_grid, 1.0, 1.5),
        zero_field(desk_grid),
        window=4.0,
        fit_start=1.0,
    )
    assert fit.bound == -1.0
    assert not fit.underflow
    # squared-gap slope runs around -2.35 here; anything at or below the
    # bound certifies contraction, the lower bracket guards against a
    # broken fit returning something absurd
    assert -4.0 <= fit.slope <= fit.bound
    assert fit.log_sq_gaps[-1] < fit.log_sq_gaps[0] - 4.0
    assert min(fit.times) >= 1.0 - 1e-9 and max(fit.times) <= 4.0 + 1e-9


def test_decay_fit_reports_underflow(desk_grid, desk_path, cfg):
    stiff = ProblemSpec(
        lam=200.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )
    fit = fit_decay_rate(
        0.0,
        desk_path,
        0.5,
        stiff,
        cfg,
        gaussian_bump(desk_grid, 1.0, 1.5),
        zero_field(desk_grid),
        window=4.0,
    )
    assert fit.underflow
    assert fit.slope == float("-inf")
    assert fit.log_sq_gaps == ()


def test_decay_fit_runs_forward_from_tau_as_phi_does(desk_spec, desk_grid, desk_path, cfg):
    # at tau = 0.5 both runs start from their data conjugated at tau, along
    # the path re-based at tau: the first gap is z_w(tau)^2 times the data's,
    # the last one that of phi's endpoints, conjugated again at tau + window
    tau, window, eps = 0.5, 1.0, 1.0
    a, b = gaussian_bump(desk_grid, 1.0, 1.5), zero_field(desk_grid)
    fit = fit_decay_rate(tau, desk_path, eps, desk_spec, cfg, a, b, window, fit_start=0.0)
    w, vol = shift(desk_path, -tau), desk_grid.cell_volume
    first = vol * np.sum((z_factor(w, eps, tau) * (a.values - b.values)) ** 2)
    ends = [phi(window, tau, desk_path, eps, u, desk_spec, cfg) for u in (a, b)]
    gap = z_factor(w, eps, tau + window) * (ends[0].values - ends[1].values)
    assert fit.times[0] == tau and fit.times[-1] == tau + window
    assert fit.log_sq_gaps[0] == pytest.approx(math.log(first), abs=1e-12)
    assert fit.log_sq_gaps[-1] == pytest.approx(math.log(vol * np.sum(gap**2)), abs=1e-9)


def test_decay_fit_validation(desk_spec, desk_grid, desk_path, cfg):
    bump = gaussian_bump(desk_grid, 1.0, 1.5)
    zero = zero_field(desk_grid)
    with pytest.raises(ConfigurationError, match="differ somewhere"):
        fit_decay_rate(0.0, desk_path, 0.5, desk_spec, cfg, bump, bump, 2.0)
    with pytest.raises(ConfigurationError, match="fit_start"):
        fit_decay_rate(0.0, desk_path, 0.5, desk_spec, cfg, bump, zero, 2.0, fit_start=2.0)
    with pytest.raises(ConfigurationError, match="lattice"):
        fit_decay_rate(0.0, desk_path, 0.5, desk_spec, cfg, bump, zero, 0.0005, fit_start=0.0)


# ---------------------------------------------------------------------------
# attractor samples and the noise-intensity sweep


def test_hausdorff_semidistance_hand_oracle():
    g = Grid(1, 2.0, 5)
    a = Field(g, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    b = Field(g, np.array([0.0, 0.0, 2.0, 0.0, 0.0]))
    c = Field(g, np.array([0.0, 1.0, 0.5, 0.0, 0.0]))
    # h = 1, so the masses are plain sums of squares
    diff = a.with_values(a.values - b.values)
    assert hausdorff_semidistance([a], [b]) == pytest.approx((math.sqrt(5.0), h1_norm(diff)))
    # nearest member wins: c is sqrt(0.25) from a, sqrt(3.25) from b
    assert hausdorff_semidistance([c], [a, b])[0] == pytest.approx(0.5)
    # not symmetric: every member of [a] lies inside [a, b]
    assert hausdorff_semidistance([a], [a, b]) == (0.0, 0.0)
    assert hausdorff_semidistance([a, b], [a])[0] == pytest.approx(math.sqrt(5.0))
    # each norm takes its own nearest member: the zero state is nearer the
    # oscillation in L2 (3 against 3.63) and the plateau in H1 (6.05 against 13)
    zero = zero_field(g)
    wiggle = Field(g, np.array([0.0, 1.0, -1.0, 1.0, 0.0]))
    plateau = Field(g, np.array([0.0, 1.1, 1.1, 1.1, 0.0]))
    pair = hausdorff_semidistance([zero], [wiggle, plateau])
    assert pair == pytest.approx((math.sqrt(3.0), math.sqrt(6.05)))


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 17)])
def test_hausdorff_gaps_have_the_bits_of_the_plain_quadratures(dimension, m):
    grid = Grid(dimension, 4.0, m)
    rng = np.random.default_rng(m)
    a, b = (
        [Field(grid, zero_boundary(rng.standard_normal(grid.shape))) for _ in range(k)]
        for k in (3, 4)
    )
    quad = Quadrature(grid)

    def plain(which):
        return max(min(_plain_norm(x.values - y.values, grid, which) for y in b) for x in a)

    def single_pass(h1):
        # one single-norm pass per pair, as the sweep would take for each norm
        return max(min(quad.norms(x.values - y.values, h1)[h1] for y in b) for x in a)

    pair = hausdorff_semidistance(a, b)
    assert pair == (plain("l2"), plain("h1")) == (single_pass(False), single_pass(True))


def test_hausdorff_semidistance_validation():
    g = Grid(1, 2.0, 5)
    a = Field(g, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    other = Field(Grid(1, 2.0, 9), np.zeros(9))
    with pytest.raises(ConfigurationError, match="non-empty"):
        hausdorff_semidistance([], [a])
    with pytest.raises(GridMismatchError):
        hausdorff_semidistance([a], [other])


def test_approximate_attractor_matches_manual_pullbacks(desk_spec, desk_path, cfg):
    grid = Grid(1, 8.0, 65)
    ensemble = [zero_field(grid), gaussian_bump(grid, 1.0, 1.5)]
    sample = approximate_attractor(0.5, desk_path, 0.5, desk_spec, cfg, ensemble, 0.5)
    manual = [
        pullback_state(0.5, 0.5, desk_path, 0.5, u0, desk_spec, cfg) for u0 in ensemble
    ]
    assert all(
        np.array_equal(m.values, s.values) for m, s in zip(manual, sample.members)
    )
    assert sample.diameter == _diff_norm(manual[0], manual[1])


def test_approximate_attractor_validation(desk_spec, desk_path, cfg):
    with pytest.raises(ConfigurationError, match="empty"):
        approximate_attractor(0.5, desk_path, 0.5, desk_spec, cfg, [], 0.5)
    mixed = [zero_field(Grid(1, 8.0, 65)), zero_field(Grid(1, 8.0, 129))]
    with pytest.raises(GridMismatchError):
        approximate_attractor(0.5, desk_path, 0.5, desk_spec, cfg, mixed, 0.5)


def test_sweep_distances_shrink_with_the_intensity(desk_spec):
    cfg = SolverConfig(dt=2e-3)
    grid = Grid(1, 8.0, 65)
    ensemble = [zero_field(grid), gaussian_bump(grid, 1.0, 1.5)]
    ladder = [0.5, 0.25, 0.1]
    seeds = [0, 1, 2]
    sweep = upper_semicontinuity_sweep(0.0, seeds, ladder, desk_spec, cfg, ensemble, 6.0)
    assert [r.epsilon for r in sweep.rows] == [0.5] * 3 + [0.25] * 3 + [0.1] * 3
    assert all(r.dist_l2 > 0.0 and r.dist_h1 > 0.0 for r in sweep.rows)
    assert all(b < a for a, b in zip(sweep.mean_l2, sweep.mean_l2[1:]))
    assert all(b < a for a, b in zip(sweep.mean_h1, sweep.mean_h1[1:]))
    verdict = sweep_shrinks(sweep, ratio_bound=0.3)
    # measured ratios sit near 0.21 on these seeds
    assert verdict["inversions_l2"] == 0 and verdict["inversions_h1"] == 0
    assert verdict["ok_l2"] and verdict["ok_h1"]


def test_sweep_validation(desk_spec, desk_grid, cfg):
    ensemble = [zero_field(desk_grid)]
    with pytest.raises(ConfigurationError, match="empty"):
        upper_semicontinuity_sweep(0.0, [0], [], desk_spec, cfg, ensemble, 1.0)
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        upper_semicontinuity_sweep(0.0, [0], [0.5, 0.5], desk_spec, cfg, ensemble, 1.0)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        upper_semicontinuity_sweep(0.0, [0], [1.5, 0.5], desk_spec, cfg, ensemble, 1.0)
    with pytest.raises(ConfigurationError, match="seeds"):
        upper_semicontinuity_sweep(0.0, [], [0.5], desk_spec, cfg, ensemble, 1.0)


def _synthetic_sweep(mean_l2, mean_h1):
    ladder = tuple(1.0 / (i + 1) for i in range(len(mean_l2)))
    return SweepResult(
        epsilon_ladder=ladder,
        rows=(),
        mean_l2=tuple(mean_l2),
        mean_h1=tuple(mean_h1),
    )


def test_sweep_shrinks_counts_inversions():
    verdict = sweep_shrinks(_synthetic_sweep([4.0, 1.0], [1.0, 2.0]), ratio_bound=0.3)
    assert verdict["inversions_l2"] == 0 and verdict["inversions_h1"] == 1
    assert verdict["ratio_l2"] == 0.25 and verdict["ratio_h1"] == 2.0
    assert verdict["ok_l2"] and not verdict["ok_h1"]
    degenerate = sweep_shrinks(_synthetic_sweep([0.0, 0.0], [0.0, 1.0]))
    assert degenerate["ratio_l2"] == 0.0 and degenerate["ratio_h1"] == math.inf
    assert degenerate["ok_l2"] and not degenerate["ok_h1"]


@settings(max_examples=50)
@given(
    means=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=6),
    bound=st.floats(min_value=1e-3, max_value=10.0),
)
def test_sweep_shrinks_consistent_with_definition(means, bound):
    verdict = sweep_shrinks(_synthetic_sweep(means, means), ratio_bound=bound)
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    assert verdict["inversions_l2"] == inversions == verdict["inversions_h1"]
    assert verdict["ratio_l2"] == means[-1] / means[0]
    assert verdict["ok_l2"] == (verdict["ratio_l2"] <= bound)


# ---------------------------------------------------------------------------
# tails and truncation


def test_tail_profile_decays_in_radius(desk_spec, desk_grid, desk_path, cfg):
    profile = tail_profile(
        0.5,
        desk_path,
        0.5,
        desk_spec,
        cfg,
        gaussian_bump(desk_grid, 1.0, 1.5),
        horizon=2.0,
        radii=[0.0, 2.0, 4.0, 6.0],
    )
    # radius 0 keeps every point, so the tail is the whole norm
    assert profile.rows[0][1] == profile.full_l2
    assert profile.rows[0][2] == profile.full_h1
    tails_l2 = [row[1] for row in profile.rows]
    tails_h1 = [row[2] for row in profile.rows]
    assert all(b < a for a, b in zip(tails_l2, tails_l2[1:]))
    assert all(b < a for a, b in zip(tails_h1, tails_h1[1:]))
    assert tails_l2[-1] <= 1e-2 * profile.full_l2
    with pytest.raises(ConfigurationError, match="radii"):
        tail_profile(0.5, desk_path, 0.5, desk_spec, cfg, profile.state, 2.0, [])


def refuse_to_march(*args):
    raise AssertionError("marched before the inputs were checked")


def test_tail_profile_checks_its_radii_before_the_march(
    monkeypatch, desk_spec, desk_grid, desk_path, cfg
):
    # a radius beyond the 8-unit box; a ValueError too, as tail_norm's is
    monkeypatch.setattr(solver, "_march", refuse_to_march)
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    with pytest.raises(ConfigurationError, match="must not exceed the domain radius"):
        tail_profile(0.5, desk_path, 0.5, desk_spec, cfg, u0, 2.0, [1.0, 9.0])


def test_truncation_checks_its_power_before_the_burn_in(
    monkeypatch, desk_spec, desk_grid, desk_path, cfg
):
    # p = 2 makes the superlevel power 2p - 4 zero; the burn-in is 0.5 long
    monkeypatch.setattr(solver, "_march", refuse_to_march)
    spec = replace(desk_spec, nonlinearity=replace(desk_spec.nonlinearity, p=2.0))
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    with pytest.raises(ConfigurationError, match="power 2p - 4 must be positive"):
        truncation_diagnostics(0.5, desk_path, 0.5, spec, cfg, u0, 1.5, (0.05, 0.1))


def test_one_level_rule_serves_the_superlevel_pass_and_the_ladder(
    monkeypatch, desk_spec, desk_grid, desk_path, cfg
):
    # field.check_levels: one type and one message from each caller, and the
    # ladder refuses before its burn-in marches
    monkeypatch.setattr(solver, "_march", refuse_to_march)
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    refusals = (
        lambda: Quadrature(desk_grid).superlevel(u0.values, (0.05, -1.0), 2.0),
        lambda: superlevel_measure_integrand(u0, -1.0, 2.0),
        lambda: truncation_rate(desk_path, 0.5, desk_spec, 0.5, -1.0),
        lambda: truncation_diagnostics(
            0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.5, (0.05, -1.0)
        ),
    )
    for refuse in refusals:
        with pytest.raises(ConfigurationError) as caught:
            refuse()
        assert type(caught.value) is ConfigurationError
        assert str(caught.value) == "levels must hold positive levels, got -1.0"


def test_truncation_rate_closed_form(desk_spec, desk_path):
    # flat path: z is identically 1 and omega(-tau) = 0, leaving
    # alpha1 * level^(p-2) = 0.5 * 9
    still = flat_path(-2.0, 1.0, 1e-3)
    assert truncation_rate(still, 0.5, desk_spec, 0.5, 3.0) == 4.5
    # pathwise factors drop out of the level scaling: doubling the level
    # multiplies the rate by 2^(p-2) = 4
    ratio = truncation_rate(desk_path, 0.5, desk_spec, 0.5, 4.0) / truncation_rate(
        desk_path, 0.5, desk_spec, 0.5, 2.0
    )
    assert ratio == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ConfigurationError, match="level"):
        truncation_rate(desk_path, 0.5, desk_spec, 0.5, 0.0)


def test_truncation_diagnostic_falls_with_the_level(desk_spec, desk_grid, desk_path, cfg):
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    values = []
    for level in (0.02, 0.05, 0.1):
        diag = truncation_diagnostic(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0, level)
        assert diag.rho > 0.0
        values.append(diag.value)
    assert all(v > 0.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_truncation_ladder_marches_once_and_matches_each_level(
    desk_spec, desk_grid, desk_path, cfg, monkeypatch
):
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    levels = (0.02, 0.05, 0.1, 1e6)
    scans = []

    def counted_bounds(path, eps):
        scans.append(eps)
        return z_window_bounds(path, eps)

    monkeypatch.setattr(attractor, "z_window_bounds", counted_bounds)
    ladder = truncation_diagnostics(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.5, levels)
    assert len(scans) == 1  # the window's bounds do not depend on the level
    assert [d.level for d in ladder] == list(levels)
    for diag in ladder:
        alone = truncation_diagnostic(
            0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.5, diag.level
        )
        assert diag == alone
        assert diag.rho == truncation_rate(desk_path, 0.5, desk_spec, 0.5, diag.level)


def test_truncation_diagnostic_vanishes_above_the_amplitude(
    desk_spec, desk_grid, desk_path, cfg
):
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    diag = truncation_diagnostic(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0, 1e6)
    assert diag.value == 0.0
    assert diag.window_max_abs < diag.level
    with pytest.raises(ConfigurationError, match="unit window"):
        truncation_diagnostic(0.5, desk_path, 0.5, desk_spec, cfg, u0, 0.5, 1.0)


def test_truncation_window_is_reduced_as_it_is_marched(desk_spec, desk_grid):
    # the burn-in and the unit window are streamed, so the peak grows neither
    # with the horizon nor with the window's states: holding the window's
    # 1001 or 2001 states on 129 points would take 1.0 or 2.1 MB
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    peaks = []
    for dt, horizon in ((1e-3, 1.0), (1e-3, 4.0), (5e-4, 1.0)):
        cfg = SolverConfig(dt=dt)
        path = sample_path(1, -4.0, 4.0, dt)
        tracemalloc.start()
        try:
            truncation_diagnostics(0.5, path, 0.5, desk_spec, cfg, u0, horizon, (0.05,))
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) < 0.2


def test_truncation_values_equal_the_collected_window(desk_spec, desk_grid, desk_path, cfg):
    # the integrals read off the stream have the bits of ones read off the
    # window that integrate collects, each superlevel mass by the formula
    # the pass replaced
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    levels = (0.02, 0.05, 0.1, 1e6)
    streamed = truncation_diagnostics(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0, levels)
    w = shift(desk_path, -0.5)
    v0 = u0.with_values(u0.values * z_factor(w, 0.5, -0.5))
    traj = integrate(v0, -0.5, 0.5, w, 0.5, desk_spec, cfg)
    power, vol = 2.0 * desk_spec.nonlinearity.p - 4.0, desk_grid.cell_volume

    def mass(v, level):
        mask = np.abs(v) >= level
        return float(vol * np.sum(np.abs(v[mask]) ** power)) if mask.any() else 0.0

    for diag in streamed:
        integrand = [
            math.exp(diag.rho * (s - 0.5)) * mass(state.values, diag.level)
            for s, state in zip(traj.times, traj.states)
        ]
        assert diag.value == float(np.trapezoid(np.array(integrand), traj.times))
        assert diag.window_max_abs == max(float(np.max(np.abs(v.values))) for v in traj.states)


# ---------------------------------------------------------------------------
# bound witnesses


def test_window_regularity_report_witnesses(desk_spec, desk_path, cfg):
    grid = Grid(1, 8.0, 65)
    report = window_regularity_report(
        0.5, desk_path, 0.5, desk_spec, cfg, gaussian_bump(grid, 1.0, 1.5), 2.0
    )
    assert set(report) == {
        "window_h1_sup",
        "dissipation_integral",
        "time_derivative_integral",
        "high_power_integral",
    }
    integrals = {w.integral for w in report.values()}
    assert len(integrals) == 1 and integrals.pop() > 0.0
    for witness in report.values():
        assert witness.observed > 0.0
        assert witness.fitted_constant == witness.observed / witness.integral


def _reference_window_report(tau, path, epsilon, spec, cfg, u0, horizon):
    """The four observed values of window_regularity_report, formed by its
    former closures, one Field at a time, over the run integrate collects."""
    w = shift(path, -tau)
    vol, p, dt = u0.grid.cell_volume, spec.nonlinearity.p, cfg.dt
    n = steps_between(tau - horizon, tau, dt)
    unit = round(1.0 / dt)
    zs = z_series(w, epsilon, tau - horizon, n + 1, dt)
    v = u0.with_values(u0.values * z_factor(w, epsilon, tau - horizon))
    traj = integrate(v, tau - horizon, tau, w, epsilon, spec, cfg)

    def h1_sq(f):
        return float(vol * (np.sum(f.values**2) + np.sum(_plain_grad(f.values, f.grid.spacing))))

    def power_mass(f, q):
        return float(vol * np.sum(np.abs(f.values) ** q))

    def dissipation_node(f, k):
        s = (k - n) * dt
        return math.exp(spec.lam * s) * (h1_sq(f) + float(zs[k]) ** (2.0 - p) * power_mass(f, p))

    def high_power_node(f, k):
        s = (k - n) * dt
        return math.exp(spec.lam * s) * float(zs[k]) ** (4.0 - 2.0 * p) * power_mass(
            f, 2.0 * p - 2.0
        )

    dissipation = deriv_integral = high_power = sup_h1_sq = 0.0
    window_start = n - unit
    prev_values = v.values
    for k, state in enumerate(traj.states):
        weight = 0.5 * dt if k in (0, n) else dt
        dissipation += weight * dissipation_node(state, k)
        if k >= window_start and k > 0:
            s = (k - n) * dt
            sup_h1_sq = max(sup_h1_sq, h1_sq(state))
            deriv_sq = float(vol * np.sum(((state.values - prev_values) / dt) ** 2))
            w_edge = 0.5 * dt if k in (window_start, n) else dt
            deriv_integral += w_edge * math.exp(spec.lam * s) * deriv_sq
            high_power += w_edge * high_power_node(state, k)
        prev_values = state.values
    return {
        "window_h1_sup": sup_h1_sq,
        "dissipation_integral": dissipation,
        "time_derivative_integral": deriv_integral,
        "high_power_integral": high_power,
    }


@pytest.mark.parametrize(
    "dimension, m, dt, seed",
    [(1, 65, 1e-3, 1), (1, 129, 1e-3, 3), (2, 33, 2e-3, 1), (2, 65, 5e-3, 3)],
)
def test_window_regularity_report_has_the_bits_of_the_field_closures(
    desk_spec, dimension, m, dt, seed
):
    cfg = SolverConfig(dt=dt)
    path = sample_path(seed, -4.0, 4.0, dt)
    u0 = gaussian_bump(Grid(dimension, 6.0, m), 1.0, 1.5)
    report = window_regularity_report(0.5, path, 0.5, desk_spec, cfg, u0, 1.5)
    want = _reference_window_report(0.5, path, 0.5, desk_spec, cfg, u0, 1.5)
    assert {name: witness.observed for name, witness in report.items()} == want


SPOILS = [
    ("centre", np.nan, "must be finite"),
    ("centre", -np.inf, "must be finite"),
    ("first corner", 1e-300, "identically zero"),
    ("last edge", 1.0, "identically zero"),
]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("reduction", ["truncation_diagnostics", "window_regularity_report"])
@pytest.mark.parametrize("where, value, message", SPOILS)
def test_a_bad_streamed_state_is_refused(
    desk_spec, monkeypatch, dimension, reduction, where, value, message
):
    # the march cannot make such a state; a stream that yields one after two
    # good ones stands in for a kernel fault, which the reduction must catch
    stream = attractor.stored_values

    def spoiled(*args):
        for j, (t, v) in enumerate(stream(*args)):
            if j == 2:
                v = v.copy()
                col = v[0]
                mid = len(col) // 2
                col[{
                    "centre": (mid,) * col.ndim,
                    "first corner": (0,) * col.ndim,
                    "last edge": (mid,) * (col.ndim - 1) + (-1,),
                }[where]] = value
            yield t, v

    monkeypatch.setattr(attractor, "stored_values", spoiled)
    cfg = SolverConfig(dt=5e-3)
    path = sample_path(1, -4.0, 4.0, cfg.dt)
    u0 = gaussian_bump(Grid(dimension, 6.0, 17), 1.0, 1.5)
    with pytest.raises(ValueError, match=message):
        if reduction == "truncation_diagnostics":
            truncation_diagnostics(0.5, path, 0.5, desk_spec, cfg, u0, 1.5, (0.05, 0.1))
        else:
            window_regularity_report(0.5, path, 0.5, desk_spec, cfg, u0, 1.5)


def test_window_regularity_report_validation(desk_spec, desk_grid, desk_path, cfg):
    u0 = zero_field(desk_grid)
    with pytest.raises(ConfigurationError, match="unit window"):
        window_regularity_report(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0)
    with pytest.raises(ConfigurationError, match="lattice"):
        window_regularity_report(0.5, desk_path, 0.5, desk_spec, cfg, u0, 2.0005)
    with pytest.raises(ConfigurationError, match="lattice"):
        window_regularity_report(0.5005e-3, desk_path, 0.5, desk_spec, cfg, u0, 2.0)


@pytest.mark.parametrize("reduction", ["fit_decay_rate", "truncation_diagnostics"])
def test_an_off_lattice_tau_is_refused_before_any_step(
    desk_spec, desk_grid, monkeypatch, reduction
):
    # tau = 0.0005 lies on the path's lattice (step 5e-4) but not on the
    # solver's (dt 1e-3): refused where the path is re-based, as every run
    def no_march(*args):
        raise AssertionError("marched from an off-lattice tau")

    monkeypatch.setattr(solver, "_march", no_march)
    cfg = SolverConfig(dt=1e-3)
    path = sample_path(3, -2.0, 3.0, 5e-4)
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    with pytest.raises(ConfigurationError, match=r"^tau=0\.0005 is not a multiple of dt=0\.001"):
        if reduction == "fit_decay_rate":
            fit_decay_rate(0.0005, path, 0.5, desk_spec, cfg, u0, zero_field(desk_grid), 2.0)
        else:
            truncation_diagnostics(0.0005, path, 0.5, desk_spec, cfg, u0, 1.5, (0.05, 0.1))


def test_absorbing_radius_closed_forms():
    # with epsilon = 0 on a flat path the z factors are 1, so the memory
    # integral is the exponential quadrature of ||g||^2 + 1 alone
    lam = 2.0
    grid = Grid(1, 2.0, 5)
    still = flat_path(-20.0, 0.0, 1e-3)
    quiet = ProblemSpec(
        lam=lam,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    witness = absorbing_radius(0.0, still, 0.0, quiet, grid, 20.0)
    assert witness.integral == pytest.approx((1.0 - math.exp(-20.0 * lam)) / lam, rel=1e-5)
    assert math.isnan(witness.fitted_constant) and math.isnan(witness.observed)

    # a forcing with ||g||^2 = 3 at every time scales the integrand by 4
    c = math.sqrt(3.0 / 5.0)  # five unit cells
    steady = ProblemSpec(
        lam=lam,
        nonlinearity=canonical_cubic(1.0),
        forcing=Forcing(g=lambda t, pts: np.full(len(pts), c), delta=0.0),
    )
    witness = absorbing_radius(0.0, still, 0.0, steady, grid, 20.0, observed_norm=1.0)
    assert witness.integral == pytest.approx(4.0 * (1.0 - math.exp(-20.0 * lam)) / lam, rel=1e-5)
    assert witness.fitted_constant == 1.0 / math.sqrt(witness.integral)
    with pytest.raises(ConfigurationError, match="quadrature_horizon"):
        absorbing_radius(0.0, still, 0.0, steady, grid, 0.0)

"""Pullback constructions on a desk-scale instance.

The dynamical assertions here are deliberately looser than the closed-form
oracles elsewhere: convergence histories, fitted slopes and sweep ratios
come out of full runs, so the checks pin signs, monotonicity and generous
brackets measured once on the fixed seeds, not exact values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pullbacklab.cocycle import pullback_state
from pullbacklab.errors import ConfigurationError, GridMismatchError
from pullbacklab.field import Field, Grid, gaussian_bump, h1_norm, l2_norm, zero_field
from pullbacklab.model import (
    Forcing,
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
    zero_forcing,
)
from pullbacklab.noise import flat_path, sample_path
from pullbacklab.solver import SolverConfig

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


def _diff_norm(a, b, which="l2"):
    norm = l2_norm if which == "l2" else h1_norm
    return norm(a.with_values(a.values - b.values))


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


def test_equilibrium_validation(desk_spec, desk_grid, desk_path, cfg):
    u0 = zero_field(desk_grid)
    with pytest.raises(ConfigurationError, match="at least two"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [1.0])
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [2.0, 1.0])
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [-1.0, 1.0])
    with pytest.raises(ConfigurationError, match="tol"):
        compute_equilibrium(0.0, desk_path, 0.5, desk_spec, cfg, u0, [1.0, 2.0], tol=0.0)
    marginal = ProblemSpec(
        lam=1.0,
        epsilon=0.5,
        dimension=1,
        domain_radius=8.0,
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
        epsilon=0.5,
        dimension=1,
        domain_radius=8.0,
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
    assert hausdorff_semidistance([a], [b]) == pytest.approx(math.sqrt(5.0))
    # nearest member wins: c is sqrt(0.25) from a, sqrt(3.25) from b
    assert hausdorff_semidistance([c], [a, b]) == pytest.approx(0.5)
    # not symmetric: every member of [a] lies inside [a, b]
    assert hausdorff_semidistance([a], [a, b]) == 0.0
    assert hausdorff_semidistance([a, b], [a]) == pytest.approx(math.sqrt(5.0))
    diff = a.with_values(a.values - b.values)
    assert hausdorff_semidistance([a], [b], which="h1") == pytest.approx(h1_norm(diff))


def test_hausdorff_semidistance_validation():
    g = Grid(1, 2.0, 5)
    a = Field(g, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    other = Field(Grid(1, 2.0, 9), np.zeros(9))
    with pytest.raises(ConfigurationError, match="which"):
        hausdorff_semidistance([a], [a], which="sup")
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
    assert sample.seed == 1
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
        tau=0.0,
        horizon=1.0,
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
    desk_spec, desk_grid, desk_path, cfg
):
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    levels = (0.02, 0.05, 0.1, 1e6)
    ladder = truncation_diagnostics(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.5, levels)
    assert [d.level for d in ladder] == list(levels)
    for diag in ladder:
        alone = truncation_diagnostic(
            0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.5, diag.level
        )
        assert diag == alone


def test_truncation_diagnostic_vanishes_above_the_amplitude(
    desk_spec, desk_grid, desk_path, cfg
):
    u0 = gaussian_bump(desk_grid, 1.0, 1.5)
    diag = truncation_diagnostic(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0, 1e6)
    assert diag.value == 0.0
    assert diag.window_max_abs < diag.level
    with pytest.raises(ConfigurationError, match="unit window"):
        truncation_diagnostic(0.5, desk_path, 0.5, desk_spec, cfg, u0, 0.5, 1.0)


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


def test_window_regularity_report_validation(desk_spec, desk_grid, desk_path, cfg):
    u0 = zero_field(desk_grid)
    with pytest.raises(ConfigurationError, match="unit window"):
        window_regularity_report(0.5, desk_path, 0.5, desk_spec, cfg, u0, 1.0)
    with pytest.raises(ConfigurationError, match="lattice"):
        window_regularity_report(0.5, desk_path, 0.5, desk_spec, cfg, u0, 2.0005)
    with pytest.raises(ConfigurationError, match="lattice"):
        window_regularity_report(0.5005e-3, desk_path, 0.5, desk_spec, cfg, u0, 2.0)


def test_absorbing_radius_closed_forms():
    # with epsilon = 0 on a flat path the z factors are 1, so the memory
    # integral is the exponential quadrature of ||g||^2 + 1 alone
    lam = 2.0
    grid = Grid(1, 2.0, 5)
    still = flat_path(-20.0, 0.0, 1e-3)
    quiet = ProblemSpec(
        lam=lam,
        epsilon=0.0,
        dimension=1,
        domain_radius=2.0,
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
        epsilon=0.0,
        dimension=1,
        domain_radius=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=Forcing(g=lambda t, pts: np.full(len(pts), c), delta=0.0),
    )
    witness = absorbing_radius(0.0, still, 0.0, steady, grid, 20.0, observed_norm=1.0)
    assert witness.integral == pytest.approx(4.0 * (1.0 - math.exp(-20.0 * lam)) / lam, rel=1e-5)
    assert witness.fitted_constant == 1.0 / math.sqrt(witness.integral)
    with pytest.raises(ConfigurationError, match="quadrature_horizon"):
        absorbing_radius(0.0, still, 0.0, steady, grid, 0.0)

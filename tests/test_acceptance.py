"""Twelve acceptance criteria for the laboratory, one test per criterion.

Each test prints a single criterion line (visible with -v through the test
name, and in the captured output with the measured values) and then asserts
the stated tolerance.  Tolerances are the contract: a failure here means the
claim is not met, not that the bracket needs widening.
"""

import math

import numpy as np
import pytest
from scipy import stats

from pullbacklab.attractor import (
    absorbing_radius,
    compute_equilibrium,
    fit_decay_rate,
    sweep_shrinks,
    tail_profile,
    truncation_diagnostic,
    upper_semicontinuity_sweep,
)
from pullbacklab.cocycle import phi, pullback_state, verify_cocycle_property
from pullbacklab.field import (
    Grid,
    eigenmode,
    eigenmode_rate,
    gaussian_bump,
    h1_norm,
    l2_norm,
    zero_field,
)
from pullbacklab.model import (
    Nonlinearity,
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
    zero_forcing,
)
from pullbacklab.noise import flat_path, sample_path, shift
from pullbacklab.solver import (
    SolverConfig,
    integrate,
    integrate_deterministic,
    self_convergence,
    spatial_convergence,
)

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


def _desk_spec(lam=2.0, alpha3=1.0, scale=1.0, forcing=(0.5, 0.5, 1.0)):
    return ProblemSpec(
        lam=lam,
        nonlinearity=canonical_cubic(alpha3, scale),
        forcing=canonical_forcing(*forcing),
    )


GRID = Grid(1, 8.0, 129)
CFG = SolverConfig(dt=1e-3)


def _diff_l2(a, b):
    return l2_norm(a.with_values(a.values - b.values))


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def test_criterion_01_cocycle_identity_and_composition():
    spec = _desk_spec()
    rng = np.random.default_rng(42)
    dt = CFG.dt
    worst = 0.0
    for case in range(19):
        t = dt * int(rng.integers(50, 400))
        s = dt * int(rng.integers(50, 400))
        tau = dt * int(rng.integers(-1000, 1000))
        eps = float(rng.uniform(0.05, 1.0))
        amp = float(rng.uniform(0.3, 2.0)) * (1 if case % 2 else -1)
        width = float(rng.uniform(0.8, 3.0))
        u0 = gaussian_bump(GRID, amp, width)
        # the window must hold the integration range and the re-basing
        # points at -tau and -(tau + s)
        path = sample_path(100 + case, -1.5, 1.5, dt)
        held = phi(0.0, tau, path, eps, u0, spec, CFG)
        assert held is u0
        worst = max(worst, verify_cocycle_property(t, s, tau, path, eps, u0, spec, CFG))
    spec2d = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )
    grid2d = Grid(2, 6.0, 65)
    cfg2d = SolverConfig(dt=2e-3)
    path2d = sample_path(200, -0.5, 0.5, 2e-3)
    u0_2d = gaussian_bump(grid2d, 1.0, 1.5)
    worst = max(
        worst,
        verify_cocycle_property(0.05, 0.05, 0.1, path2d, 0.5, u0_2d, spec2d, cfg2d),
    )
    _report(1, "cocycle identity and composition", worst <= 1e-10,
            f"worst relative residual {worst:.3e} over 20 cases, identity exact")


def test_criterion_02_contraction_rate_beats_the_gap():
    spec = _desk_spec()
    slopes = []
    for seed in range(4):
        path = sample_path(seed, -1.0, 7.0, 1e-3)
        fit = fit_decay_rate(
            0.0,
            path,
            1.0,
            spec,
            CFG,
            gaussian_bump(GRID, 1.0, 1.5),
            zero_field(GRID),
            window=6.0,
            fit_start=1.0,
        )
        assert not fit.underflow
        slopes.append(fit.slope)
    ok = all(s <= -1.0 + 0.1 for s in slopes)
    _report(2, "contraction rate", ok,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes) + " vs bound -0.9")


def test_criterion_03_equilibrium_unique_across_initial_data():
    spec = _desk_spec(lam=1.5, scale=0.05, forcing=(0.5, 0.5, 2.0))
    path = sample_path(7, -42.0, 3.0, 1e-3)
    schedule = [1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0]
    res_a = compute_equilibrium(
        1.0, path, 0.25, spec, CFG, gaussian_bump(GRID, 2.0, 4.0), schedule
    )
    res_b = compute_equilibrium(
        1.0, path, 0.25, spec, CFG, gaussian_bump(GRID, -1.0, 3.0), schedule
    )
    gap = _diff_l2(res_a.state, res_b.state) / (1.0 + res_a.l2)
    tails = [[inc for _, inc in res.history][-5:] for res in (res_a, res_b)]
    monotone = all(all(b < a for a, b in zip(t, t[1:])) for t in tails)
    ok = gap <= 1e-6 and monotone
    _report(3, "unique random equilibrium", ok,
            f"final relative gap {gap:.3e}, last-5 increments decreasing: {monotone}")


def test_criterion_04_equilibrium_invariance_under_the_flow():
    spec = _desk_spec()
    depth, tau, hop = 24.0, 1.0, 2.0
    gaps = []
    for seed in range(4):
        path = sample_path(seed, -24.0, 3.0, 1e-3)
        ustar = pullback_state(
            depth, tau, path, 0.5, gaussian_bump(GRID, 1.0, 1.5), spec, CFG
        )
        pushed = phi(hop, tau, path, 0.5, ustar, spec, CFG)
        target = pullback_state(
            depth, tau + hop, shift(path, hop), 0.5,
            gaussian_bump(GRID, -0.5, 2.0), spec, CFG,
        )
        gaps.append(_diff_l2(pushed, target) / (1.0 + l2_norm(target)))
    ok = all(g <= 1e-5 for g in gaps)
    _report(4, "equilibrium invariance", ok,
            "relative gaps " + ", ".join(f"{g:.2e}" for g in gaps) + " over 4 seeds")


def test_criterion_05_equilibrium_norms_stable_under_refinement():
    spec = _desk_spec()
    path = sample_path(7, -17.0, 1.0, 1e-3)
    schedule = [1.0, 2.0, 4.0, 8.0, 16.0]
    coarse = compute_equilibrium(
        0.5, path, 0.5, spec, CFG, gaussian_bump(GRID, 1.0, 1.5), schedule
    )
    fine_grid = Grid(1, 8.0, 257)
    fine = compute_equilibrium(
        0.5, path, 0.5, spec, CFG, gaussian_bump(fine_grid, 1.0, 1.5), schedule
    )
    dh1 = abs(fine.h1 - coarse.h1) / coarse.h1
    dlp = abs(fine.lp - coarse.lp) / coarse.lp
    finite = all(math.isfinite(v) for v in (coarse.h1, coarse.lp, fine.h1, fine.lp))
    ok = finite and dh1 <= 0.01 and dlp <= 0.01
    _report(5, "equilibrium norm stability", ok,
            f"H1 {coarse.h1:.6f}->{fine.h1:.6f} ({dh1:.2e}), "
            f"L4 {coarse.lp:.6f}->{fine.lp:.6f} ({dlp:.2e}) at m 129->257")


def test_criterion_06_tail_fraction_small_and_monotone():
    spec = _desk_spec(lam=14.0, alpha3=0.5, forcing=(1.0, 0.5, 1.0))
    path = sample_path(3, -12.0, 1.0, 1e-3)
    profile = tail_profile(
        0.0, path, 0.5, spec, CFG, gaussian_bump(GRID, 1.0, 1.5),
        horizon=12.0, radii=[0.0, 2.0, 4.0, 6.0, 8.0],
    )
    frac_l2 = {r: t2 / profile.full_l2 for r, t2, _ in profile.rows}
    frac_h1 = {r: t1 / profile.full_h1 for r, _, t1 in profile.rows}
    tails_l2 = [t2 for _, t2, _ in profile.rows]
    tails_h1 = [t1 for _, _, t1 in profile.rows]
    monotone = all(b <= a for a, b in zip(tails_l2, tails_l2[1:])) and all(
        b <= a for a, b in zip(tails_h1, tails_h1[1:])
    )
    ok = monotone and frac_l2[4.0] <= 1e-4 and frac_h1[4.0] <= 1e-4
    _report(6, "tail smallness", ok,
            f"fractions at half radius: L2 {frac_l2[4.0]:.2e}, H1 {frac_h1[4.0]:.2e}; "
            f"non-increasing: {monotone}")


def test_criterion_07_truncation_values_fall_to_zero():
    spec = _desk_spec(forcing=(200.0, 0.5, 1.0))
    path = sample_path(11, -6.0, 1.0, 1e-3)
    u0 = gaussian_bump(GRID, 1.0, 1.5)
    values = [
        truncation_diagnostic(0.0, path, 0.1, spec, CFG, u0, 4.0, level).value
        for level in (1.0, 2.0, 4.0, 8.0)
    ]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = decreasing and values[-1] <= 1e-8
    _report(7, "truncation diagnostic", ok,
            "values " + ", ".join(f"{v:.3e}" for v in values) + " along levels 1,2,4,8")


def test_criterion_08_attractor_distance_shrinks_with_the_noise():
    spec = _desk_spec()
    grid = Grid(1, 8.0, 65)
    cfg = SolverConfig(dt=2e-3)
    ensemble = [zero_field(grid), gaussian_bump(grid, 1.0, 1.5)]
    sweep = upper_semicontinuity_sweep(
        0.0, list(range(8)), [0.5, 0.25, 0.1, 0.05], spec, cfg, ensemble, 16.0
    )
    verdict = sweep_shrinks(sweep, ratio_bound=0.2)
    ok = (
        verdict["inversions_l2"] <= 1
        and verdict["inversions_h1"] <= 1
        and verdict["ok_l2"]
        and verdict["ok_h1"]
    )
    _report(8, "upper semicontinuity", ok,
            f"mean ratios L2 {verdict['ratio_l2']:.3f}, H1 {verdict['ratio_h1']:.3f}; "
            f"inversions {verdict['inversions_l2']}/{verdict['inversions_h1']}")


def test_criterion_09_zero_noise_matches_deterministic_bitwise():
    spec0 = _desk_spec()
    v0 = gaussian_bump(GRID, 1.0, 1.5)
    reference = integrate_deterministic(v0, 0.0, 1.0, spec0, CFG).final
    still = integrate(v0, 0.0, 1.0, flat_path(-1.0, 2.0, 1e-3), 0.0, spec0, CFG).final
    noisy = integrate(v0, 0.0, 1.0, sample_path(9, -1.0, 2.0, 1e-3), 0.0, spec0, CFG).final
    ok = np.array_equal(still.values, reference.values) and np.array_equal(
        noisy.values, reference.values
    )
    _report(9, "deterministic limit", ok,
            "conjugated runs at epsilon 0 match the plain solver bitwise "
            "on still and sampled paths")


def _zero_reaction():
    const_one = lambda pts: np.ones(len(pts))
    return Nonlinearity(
        f=lambda pts, s: np.zeros_like(s),
        df_ds=lambda pts, s: np.zeros_like(s),
        df_dx=lambda pts, s: np.zeros_like(s),
        alpha1=1.0, alpha2=1.0, alpha3=0.0, alpha4=1.0, p=2.0,
        psi1=const_one, psi2=const_one, psi3=const_one, psi4=const_one,
    )


def test_criterion_10_scheme_orders_and_eigenmode_recurrence():
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    path = flat_path(-1.0, 2.0, 5e-4)
    temporal = self_convergence(
        gaussian_bump(GRID, 1.0, 2.0), 1.0, path, 0.5, spec, [8e-3, 4e-3, 2e-3, 1e-3, 5e-4]
    )
    spatial = spatial_convergence(
        lambda pts: np.exp(-(pts**2).sum(axis=1) / 4.0),
        0.5, path, 0.5, spec, SolverConfig(dt=5e-4), Grid(1, 8.0, 33), 4,
    )
    t_ok = all(abs(o - 1.0) <= 0.3 for o in temporal.orders)
    s_ok = all(abs(o - 2.0) <= 0.6 for o in spatial.orders)

    lin1 = ProblemSpec(
        lam=2.0, nonlinearity=_zero_reaction(), forcing=zero_forcing(),
    )
    v1 = eigenmode(GRID, 3)
    mu1 = eigenmode_rate(GRID, 3)
    got1 = integrate_deterministic(
        v1, 0.0, 0.2, lin1, SolverConfig(dt=1e-3)
    ).final
    err1 = float(np.max(np.abs(got1.values - v1.values * (1.0 + 1e-3 * (2.0 + mu1)) ** -200)))

    grid2 = Grid(2, 6.0, 65)
    v2 = eigenmode(grid2, 2)
    mu2 = eigenmode_rate(grid2, 2)
    got2 = integrate_deterministic(
        v2, 0.0, 0.1, lin1, SolverConfig(dt=2e-3)
    ).final
    err2 = float(np.max(np.abs(got2.values - v2.values * (1.0 + 2e-3 * (2.0 + mu2)) ** -50)))

    # the 1D step is a direct banded solve; the 2D one is iterative, so its
    # error budget is the accumulated linear-solver tolerance
    e_ok = err1 <= 1e-10 and err2 <= 1e-8
    ok = t_ok and s_ok and e_ok
    _report(10, "scheme verification", ok,
            f"temporal orders {[round(o, 3) for o in temporal.orders]}, "
            f"spatial orders {[round(o, 3) for o in spatial.orders]}, "
            f"eigenmode errors {err1:.2e} (1D) {err2:.2e} (2D)")


def test_criterion_11_absorbing_integral_stable_under_doubling():
    spec = _desk_spec()
    path = sample_path(5, -48.0, 1.0, 1e-3)
    u0 = gaussian_bump(GRID, 1.0, 1.5)
    obs1 = l2_norm(pullback_state(12.0, 0.0, path, 0.5, u0, spec, CFG))
    obs2 = l2_norm(pullback_state(24.0, 0.0, path, 0.5, u0, spec, CFG))
    w1 = absorbing_radius(0.0, path, 0.5, spec, GRID, 20.0, observed_norm=obs1)
    w2 = absorbing_radius(0.0, path, 0.5, spec, GRID, 40.0, observed_norm=obs2)
    quad_change = abs(w2.integral - w1.integral) / w1.integral
    const_change = abs(w2.fitted_constant - w1.fitted_constant) / w1.fitted_constant
    finite = all(
        math.isfinite(v) and v > 0.0
        for v in (w1.integral, w2.integral, w1.fitted_constant, w2.fitted_constant)
    )
    ok = finite and quad_change <= 0.01 and const_change <= 0.2
    _report(11, "absorbing-set witness", ok,
            f"integral change {quad_change:.2e}, fitted constant "
            f"{w1.fitted_constant:.4f} -> {w2.fitted_constant:.4f} ({const_change:.2e})")


def test_criterion_12_noise_increments_gaussian_and_shift_exact():
    draws = np.array(
        [sample_path(seed, 0.0, 1.0, 0.25).value_at(1.0) for seed in range(10_000)]
    )
    pvalue = stats.kstest(draws, "norm").pvalue

    base = sample_path(2024, -2.0, 2.0, 1e-3)
    a, b = 0.375, -1.125
    twice = shift(shift(base, a), b)
    once = shift(base, a + b)
    lattice = [-0.5, -0.25, 0.0, 0.125, 0.875]
    exact = all(twice.value_at(t) == once.value_at(t) for t in lattice)
    ok = pvalue > 0.01 and exact
    _report(12, "noise statistics", ok,
            f"KS p-value {pvalue:.3f} over 10^4 seeds, shift group exact: {exact}")

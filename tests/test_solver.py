"""Marching scheme: exact linear oracles, bitwise identities, convergence
orders, divergence detection, and the discrete energy inequality.

The eigenmode oracle is the one place the scheme is checked against
arithmetic done entirely outside the solver: with the reaction switched off
the semi-implicit step multiplies a discrete Laplacian eigenmode by the
exact factor 1/(1 + dt*(lam + mu)) per step, where mu is the hand-computed
eigenvalue.
"""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab import solver
from pullbacklab.attractor import compute_equilibrium, truncation_diagnostics
from pullbacklab.cocycle import phi, pullback_states
from pullbacklab.errors import (
    BoundaryLeakWarning,
    ConfigurationError,
    DivergenceError,
)
from pullbacklab.field import Field, Grid, eigenmode, gaussian_bump, l2_norm, zero_field
from pullbacklab.model import (
    Nonlinearity,
    ProblemSpec,
    canonical_cubic,
    forcing_norms_sq,
    zero_forcing,
)
from pullbacklab.noise import flat_path, refine, sample_path, z_series
from pullbacklab.solver import (
    SolverConfig,
    _Context,
    difference_history,
    energy_audit,
    final_state,
    final_states,
    integrate,
    integrate_deterministic,
    self_convergence,
    spatial_convergence,
    step,
    steps_between,
    stored_values,
)

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


def zero_reaction() -> Nonlinearity:
    const_one = lambda pts: np.ones(len(pts))
    return Nonlinearity(
        f=lambda pts, s: np.zeros_like(s),
        df_ds=lambda pts, s: np.zeros_like(s),
        df_dx=lambda pts, s: np.zeros_like(s),
        alpha1=1.0, alpha2=1.0, alpha3=0.0, alpha4=1.0, p=2.0,
        psi1=const_one, psi2=const_one, psi3=const_one, psi4=const_one,
    )


def linear_spec() -> ProblemSpec:
    return ProblemSpec(
        lam=2.0,
        nonlinearity=zero_reaction(),
        forcing=zero_forcing(),
    )


def test_steps_between_counts_lattice_intervals():
    assert steps_between(0.0, 1.0, 1e-3) == 1000
    assert steps_between(-2.0, 2.0, 0.5) == 8
    assert steps_between(0.3, 0.3, 1e-3) == 0
    with pytest.raises(ConfigurationError):
        steps_between(0.0, 0.0015, 1e-3)
    with pytest.raises(ConfigurationError):
        steps_between(1.0, 0.0, 1e-3)


def test_eigenmode_recurrence_oracle_1d():
    spec = linear_spec()
    grid = Grid(1, 8.0, 129)
    dt = 1e-3
    steps = 200
    h = grid.spacing
    cfg = SolverConfig(dt=dt)
    for mode in (1, 3, 7):
        v0 = eigenmode(grid, mode)
        # eigenvalue of the second-difference stencil, derived by hand
        mu = (4.0 / h**2) * np.sin(np.pi * mode / (2.0 * (129 - 1))) ** 2
        expected = v0.values * (1.0 + dt * (spec.lam + mu)) ** (-steps)
        got = integrate_deterministic(v0, 0.0, steps * dt, spec, cfg).final
        assert np.max(np.abs(got.values - expected)) < 1e-12


def test_eigenmode_recurrence_oracle_2d():
    spec = linear_spec()
    grid = Grid(2, 6.0, 65)
    dt = 2e-3
    steps = 50
    h = grid.spacing
    cfg = SolverConfig(dt=dt)
    v0 = eigenmode(grid, 2)
    mu = 2.0 * (4.0 / h**2) * np.sin(np.pi * 2 / (2.0 * (65 - 1))) ** 2
    expected = v0.values * (1.0 + dt * (spec.lam + mu)) ** (-steps)
    got = integrate_deterministic(v0, 0.0, steps * dt, spec, cfg).final
    # the solve is direct, so the bound is the 1D twin's
    assert np.max(np.abs(got.values - expected)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
    dt=st.floats(1e-4, 0.1),
    lam=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**16),
)
def test_direct_2d_solve_residual_property(m, dt, lam, seed):
    # the solve is direct, so it meets the 5-point operator, applied here by
    # slicing, to rounding whatever the data
    grid = Grid(2, 6.0, m)
    ctx = _Context(grid, replace(linear_spec(), lam=lam), SolverConfig(dt=dt))
    rhs = np.random.default_rng(seed).standard_normal((m - 2, m - 2))
    x = np.zeros(grid.shape)
    x[1:-1, 1:-1] = ctx.solve_implicit(rhs)
    c = x[1:-1, 1:-1]
    lap = (x[2:, 1:-1] + x[:-2, 1:-1] + x[1:-1, 2:] + x[1:-1, :-2] - 4.0 * c) / grid.spacing**2
    residual = c + dt * (lam * c - lap) - rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))


def test_2d_solve_has_the_bits_of_the_fast_diagonalisation_formula():
    # one field, a stack and a strided interior view, each against
    # Q ((Q R Q) * inv) Q written out with temporaries
    grid = Grid(2, 6.0, 17)
    ctx = _Context(grid, linear_spec(), SolverConfig(dt=1e-3))
    q, inv = ctx._q, ctx._inv
    rng = np.random.default_rng(9)
    full = rng.standard_normal(grid.shape)
    for rhs in (rng.standard_normal((15, 15)), rng.standard_normal((3, 15, 15)), full[1:-1, 1:-1]):
        assert np.array_equal(ctx.solve_implicit(rhs), q @ ((q @ rhs @ q) * inv) @ q)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
    dt=st.floats(1e-4, 0.1),
    lam=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**16),
)
def test_direct_1d_solve_residual_and_contraction_property(m, dt, lam, seed):
    # the inverse meets the 3-point operator, applied here by slicing, to
    # rounding; and it is a contraction in the max norm, which is why the
    # march checks only the right-hand side for overflow, not the solution
    grid = Grid(1, 8.0, m)
    ctx = _Context(grid, replace(linear_spec(), lam=lam), SolverConfig(dt=dt))
    rhs = np.random.default_rng(seed).standard_normal(m - 2)
    x = np.zeros(grid.shape)
    x[1:-1] = ctx.solve_implicit(rhs)
    c = x[1:-1]
    lap = (x[2:] + x[:-2] - 2.0 * c) / grid.spacing**2
    residual = c + dt * (lam * c - lap) - rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))
    # solving for the identity's rows, as a (k, m-2) stack of right-hand
    # sides, gives the inverse's columns as rows; the inverse is symmetric
    # to rounding, so these are its rows too
    row_sums = np.abs(ctx.solve_implicit(np.eye(m - 2))).sum(axis=1)
    assert np.all(row_sums <= (1.0 + 1e-12) / (1.0 + dt * lam))


def test_zero_step_integration_returns_input_bitwise(desk_spec, desk_path, desk_cfg):
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    traj = integrate(v0, 0.5, 0.5, desk_path, 0.5, desk_spec, desk_cfg)
    assert len(traj.states) == 1
    assert traj.states[0] is v0
    assert final_state(v0, 0.5, 0.5, desk_path, 0.5, desk_spec, desk_cfg) is v0


def test_epsilon_zero_matches_deterministic_solver_bitwise(desk_spec, desk_cfg):
    spec0 = desk_spec
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    path = flat_path(-1.0, 2.0, desk_cfg.dt)
    a = integrate(v0, 0.0, 1.0, path, 0.0, spec0, desk_cfg)
    b = integrate_deterministic(v0, 0.0, 1.0, spec0, desk_cfg)
    assert np.array_equal(a.final.values, b.final.values)


def test_store_stride_subsamples_the_full_trajectory(desk_spec, desk_path, desk_cfg):
    # 20 does not divide the 110 steps, so the endpoint is stored off the stride
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    full = integrate(v0, 0.0, 0.11, desk_path, 0.5, desk_spec, desk_cfg)
    column = ((v0,), 0.0, 0.11, (desk_path,), (0.5,))
    strided = [(t, v[0].copy()) for t, v in stored_values(*column, desk_spec, desk_cfg, 20)]
    kept = [*range(0, 110, 20), 110]
    assert [t for t, _ in strided] == [full.times[j] for j in kept]
    for (_, values), j in zip(strided, kept, strict=True):
        assert values.tobytes() == full.states[j].values.tobytes()


def test_stored_values_at_stride_one_match_integrate_bitwise(desk_spec, desk_path, desk_cfg):
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    traj = integrate(v0, 0.0, 0.05, desk_path, 0.5, desk_spec, desk_cfg)
    column = ((v0,), 0.0, 0.05, (desk_path,), (0.5,))
    streamed = [(t, v[0].copy()) for t, v in stored_values(*column, desk_spec, desk_cfg, 1)]
    assert len(streamed) == len(traj.states)
    for (t_s, values_s), (t_t, state_t) in zip(streamed, zip(traj.times, traj.states)):
        assert t_s == t_t
        assert np.array_equal(values_s, state_t.values)


def test_difference_history_contracts(desk_spec, desk_path, desk_cfg):
    grid = Grid(1, 8.0, 129)
    a = gaussian_bump(grid, 1.0, 1.5)
    b = zero_field(grid)
    times, sq = difference_history(a, b, 0.0, 2.0, desk_path, 0.5, desk_spec, desk_cfg, 100)
    assert times[0] == 0.0
    assert sq[0] == pytest.approx(l2_norm(a) ** 2, rel=1e-12)
    assert sq[-1] < sq[0]
    # effective damping lam - alpha3 = 1 forces at least e^{-2} over 2 units
    assert sq[-1] < sq[0] * np.exp(-1.0)


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 33)])
def test_difference_history_has_the_bits_of_the_plain_squared_gaps(
    desk_spec, desk_path, desk_cfg, dimension, m
):
    # the oracle is the formula the squared gaps replaced, h^N * sum((a - b)**2),
    # over each run collected alone at the sample stride
    grid = Grid(dimension, 6.0, m)
    a, b = gaussian_bump(grid, 1.0, 1.5), gaussian_bump(grid, -0.5, 2.0)
    times, sq = difference_history(a, b, 0.0, 0.1, desk_path, 0.5, desk_spec, desk_cfg, 7)
    runs = [integrate(v0, 0.0, 0.1, desk_path, 0.5, desk_spec, desk_cfg) for v0 in (a, b)]
    kept = [*range(0, 100, 7), 100]
    vol = grid.cell_volume
    pairs = ((runs[0].states[j], runs[1].states[j]) for j in kept)
    want = [vol * float(np.sum((x.values - y.values) ** 2)) for x, y in pairs]
    assert np.array_equal(times, runs[0].times[kept])
    assert sq.tolist() == want


@pytest.mark.parametrize("stride", [0, -1, 2.5, True])
def test_difference_history_rejects_a_bad_sample_stride_before_any_step(
    monkeypatch, desk_spec, desk_path, desk_cfg, stride
):
    # 0 divided by zero after the first step, -1 sampled every step, 2.5
    # sampled by float modulo and True sampled every step as a stride of 1
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected stride must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    grid = Grid(1, 8.0, 129)
    a, b = gaussian_bump(grid, 1.0, 1.5), zero_field(grid)
    with pytest.raises(ConfigurationError, match="must be a positive integer"):
        difference_history(a, b, 0.0, 0.01, desk_path, 0.5, desk_spec, desk_cfg, stride)


def test_difference_history_takes_a_numpy_integer_sample_stride(desk_spec, desk_path, desk_cfg):
    grid = Grid(1, 8.0, 129)
    a, b = gaussian_bump(grid, 1.0, 1.5), zero_field(grid)
    want = difference_history(a, b, 0.0, 0.01, desk_path, 0.5, desk_spec, desk_cfg, 4)
    got = difference_history(a, b, 0.0, 0.01, desk_path, 0.5, desk_spec, desk_cfg, np.int64(4))
    # every 4th of the 10 steps, and the endpoint
    assert np.array_equal(got[0], np.array([0, 4, 8, 10]) * desk_cfg.dt)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("stride", [0, -1, 2.5, True])
def test_stored_values_rejects_a_bad_stride_before_any_step(
    monkeypatch, desk_spec, desk_path, desk_cfg, stride
):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected stride must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    v0 = gaussian_bump(Grid(1, 8.0, 129), 1.0, 1.5)
    column = ((v0,), 0.0, 0.01, (desk_path,), (0.5,))
    with pytest.raises(ConfigurationError, match="stride must be a positive integer"):
        next(stored_values(*column, desk_spec, desk_cfg, stride))


@pytest.mark.parametrize("door", ["final_states", "stored_values"])
def test_both_doors_reject_states_on_grids_of_one_shape_but_two_radii(
    monkeypatch, desk_spec, desk_path, desk_cfg, door
):
    # both grids are 129 points, so only the radius, and so h, tells them apart
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected stack must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    v0s = (gaussian_bump(Grid(1, 8.0, 129), 1.0, 1.5), gaussian_bump(Grid(1, 6.0, 129), 1.0, 1.5))
    paths, epsilons = (desk_path,) * 2, (0.5,) * 2
    with pytest.raises(ConfigurationError, match="one grid"):
        if door == "final_states":
            final_states(v0s, (0.0,) * 2, 0.01, paths, epsilons, desk_spec, desk_cfg)
        else:
            next(stored_values(v0s, 0.0, 0.01, paths, epsilons, desk_spec, desk_cfg, 1))


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 17)])
def test_every_run_takes_its_intensity_as_an_argument_bitwise(
    desk_spec, desk_path, desk_cfg, dimension, m
):
    # one spec, one path, one intensity: every door to the endpoint gives
    # the same bits, and another intensity gives other bits
    v0 = gaussian_bump(Grid(dimension, 8.0, m), 1.0, 1.5)
    run = (v0, 0.0, 0.05, desk_path, 0.3, desk_spec, desk_cfg)
    want = final_state(*run).values.tobytes()
    assert integrate(*run).final.values.tobytes() == want
    (end,) = final_states((v0,), (0.0,), 0.05, (desk_path,), (0.3,), desk_spec, desk_cfg)
    assert end.values.tobytes() == want
    for t, v in stored_values((v0,), 0.0, 0.05, (desk_path,), (0.3,), desk_spec, desk_cfg, 7):
        last = (t, v[0].tobytes())
    assert last == (0.05, want)
    other = final_state(v0, 0.0, 0.05, desk_path, 0.5, desk_spec, desk_cfg)
    assert other.values.tobytes() != want


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 17)])
def test_step_is_the_one_step_final_state_bitwise(desk_spec, desk_path, desk_cfg, dimension, m):
    v = gaussian_bump(Grid(dimension, 8.0, m), 1.0, 1.5)
    for t in (0.0, 0.25):
        got = step(v, t, desk_path, 0.5, desk_spec, desk_cfg)
        want = final_state(v, t, t + desk_cfg.dt, desk_path, 0.5, desk_spec, desk_cfg)
        assert got.values.tobytes() == want.values.tobytes()
        v = got


def test_temporal_self_convergence_is_first_order():
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 65)
    v0 = gaussian_bump(grid, 1.0, 2.0)
    # noise-free run: coarse rungs on a sampled path pick up the local
    # z-increment fluctuation, which only averages out at finer dt
    path = flat_path(-0.5, 1.0, 1e-2)
    report = self_convergence(v0, 0.5, path, 0.5, spec, [1e-2, 5e-3, 2.5e-3, 1.25e-3])
    assert len(report.orders) == 2
    for order in report.orders:
        assert 0.8 <= order <= 1.2


def test_spatial_self_convergence_is_second_order():
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    path = sample_path(3, -0.5, 1.0, 1e-3)
    report = spatial_convergence(
        lambda pts: np.exp(-(pts**2).sum(axis=1) / 4.0),
        0.25,
        path,
        0.5,
        spec,
        SolverConfig(dt=1e-3),
        Grid(1, 8.0, 17),
        4,
    )
    for order in report.orders:
        assert 1.4 <= order <= 2.6


def test_convergence_ladder_validation(desk_spec):
    grid = Grid(1, 8.0, 65)
    v0 = gaussian_bump(grid, 1.0, 2.0)
    path = flat_path(-0.5, 1.0, 1e-3)
    with pytest.raises(ConfigurationError):
        self_convergence(v0, 0.5, path, 0.5, desk_spec, [8e-3, 4e-3])
    with pytest.raises(ConfigurationError):
        self_convergence(v0, 0.5, path, 0.5, desk_spec, [8e-3, 4e-3, 3e-3])
    with pytest.raises(ConfigurationError):
        spatial_convergence(
            lambda pts: np.zeros(len(pts)),
            0.5,
            path,
            0.5,
            desk_spec,
            SolverConfig(dt=1e-3),
            Grid(1, 8.0, 17),
            2,
        )


def test_divergence_raises_with_the_failure_time():
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 3.5, 1.5)
    path = flat_path(-1.0, 8.0, 0.5)
    cfg = SolverConfig(dt=0.5)
    with pytest.raises(DivergenceError) as exc_info:
        integrate(v0, 0.0, 6.0, path, 0.0, spec, cfg)
    assert 0.0 < exc_info.value.t <= 6.0
    # halving dt stabilizes the same run, read on the path refined to dt
    integrate(v0, 0.0, 6.0, refine(path), 0.0, spec, SolverConfig(dt=0.25))


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 33)])
def test_the_oracle_diverges_when_the_kernel_does(dimension, m):
    # at zero noise the oracle checks each step's right-hand side as the
    # kernel does, and the solve is a contraction: both raise at one time
    spec = ProblemSpec(lam=2.0, nonlinearity=canonical_cubic(1.0), forcing=zero_forcing())
    v0 = gaussian_bump(Grid(dimension, 8.0, m), 6.0, 1.5)
    cfg = SolverConfig(dt=0.1)
    with pytest.raises(DivergenceError) as oracle:
        integrate_deterministic(v0, 0.0, 2.0, spec, cfg)
    with pytest.raises(DivergenceError) as kernel:
        final_state(v0, 0.0, 2.0, flat_path(-1.0, 3.0, 0.1), 0.0, spec, cfg)
    assert 0.1 < oracle.value.t < 2.0
    assert oracle.value.t == kernel.value.t


def test_energy_audit_inequality_holds(desk_spec, desk_path):
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    audit = energy_audit(v0, 0.0, 1.0, desk_path, 0.5, desk_spec, SolverConfig(dt=1e-3))
    assert audit.constant == pytest.approx(2.0)
    assert audit.psi1_mass > 0.0
    assert audit.violations.shape == (1000,)
    # the discrete estimate holds with slack on the desk instance
    assert audit.max_violation <= 0.0


def test_energy_audit_has_the_bits_of_the_plain_squared_norms(desk_spec, desk_path, desk_cfg):
    # the oracle is the formula the squared norms replaced, h^N * sum(v**2),
    # over the run integrate collects at every step
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    dt, lam, n = desk_cfg.dt, desk_spec.lam, 100
    audit = energy_audit(v0, 0.0, n * dt, desk_path, 0.5, desk_spec, desk_cfg)
    traj = integrate(v0, 0.0, n * dt, desk_path, 0.5, desk_spec, desk_cfg)
    sq = [grid.cell_volume * float(np.sum(state.values**2)) for state in traj.states]
    zs = z_series(desk_path, 0.5, 0.0, n, dt)
    g_sq = forcing_norms_sq(desk_spec.forcing, grid, np.arange(n) * dt)
    c, psi1 = audit.constant, audit.psi1_mass
    want = [
        sq[j + 1] - sq[j] + dt * lam * sq[j + 1]
        - c * dt * float(zs[j]) ** 2 * (float(g_sq[j]) + psi1)
        for j in range(n)
    ]
    assert audit.violations.tolist() == want


def leak_spec() -> ProblemSpec:
    return ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )


def test_boundary_leak_warning_fires_on_contact():
    grid = Grid(1, 8.0, 129)
    # wide profile with visible mass next to the boundary from the start
    v0 = gaussian_bump(grid, 1.0, 6.0)
    path = flat_path(-1.0, 1.0, 1e-3)
    with pytest.warns(BoundaryLeakWarning):
        integrate(v0, 0.0, 0.01, path, 0.0, leak_spec(), SolverConfig(dt=1e-3))


def leak_warnings(run) -> list:
    """The BoundaryLeakWarnings ``run()`` raises, each placed at this file,
    the code that asked for the run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    leaks = [w for w in caught if issubclass(w.category, BoundaryLeakWarning)]
    assert all(w.filename == __file__ for w in leaks)
    return leaks


def leak_inputs():
    grid = Grid(1, 8.0, 129)
    wide, other = gaussian_bump(grid, 1.0, 6.0), gaussian_bump(grid, 0.5, 6.0)
    narrow = gaussian_bump(grid, 1.0, 1.0)
    return wide, other, narrow, flat_path(-1.0, 1.0, 1e-3), leak_spec(), SolverConfig(dt=1e-3)


def test_difference_history_checks_its_final_stack_for_a_leak():
    # one warning per leaking column of the final pair, as every other run
    wide, other, narrow, path, spec, cfg = leak_inputs()
    for a, b, leaking in ((wide, other, 2), (wide, narrow, 1), (narrow, narrow, 0)):
        run = lambda: difference_history(a, b, 0.0, 0.01, path, 0.0, spec, cfg, 4)
        assert len(leak_warnings(run)) == leaking


def test_energy_audit_checks_its_final_state_for_a_leak():
    wide, _, narrow, path, spec, cfg = leak_inputs()
    for v0, leaking in ((wide, 1), (narrow, 0)):
        audit = lambda: energy_audit(v0, 0.0, 0.01, path, 0.0, spec, cfg)
        assert len(leak_warnings(audit)) == leaking


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 33)])
def test_a_leak_warning_prints_the_magnitude_of_the_per_column_formula(dimension, m):
    # each column's largest |v| next to the boundary, formed as the leak
    # check did column by column, is the magnitude its warning prints
    grid = Grid(dimension, 8.0, m)
    v0s = (gaussian_bump(grid, 1.0, 6.0), gaussian_bump(grid, -0.5, 6.0))
    spec, cfg = leak_spec(), SolverConfig(dt=1e-3)
    path = flat_path(-1.0, 1.0, 1e-3)
    ends = []
    columns = (v0s, (0.0,) * 2, 0.01, (path,) * 2, (0.0,) * 2)
    leaks = leak_warnings(lambda: ends.extend(final_states(*columns, spec, cfg)))
    want = []
    for end in ends:
        col = end.values
        if col.ndim == 1:
            ring = max(abs(float(col[1])), abs(float(col[-2])))
        else:
            ring = max(
                float(np.abs(col[1, :]).max()),
                float(np.abs(col[-2, :]).max()),
                float(np.abs(col[:, 1]).max()),
                float(np.abs(col[:, -2]).max()),
            )
        want.append(f"solution magnitude {ring:.3e} adjacent to the artificial boundary")
    assert len(leaks) == 2
    assert [str(w.message).split(" exceeds")[0].rstrip() for w in leaks] == want


# each run's leaking columns, and the run; the path spans every run's window
LEAK_RUNS = {
    "step": (1, lambda u0, path, spec, cfg: step(u0, 0.0, path, 0.0, spec, cfg)),
    "final_state": (1, lambda u0, path, spec, cfg: final_state(
        u0, 0.0, 0.01, path, 0.0, spec, cfg)),
    "phi": (1, lambda u0, path, spec, cfg: phi(0.01, 0.5, path, 0.0, u0, spec, cfg)),
    "pullback_states": (2, lambda u0, path, spec, cfg: pullback_states(
        (0.01, 0.005), 0.5, (path, path), (0.0, 0.0), (u0, u0), spec, cfg)),
    "compute_equilibrium": (2, lambda u0, path, spec, cfg: compute_equilibrium(
        0.5, path, 0.0, spec, cfg, u0, (0.005, 0.01))),
    # the burn-in's endpoint and the unit window's last state
    "truncation_diagnostics": (2, lambda u0, path, spec, cfg: truncation_diagnostics(
        0.5, path, 0.0, spec, cfg, u0, 1.5, (0.05, 0.1))),
}


@pytest.mark.parametrize("name", sorted(LEAK_RUNS))
def test_a_leak_warning_names_the_code_that_asked_for_the_run(name):
    # however many calls of cocycle, attractor and solver lie between
    wide, _, _, _, spec, cfg = leak_inputs()
    leaking, run = LEAK_RUNS[name]
    path = flat_path(-2.0, 2.0, 1e-3)
    assert len(leak_warnings(lambda: run(wide, path, spec, cfg))) == leaking


def test_integration_window_is_validated(desk_spec, desk_cfg):
    grid = Grid(1, 8.0, 129)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    short = sample_path(1, -0.5, 0.5, 1e-3)
    with pytest.raises(Exception):
        integrate(v0, 0.0, 1.0, short, 0.5, desk_spec, desk_cfg)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=0.0)
    # the time step is all a config holds; the stride is the stream's argument
    assert [f.name for f in fields(SolverConfig)] == ["dt"]

"""The stacked marching kernel: every column of a stack is the run it would
be alone, bit for bit.

The columns of each stack differ in noise intensity (zero included), noise
seed and initial data, so a kernel that let one column's z, reaction,
forcing or solve leak into another would fail here.  Staggered stacks add
columns that join at their own start step and keep their own clock, so a
kernel that stepped a late column on the stack's clock, or admitted it a
step early or late, would fail here too.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab.attractor import compute_equilibrium
from pullbacklab.cocycle import pullback_state, pullback_states
from pullbacklab.errors import ConfigurationError, DivergenceError
from pullbacklab.field import Grid, eigenmode, gaussian_bump, l2_norm, zero_field
from pullbacklab.model import ProblemSpec, canonical_cubic, canonical_forcing, zero_forcing
from pullbacklab.noise import flat_path, sample_path
from pullbacklab.solver import (
    SolverConfig,
    _check_finite,
    _march,
    _setup,
    _z_table,
    final_state,
    final_states,
    integrate,
    integrate_deterministic,
    iterate_states,
)

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


def spec_for(dimension: int, epsilon: float = 0.5) -> ProblemSpec:
    return ProblemSpec(
        lam=2.0,
        epsilon=epsilon,
        dimension=dimension,
        domain_radius=8.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )


def march_stack(v0s, t_start, t_end, paths, epsilons, spec, cfg):
    """Every stack the kernel yields, with the stacked initial data first."""
    n, ctx = _setup(v0s[0].grid, t_start, t_end, paths, spec, cfg)
    zs = _z_table(paths, epsilons, t_start, n, cfg.dt)
    stack = np.stack([v0.values for v0 in v0s])
    return [stack] + [v.copy() for v in _march(ctx, stack, t_start, zs)]


# (grid, dt, steps) per dimension; 2D stays small because CG runs per column
CASES = {1: (Grid(1, 8.0, 129), 1e-3, 40), 2: (Grid(2, 8.0, 17), 2e-3, 12)}


def columns(grid):
    """Initial data, path and intensity per column; intensities include 0."""
    dt = CASES[grid.dimension][1]
    paths = [sample_path(seed, -1.0, 1.0, dt) for seed in (4, 5, 4, 6)]
    epsilons = [0.5, 0.0, 0.25, 1.0]
    v0s = [
        gaussian_bump(grid, 1.0, 1.5),
        gaussian_bump(grid, 0.7, 2.0),
        eigenmode(grid, 2),
        zero_field(grid),
    ]
    return v0s, paths, epsilons


@pytest.mark.parametrize("dimension", [1, 2])
def test_stack_columns_equal_single_runs_bitwise(dimension):
    grid, dt, steps = CASES[dimension]
    spec = spec_for(dimension)
    v0s, paths, epsilons = columns(grid)
    t0, t1 = -0.25, -0.25 + steps * dt
    cfg = SolverConfig(dt=dt, store_stride=5)
    stacks = march_stack(v0s, t0, t1, paths, epsilons, spec, cfg)
    assert len(stacks) == steps + 1
    ends = final_states(v0s, [t0] * len(v0s), t1, paths, epsilons, spec, cfg)
    for i, (v0, path, eps) in enumerate(zip(v0s, paths, epsilons)):
        spec_i = replace(spec, epsilon=eps)
        alone = [s.values for _, s in iterate_states(v0, t0, t1, path, spec_i, cfg)]
        assert len(alone) == len(stacks)
        for got, want in zip(stacks, alone):
            assert np.array_equal(got[i], want)
        traj = integrate(v0, t0, t1, path, spec_i, cfg)
        stored = [0] + [j for j in range(1, steps + 1) if j % 5 == 0 or j == steps]
        assert len(traj.states) == len(stored)
        for j, state in zip(stored, traj.states):
            assert np.array_equal(stacks[j][i], state.values)
        end = final_state(v0, t0, t1, path, spec_i, cfg)
        assert np.array_equal(stacks[-1][i], end.values)
        assert np.array_equal(ends[i].values, end.values)


@pytest.mark.parametrize("dimension", [1, 2])
def test_zero_noise_column_matches_the_deterministic_oracle(dimension):
    grid, dt, steps = CASES[dimension]
    spec = spec_for(dimension)
    v0s, paths, epsilons = columns(grid)
    cfg = SolverConfig(dt=dt)
    stacks = march_stack(v0s, 0.0, steps * dt, paths, epsilons, spec, cfg)
    i = epsilons.index(0.0)
    oracle = integrate_deterministic(
        v0s[i], 0.0, steps * dt, replace(spec, epsilon=0.0), cfg
    )
    assert len(oracle.states) == len(stacks)
    for got, want in zip(stacks, oracle.states):
        assert np.array_equal(got[i], want.values)


def test_one_diverging_column_raises_at_its_own_time():
    # amplitude 3.5 at dt = 0.5 overflows the cubic; amplitude 0.5 does not
    spec = ProblemSpec(
        lam=2.0,
        epsilon=0.0,
        dimension=1,
        domain_radius=8.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    calm, wild = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 3.5, 1.5)
    path = flat_path(-1.0, 8.0, 0.5)
    cfg = SolverConfig(dt=0.5)
    final_state(calm, 0.0, 6.0, path, spec, cfg)
    with pytest.raises(DivergenceError) as alone:
        final_state(wild, 0.0, 6.0, path, spec, cfg)
    with pytest.raises(DivergenceError) as stacked:
        final_states([calm, wild, calm], [0.0] * 3, 6.0, [path] * 3, [0.0] * 3, spec, cfg)
    assert 0.0 < alone.value.t <= 6.0
    assert stacked.value.t == alone.value.t


def test_finiteness_check_looks_at_columns_one_by_one():
    big = np.full((2, 2), 8e153)  # each column's squared norm is near the top
    _check_finite(big, 1.0)  # only the sum over both columns overflows
    big[1, 0] = 1e155
    with pytest.raises(DivergenceError) as exc_info:
        _check_finite(big, 1.0)
    assert exc_info.value.t == 1.0
    nan = np.zeros((3, 5))
    nan[2, 3] = np.nan
    with pytest.raises(DivergenceError):
        _check_finite(nan, 2.0)


def test_pullback_states_equal_single_pullbacks_bitwise(desk_spec, desk_cfg):
    grid = Grid(1, 8.0, 65)
    paths = [sample_path(seed, -1.0, 0.5, 1e-3) for seed in (1, 2)]
    u0s = [gaussian_bump(grid, 1.0, 1.5), gaussian_bump(grid, 0.4, 3.0)]
    epsilons = [0.0, 0.75]
    got = pullback_states([0.5] * 2, 0.25, paths, epsilons, u0s, desk_spec, desk_cfg)
    for state, path, eps, u0 in zip(got, paths, epsilons, u0s):
        want = pullback_state(0.5, 0.25, path, eps, u0, desk_spec, desk_cfg)
        assert np.array_equal(state.values, want.values)
    # a zero horizon hands the data back untouched
    same = pullback_states([0.0] * 2, 0.25, paths, epsilons, u0s, desk_spec, desk_cfg)
    assert all(a is b for a, b in zip(same, u0s))
    with pytest.raises(ConfigurationError, match="one path"):
        pullback_states([0.5] * 2, 0.25, paths, epsilons[:1], u0s, desk_spec, desk_cfg)
    with pytest.raises(ConfigurationError, match="one path"):
        final_states(u0s, [0.0] * 2, 0.5, paths[:1], epsilons, desk_spec, desk_cfg)
    with pytest.raises(ConfigurationError, match="one start time"):
        final_states(u0s, [0.0], 0.5, paths, epsilons, desk_spec, desk_cfg)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
    draws=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
            st.integers(0, 2**16),
            st.floats(0.1, 2.0),
            st.floats(0.5, 4.0),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_stack_columns_equal_single_runs_property(m, draws):
    grid = Grid(1, 8.0, m)
    spec = spec_for(1)
    cfg = SolverConfig(dt=1e-3, store_stride=4)
    paths = [sample_path(seed, -0.5, 0.5, 1e-3) for _, seed, _, _ in draws]
    epsilons = [eps for eps, _, _, _ in draws]
    v0s = [gaussian_bump(grid, amp, width) for _, _, amp, width in draws]
    stacks = march_stack(v0s, -0.2, -0.185, paths, epsilons, spec, cfg)
    for i, (v0, path, eps) in enumerate(zip(v0s, paths, epsilons)):
        spec_i = replace(spec, epsilon=eps)
        alone = [s.values for _, s in iterate_states(v0, -0.2, -0.185, path, spec_i, cfg)]
        for got, want in zip(stacks, alone):
            assert np.array_equal(got[i], want)
        traj = integrate(v0, -0.2, -0.185, path, spec_i, cfg)
        for state, got in zip(traj.states, stacks[::4] + [stacks[-1]]):
            assert np.array_equal(got[i], state.values)


# -- staggered stacks: columns that join at their own start step -----------

TAU = 0.25

# steps per horizon, repeats and a zero included.  The third column starts
# from zero data, so the forcing's bits are what it holds after its first
# step, and it joins at a step that the stack's clock, (TAU - longest) +
# j*dt, names with other bits than the column's own clock: there the two
# clocks give different forcing bits
STAGGER = {1: (30, 8, 16, 30, 8, 0, 3), 2: (12, 3, 8, 12, 3, 0, 3)}


def staggered_columns(grid):
    """Horizons, paths, intensities and initial data, one per column."""
    dt = CASES[grid.dimension][1]
    horizons = [s * dt for s in STAGGER[grid.dimension]]
    paths = [sample_path(seed, -1.0, 0.5, dt) for seed in (4, 5, 4, 6, 5, 4, 7)]
    epsilons = [0.5, 0.0, 0.25, 1.0, 0.5, 0.5, 0.0]
    u0s = [
        gaussian_bump(grid, 1.0, 1.5),
        gaussian_bump(grid, 0.7, 2.0),
        zero_field(grid),
        gaussian_bump(grid, 1.0, 1.5),
        eigenmode(grid, 2),
        gaussian_bump(grid, 0.3, 1.0),
        gaussian_bump(grid, 0.5, 3.0),
    ]
    return horizons, paths, epsilons, u0s


@pytest.mark.parametrize("dimension", [1, 2])
def test_staggered_columns_equal_single_pullbacks_bitwise(dimension):
    grid, dt, _ = CASES[dimension]
    spec = spec_for(dimension)
    cfg = SolverConfig(dt=dt)
    horizons, paths, epsilons, u0s = staggered_columns(grid)
    got = pullback_states(horizons, TAU, paths, epsilons, u0s, spec, cfg)
    for state, t, path, eps, u0 in zip(got, horizons, paths, epsilons, u0s):
        want = pullback_state(t, TAU, path, eps, u0, spec, cfg)
        assert np.array_equal(state.values, want.values)
    assert got[horizons.index(0.0)] is u0s[horizons.index(0.0)]


@pytest.mark.parametrize("dimension", [1, 2])
def test_staggered_zero_noise_column_matches_the_deterministic_oracle(dimension):
    grid, dt, _ = CASES[dimension]
    spec = spec_for(dimension)
    cfg = SolverConfig(dt=dt)
    horizons, paths, epsilons, u0s = staggered_columns(grid)
    got = pullback_states(horizons, TAU, paths, epsilons, u0s, spec, cfg)
    zero_noise = [i for i, eps in enumerate(epsilons) if eps == 0.0]
    # the zero-noise columns join late, so they run on their own clock
    assert all(0.0 < horizons[i] < max(horizons) for i in zero_noise)
    for i in zero_noise:
        oracle = integrate_deterministic(
            u0s[i], TAU - horizons[i], TAU, replace(spec, epsilon=0.0), cfg
        )
        assert np.array_equal(got[i].values, oracle.states[-1].values)


def test_equilibrium_equals_a_hand_loop_of_single_pullbacks(desk_spec, desk_cfg):
    grid = Grid(1, 8.0, 65)
    path = sample_path(3, -0.6, 0.5, 1e-3)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    schedule = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    eq = compute_equilibrium(0.0, path, 0.5, desk_spec, desk_cfg, u0, schedule, tol=1.0)
    states = [pullback_state(t, 0.0, path, 0.5, u0, desk_spec, desk_cfg) for t in schedule]
    assert np.array_equal(eq.state.values, states[-1].values)
    history = [
        (t, l2_norm(cur.with_values(cur.values - prev.values)) / (1.0 + l2_norm(cur)))
        for t, prev, cur in zip(schedule[1:], states, states[1:])
    ]
    assert eq.history == tuple(history)


def test_late_column_diverges_at_its_own_time():
    # amplitude 8 at dt = 0.1 overflows the cubic within a few steps; the
    # calm column runs from 0.0, the wild one joins at 2.3 on its own clock
    spec = ProblemSpec(
        lam=2.0,
        epsilon=0.0,
        dimension=1,
        domain_radius=8.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    calm, wild = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 8.0, 1.5)
    path = flat_path(-1.0, 8.0, 0.1)
    cfg = SolverConfig(dt=0.1)
    with pytest.raises(DivergenceError) as alone:
        final_state(wild, 2.3, 6.0, path, spec, cfg)
    with pytest.raises(DivergenceError) as stacked:
        final_states([calm, wild], [0.0, 2.3], 6.0, [path] * 2, [0.0] * 2, spec, cfg)
    assert 2.3 < alone.value.t < 6.0
    assert stacked.value.t == alone.value.t
    # the stack's clock from 0.0 names that step with other bits
    step = round(alone.value.t / cfg.dt)
    assert 0.0 + step * cfg.dt != alone.value.t


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h + 1),
    draws=st.lists(
        st.tuples(
            st.integers(0, 25),
            st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
            st.integers(0, 2**16),
            st.just(0.0) | st.floats(0.1, 2.0),
            st.floats(0.5, 4.0),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_staggered_columns_equal_single_pullbacks_property(m, draws):
    grid = Grid(1, 8.0, m)
    spec = spec_for(1)
    cfg = SolverConfig(dt=1e-3)
    horizons = [steps * cfg.dt for steps, *_ in draws]
    epsilons = [eps for _, eps, _, _, _ in draws]
    paths = [sample_path(seed, -0.5, 0.5, cfg.dt) for _, _, seed, _, _ in draws]
    u0s = [gaussian_bump(grid, amp, width) for *_, amp, width in draws]
    got = pullback_states(horizons, TAU, paths, epsilons, u0s, spec, cfg)
    for state, t, path, eps, u0 in zip(got, horizons, paths, epsilons, u0s):
        want = pullback_state(t, TAU, path, eps, u0, spec, cfg)
        assert np.array_equal(state.values, want.values)

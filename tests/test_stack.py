"""The stacked marching kernel: every column of a stack is the run it would
be alone, bit for bit.

The columns of each stack differ in noise intensity (zero included), noise
seed and initial data, so a kernel that let one column's z, reaction,
forcing or solve leak into another would fail here.  Staggered stacks add
columns that join at their own start step and keep their own clock, so a
kernel that stepped a late column on the stack's clock, or admitted it a
step early or late, would fail here too.
"""

import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab import solver
from pullbacklab.attractor import compute_equilibrium
from pullbacklab.cocycle import pullback_state, pullback_states
from pullbacklab.errors import ConfigurationError, DivergenceError
from pullbacklab.field import (
    Grid,
    eigenmode,
    field_from_function,
    gaussian_bump,
    l2_norm,
    zero_field,
)
from pullbacklab.model import (
    _FORCING_BLOCK,
    CubicReaction,
    Forcing,
    ProblemSpec,
    TanhGaussian,
    canonical_cubic,
    canonical_forcing,
    zero_forcing,
)
from pullbacklab.noise import flat_path, sample_path, z_series
from pullbacklab.solver import (
    SolverConfig,
    _Context,
    _march,
    _nonfinite_column,
    difference_history,
    final_state,
    final_states,
    integrate,
    integrate_deterministic,
    stored_values,
)

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


SPEC = ProblemSpec(
    lam=2.0,
    nonlinearity=canonical_cubic(1.0),
    forcing=canonical_forcing(0.5, 0.5, 1.0),
)


def march_stack(v0s, t_start, t_end, paths, epsilons, spec, cfg):
    """Every stack the kernel yields, with the stacked initial data first."""
    stream = stored_values(v0s, t_start, t_end, paths, epsilons, spec, cfg, 1)
    return [v.copy() for _, v in stream]


def stream_alone(v0, t_start, t_end, path, epsilon, spec, cfg, stride):
    """(time, values) for every state one column's stream stores, copied."""
    stream = stored_values((v0,), t_start, t_end, (path,), (epsilon,), spec, cfg, stride)
    return [(t, v[0].copy()) for t, v in stream]


# (grid, dt, steps) per dimension; 2D stays small because every column is
# also marched alone and by the oracle
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
    spec = SPEC
    v0s, paths, epsilons = columns(grid)
    t0, t1 = -0.25, -0.25 + steps * dt
    cfg = SolverConfig(dt=dt)
    stacks = march_stack(v0s, t0, t1, paths, epsilons, spec, cfg)
    assert len(stacks) == steps + 1
    ends = final_states(v0s, [t0] * len(v0s), t1, paths, epsilons, spec, cfg)
    for i, (v0, path, eps) in enumerate(zip(v0s, paths, epsilons)):
        alone = [v for _, v in stream_alone(v0, t0, t1, path, eps, spec, cfg, 1)]
        assert len(alone) == len(stacks)
        for got, want in zip(stacks, alone):
            assert np.array_equal(got[i], want)
        traj = integrate(v0, t0, t1, path, eps, spec, cfg)
        assert len(traj.states) == len(stacks)
        for stack, state in zip(stacks, traj.states):
            assert np.array_equal(stack[i], state.values)
        end = final_state(v0, t0, t1, path, eps, spec, cfg)
        assert np.array_equal(stacks[-1][i], end.values)
        assert np.array_equal(ends[i].values, end.values)
    # a stream of three columns with distinct paths and intensities, at a
    # stride that divides neither step count, stores each column's states
    # with the bits of that column streamed alone
    three = slice(1, 4)
    stream = stored_values(v0s[three], t0, t1, paths[three], epsilons[three], spec, cfg, 7)
    stored = [(t, v.copy()) for t, v in stream]
    assert [t for t, _ in stored][-1] == t1 and len(stored) == steps // 7 + 2
    for i, (v0, path, eps) in enumerate(zip(v0s[three], paths[three], epsilons[three])):
        alone = stream_alone(v0, t0, t1, path, eps, spec, cfg, 7)
        assert [t for t, _ in stored] == [t for t, _ in alone]
        for (_, got), (_, want) in zip(stored, alone):
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("dimension", [1, 2])
def test_zero_noise_column_matches_the_deterministic_oracle(dimension):
    grid, dt, steps = CASES[dimension]
    spec = SPEC
    v0s, paths, epsilons = columns(grid)
    cfg = SolverConfig(dt=dt)
    stacks = march_stack(v0s, 0.0, steps * dt, paths, epsilons, spec, cfg)
    i = epsilons.index(0.0)
    oracle = integrate_deterministic(
        v0s[i], 0.0, steps * dt, spec, cfg
    )
    assert len(oracle.states) == len(stacks)
    for got, want in zip(stacks, oracle.states):
        assert np.array_equal(got[i], want.values)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_stack_solve_equals_each_column_solved_alone_bitwise(dimension, k):
    # a 1D solve is one product per group of _LANES rows, so the bound
    # stack is padded to whole groups; a column must get the bits it gets
    # alone beside a zero lane, whatever its lane and its neighbours.  At
    # m=35 one plain (k, m-2) product's bits hang on k with OpenBLAS's
    # SkylakeX kernels, so a solve that dropped the groups fails there.
    # m=17 and 35 take the dense product; from m=65 on the product is
    # block-banded (blocks 16, 32, 32, 40 and 64 wide at this dt), and its
    # windows read the neighbouring rows, times zero
    for m in (17, 35, 65, 129, 257) + ((321, 513) if dimension == 1 else ()):
        grid = Grid(dimension, 8.0, m)
        ctx = _Context(grid, SPEC, SolverConfig(dt=2e-3))
        if dimension == 1:
            assert (ctx._band is None) == (m < 65)
        rng = np.random.default_rng([k, m])
        # the strided interior views that _march binds, not contiguous copies
        inner = (slice(None),) + (slice(1, -1),) * dimension
        full = ctx.solve_source(k)
        out = np.zeros_like(full)
        assert len(full) == ctx.solve_rows(k)
        solve = ctx.stack_solver(full[inner], out[inner])
        # the second call reads fresh right-hand sides through the same
        # views, each column moved one row on, so into the other lane and
        # beside another neighbour; a solve that carried values over in its
        # scratch stacks, or whose bits hung on the lane, would fail it
        cols = rng.standard_normal((k,) + grid.shape)
        previous = None
        for _ in range(2):
            full[:k] = cols
            solve()
            for col, got in zip(full[:k][inner], out[:k][inner]):
                assert np.array_equal(got, ctx.solve_implicit(col))
                assert np.array_equal(got, ctx.solve_implicit(col.copy()))
            if previous is not None:
                assert np.array_equal(out[:k][inner], np.roll(previous, 1, axis=0))
            # the whole stack through solve_implicit gives every column's bits
            assert np.array_equal(ctx.solve_implicit(full[:k][inner]), out[:k][inner])
            rim = out.copy()
            rim[:k][inner] = 0.0
            assert not rim.any()  # pad rows and boundaries stay exactly zero
            previous = out[:k][inner].copy()
            cols = np.roll(cols, 1, axis=0)


def test_grouped_solve_rejects_a_stack_of_partial_groups():
    # an unpadded stack cannot be viewed as whole groups: the bind raises
    # rather than reshape into a copy that the product's out= would fill
    grid = Grid(1, 8.0, 65)
    ctx = _Context(grid, SPEC, SolverConfig(dt=2e-3))
    src = np.zeros((3,) + grid.shape)
    with pytest.raises(ValueError):
        ctx.stack_solver(src[:, 1:-1], src.copy()[:, 1:-1])


@pytest.mark.parametrize("m", [129, 257, 321, 513])
def test_banded_solve_stays_within_the_dropped_mass_of_the_dense_product(m):
    # every entry the band drops is below eps*max/(m-2), so a row of the
    # banded solve is within eps*max|A^-1|*|x|_inf of the dense inverse
    # product, formed here in long double, plus the banded product's own
    # rounding: a sum of 3b = 48 terms is off by at most gamma_48*sum|a*x|.
    # Against a double dense product, whose own rounding differs with the
    # kernel set, the gap reads up to about three times the dropped mass.
    # The spacing is the shipped configs' 0.125, so the blocks are 16 wide.
    # Rows whose scales span 30 orders of magnitude sit side by side in the
    # lanes, and each is held to its own bound
    radius = 8.0 * (m - 1) / 128
    grid = Grid(1, radius, m)
    ctx = _Context(grid, SPEC, SolverConfig(dt=1e-3))
    assert ctx._band.shape == ((m - 1) // 16, 1, 48, 16)
    inverse = ctx._ainv_t
    rng = np.random.default_rng(m)
    x = rng.standard_normal((7, m - 2)) * np.logspace(-15.0, 15.0, 7)[:, None]
    dense = x.astype(np.longdouble) @ inverse.astype(np.longdouble)
    eps = np.finfo(float).eps
    dropped = eps * inverse.max() * np.abs(x).max(axis=1, keepdims=True)
    gamma = 48 * (eps / 2) / (1 - 48 * (eps / 2))
    rounding = gamma * (np.abs(x) @ inverse)
    assert np.all(np.abs(ctx.solve_implicit(x) - dense) <= dropped + rounding)


def test_banded_solve_refuses_stacks_without_room_for_its_windows():
    # the windows read a block before the first interior, which a stack
    # that does not come from solve_source lacks; and the blocks write one
    # cell past each interior, which a stack of bare interiors lacks
    grid = Grid(1, 8.0, 129)
    ctx = _Context(grid, SPEC, SolverConfig(dt=1e-3))
    assert ctx._band is not None
    states = np.zeros((2,) + grid.shape)[:, 1:-1]
    with pytest.raises(ValueError):
        ctx.stack_solver(np.zeros((2,) + grid.shape)[:, 1:-1], states)
    with pytest.raises(ValueError):
        ctx.stack_solver(ctx.solve_source(2)[:, 1:-1], np.zeros((2, 127)))
    ctx.stack_solver(ctx.solve_source(2)[:, 1:-1], states)


def test_odd_staggered_stack_equals_each_column_alone_bitwise():
    # five columns that join at steps 0, 0, 4, 9 and 9: the admitted prefix
    # is 2, 3 and then 5 columns, so a column sits beside a zero pad lane,
    # beside a row that is not yet admitted, and in either lane.  The pad
    # and not-yet-admitted rows of the state buffers must stay exactly zero
    grid, dt, _ = CASES[1]
    spec = SPEC
    cfg = SolverConfig(dt=dt)
    ctx = _Context(grid, spec, cfg)
    admit = np.array([0, 0, 4, 9, 9])
    n = 20
    starts = [-0.02 + a * dt for a in admit]
    paths = [sample_path(seed, -1.0, 0.5, dt) for seed in (4, 5, 6, 4, 7)]
    epsilons = [0.5, 0.0, 1.0, 0.25, 0.5]
    v0 = np.stack(
        [
            gaussian_bump(grid, 1.0, 1.5).values,
            gaussian_bump(grid, 0.7, 2.0).values,
            eigenmode(grid, 2).values,
            zero_field(grid).values,
            gaussian_bump(grid, 0.5, 3.0).values,
        ]
    )
    with np.errstate(invalid="raise"):
        stacks = []
        for v in _march(ctx, v0, starts, paths, epsilons, n, admit):
            assert not v.base[len(v) :].any()
            stacks.append(v.copy())
        for i in range(len(v0)):
            one = slice(i, i + 1)
            alone = _march(ctx, v0[one], starts[i], paths[one], epsilons[one], n - admit[i])
            for got, want in zip(stacks[admit[i] :], alone, strict=True):
                assert np.array_equal(got[i], want[0])


def plain(spec):
    """``spec`` with f and g behind plain wrappers: the general forms, with g
    called once per block."""
    f, g = spec.nonlinearity.f, spec.forcing.g
    return with_callables(spec, lambda pts, s: f(pts, s), lambda t, pts: g(t, pts))


@pytest.mark.parametrize("general", [False, True], ids=["structured", "general"])
def test_blocks_change_no_bit_of_a_staggered_stack(monkeypatch, general):
    # windows of 1, 2, 3, 37 and 100 rows for a lone column across five
    # columns that join at steps 0, 100, 260, 260 and 299, and across ten
    # columns that all start at step 0 (the sweep's shape), against the
    # default windows of 254 rows: each window forms its own clocks and z
    # and ends at an admission, and its blocks (a tenth of the rows for ten
    # columns, so 3 and 10 rows, and 25 by default) fill their tables from
    # the window's rows
    grid, dt, _ = CASES[1]
    spec = plain(SPEC) if general else SPEC
    cfg = SolverConfig(dt=dt)
    ctx = _Context(grid, spec, cfg)
    admit = np.array([0, 100, 260, 260, 299])
    n = 600
    starts = [-0.3 + a * dt for a in admit]
    paths = [sample_path(seed, -1.0, 0.5, dt) for seed in (4, 5, 6, 4, 7)]
    epsilons = [0.5, 0.0, 1.0, 0.25, 0.5]
    v0s = [
        gaussian_bump(grid, 1.0, 1.5),
        gaussian_bump(grid, 0.7, 2.0),
        eigenmode(grid, 2),
        zero_field(grid),
        gaussian_bump(grid, 0.5, 3.0),
    ]
    v0 = np.stack([u.values for u in v0s])
    even = [(paths[i], eps) for i in range(3) for eps in (0.5, 0.25, 0.1)] + [(paths[0], 0.0)]
    even_v0s = [gaussian_bump(grid, 1.0 - 0.05 * i, 1.5) for i in range(10)]
    even_v0 = np.stack([u.values for u in even_v0s])
    even_paths, even_epsilons = zip(*even)

    def run():
        stacks = [v.copy() for v in _march(ctx, v0, starts, paths, epsilons, n, admit)]
        ends = final_states(v0s, starts, 0.3, paths, epsilons, spec, cfg)
        stacks += [v.copy() for v in _march(ctx, even_v0, -0.3, even_paths, even_epsilons, n)]
        ends += final_states(even_v0s, [-0.3] * 10, 0.3, even_paths, even_epsilons, spec, cfg)
        return stacks, [e.values for e in ends]

    npts = len(grid.points)
    assert _FORCING_BLOCK // npts == 254
    want_stacks, want_ends = run()
    for rows in (1, 2, 3, 37, 100):
        monkeypatch.setattr(solver, "_FORCING_BLOCK", rows * npts)
        stacks, ends = run()
        for got, want in zip(stacks, want_stacks, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(ends, want_ends, strict=True):
            assert np.array_equal(got, want)
        for got, stack_end in zip(ends, [*stacks[n - 1], *stacks[-1]], strict=True):
            assert np.array_equal(got, stack_end)


def traced_peak_mb(call) -> float:
    """The tracemalloc peak, in MB, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reduction", ["final_states", "stored_values", "difference_history"])
def test_march_memory_does_not_grow_with_the_horizon(monkeypatch, reduction):
    # z and the clocks are formed a block at a time.  A table of each for
    # the whole march, 16,000 steps x 6 columns x 8 bytes, grew the
    # final_states peak from 1.17 MB at horizon 4 to 2.26 MB at horizon 16;
    # the peaks of the other two grew by 0.18 and 0.46 MB.  The reductions
    # keep one state or sample per 1000 steps, so their own results stay
    # small
    monkeypatch.setattr(solver, "_SPLIT_FLOOR", float("inf"))
    grid = Grid(1, 8.0, 129)
    spec = SPEC
    cfg = SolverConfig(dt=1e-3)
    path = sample_path(3, -16.0, 0.0, cfg.dt)
    v0s = [gaussian_bump(grid, a, 1.5) for a in (1.0, 0.8, 0.6, 0.4, 0.2, 0.1)]
    epsilons = [0.5, 0.25, 0.5, 0.0, 0.5, 0.25]
    fractions = (1.0, 0.75, 0.5, 0.25, 0.25, 0.125)

    def march(horizon):
        if reduction == "final_states":
            starts = [-horizon * c for c in fractions]
            final_states(v0s, starts, 0.0, [path] * 6, epsilons, spec, cfg)
        elif reduction == "stored_values":
            for _ in stored_values(v0s[:1], -horizon, 0.0, [path], epsilons[:1], spec, cfg, 1000):
                pass
        else:
            difference_history(v0s[0], v0s[1], -horizon, 0.0, path, 0.5, spec, cfg, 1000)

    peaks = [traced_peak_mb(lambda: march(horizon)) for horizon in (4.0, 16.0)]
    assert abs(peaks[1] - peaks[0]) < 0.1


@pytest.mark.parametrize(
    "bad_f",
    [lambda pts, s: 0.5, lambda pts, s: s[:1], lambda pts, s: s[:-1]],
    ids=["scalar", "one-value", "short"],
)
def test_reaction_of_the_wrong_size_raises(bad_f):
    # one reaction value per grid point of the stack, or a ValueError: a
    # result that broadcasts would silently march a different equation
    spec = SPEC
    spec = replace(spec, nonlinearity=replace(spec.nonlinearity, f=bad_f))
    v0 = gaussian_bump(Grid(1, 8.0, 65), 0.5, 1.5)
    path = flat_path(-1.0, 1.0, 0.01)
    cfg = SolverConfig(dt=0.01)
    with pytest.raises(ValueError) as alone:
        final_state(v0, 0.0, 0.1, path, 0.5, spec, cfg)
    with pytest.raises(ValueError) as stacked:
        final_states([v0, v0], [0.0, 0.05], 0.1, [path] * 2, [0.5, 0.0], spec, cfg)
    assert alone.type is stacked.type is ValueError  # not a ConfigurationError


def test_one_diverging_column_raises_at_its_own_time():
    # amplitude 3.5 at dt = 0.5 overflows the cubic; amplitude 0.5 does not
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    calm, wild = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 3.5, 1.5)
    path = flat_path(-1.0, 8.0, 0.5)
    cfg = SolverConfig(dt=0.5)
    final_state(calm, 0.0, 6.0, path, 0.0, spec, cfg)
    with pytest.raises(DivergenceError) as alone:
        final_state(wild, 0.0, 6.0, path, 0.0, spec, cfg)
    with pytest.raises(DivergenceError) as stacked:
        final_states([calm, wild, calm], [0.0] * 3, 6.0, [path] * 3, [0.0] * 3, spec, cfg)
    assert 0.0 < alone.value.t <= 6.0
    assert stacked.value.t == alone.value.t


def test_finiteness_check_looks_at_columns_one_by_one():
    big = np.full((2, 2), 8e153)  # each column's squared norm is near the top
    assert _nonfinite_column(big) is None  # only the sum over both columns overflows
    big[1, 0] = 1e155
    assert _nonfinite_column(big) == 1
    nan = np.zeros((3, 5))
    nan[2, 3] = np.nan
    assert _nonfinite_column(nan) == 2


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
    spec = SPEC
    cfg = SolverConfig(dt=1e-3)
    paths = [sample_path(seed, -0.5, 0.5, 1e-3) for _, seed, _, _ in draws]
    epsilons = [eps for eps, _, _, _ in draws]
    v0s = [gaussian_bump(grid, amp, width) for _, _, amp, width in draws]
    stacks = march_stack(v0s, -0.2, -0.185, paths, epsilons, spec, cfg)
    for i, (v0, path, eps) in enumerate(zip(v0s, paths, epsilons)):
        alone = [v for _, v in stream_alone(v0, -0.2, -0.185, path, eps, spec, cfg, 1)]
        for got, want in zip(stacks, alone):
            assert np.array_equal(got[i], want)
        traj = integrate(v0, -0.2, -0.185, path, eps, spec, cfg)
        assert len(traj.states) == len(stacks)
        for state, got in zip(traj.states, stacks):
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
    spec = SPEC
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
    spec = SPEC
    cfg = SolverConfig(dt=dt)
    horizons, paths, epsilons, u0s = staggered_columns(grid)
    got = pullback_states(horizons, TAU, paths, epsilons, u0s, spec, cfg)
    zero_noise = [i for i, eps in enumerate(epsilons) if eps == 0.0]
    # the zero-noise columns join late, so they run on their own clock
    assert all(0.0 < horizons[i] < max(horizons) for i in zero_noise)
    for i in zero_noise:
        oracle = integrate_deterministic(
            u0s[i], TAU - horizons[i], TAU, spec, cfg
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
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    calm, wild = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 8.0, 1.5)
    path = flat_path(-1.0, 8.0, 0.1)
    cfg = SolverConfig(dt=0.1)
    with pytest.raises(DivergenceError) as alone:
        final_state(wild, 2.3, 6.0, path, 0.0, spec, cfg)
    with pytest.raises(DivergenceError) as stacked:
        final_states([calm, wild], [0.0, 2.3], 6.0, [path] * 2, [0.0] * 2, spec, cfg)
    assert 2.3 < alone.value.t < 6.0
    assert stacked.value.t == alone.value.t
    # the stack's clock from 0.0 names that step with other bits
    step = round(alone.value.t / cfg.dt)
    assert 0.0 + step * cfg.dt != alone.value.t


def forcing_from(t_on, value):
    """A general forcing: 0 before ``t_on``, ``value`` everywhere from it."""
    return Forcing(
        g=lambda t, pts: np.where(np.asarray(t) >= t_on, value, 0.0) * np.ones(len(pts)),
        delta=0.0,
    )


def test_late_column_diverges_mid_block_in_a_later_window():
    # at m=129 the calm column runs alone for 300 steps; the late one joins
    # at 3.0, and from then on the pair takes 254-step windows of 127-step
    # blocks.  The forcing turns infinite at the late column's clock of its
    # step 397, step 697 of the stack: row 143 of the window from step 554,
    # row 16 of its second block.  The calm column's clock there is one ulp
    # lower, so only the late column's right-hand side is infinite
    grid, cfg = Grid(1, 8.0, 129), SolverConfig(dt=0.01)
    t_on = 3.0 + 397 * cfg.dt
    assert 0.0 + 697 * cfg.dt < t_on
    spec = replace(SPEC, forcing=forcing_from(t_on, np.inf))
    calm, late = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 0.3, 1.5)
    path = flat_path(-1.0, 11.0, cfg.dt)
    with pytest.raises(DivergenceError) as alone:
        final_state(late, 3.0, 10.0, path, 0.0, spec, cfg)
    with pytest.raises(DivergenceError) as stacked:
        final_states([calm, late], [0.0, 3.0], 10.0, [path] * 2, [0.0] * 2, spec, cfg)
    assert alone.value.t == t_on + cfg.dt
    assert stacked.value.t == alone.value.t


def test_a_finite_state_whose_squared_norm_overflows_diverges_without_warning():
    # from 0.5 the forcing lifts every value of the right-hand side to about
    # 1e160, finite, while its square alone is past the largest float
    spec = replace(SPEC, forcing=forcing_from(0.5, 1e162))
    grid, cfg = Grid(1, 8.0, 129), SolverConfig(dt=0.01)
    v0 = gaussian_bump(grid, 0.5, 1.5)
    path = flat_path(-1.0, 2.0, cfg.dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as exc_info:
            final_state(v0, 0.0, 1.0, path, 0.0, spec, cfg)
    assert exc_info.value.t == 50 * cfg.dt + cfg.dt


def test_a_late_column_on_a_coarse_path_is_refused_before_the_first_step(monkeypatch):
    # the wild column overflows within a few steps; the late one joins at
    # 2.4 on a path of step 0.2, a lattice both its ends sit on but not the
    # march's step of 0.1.  Its path is refused before any step, so the
    # divergence is never reached
    monkeypatch.setattr(solver, "_SPLIT_FLOOR", float("inf"))
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, 129)
    calm, wild = gaussian_bump(grid, 0.5, 1.5), gaussian_bump(grid, 8.0, 1.5)
    fine, coarse = flat_path(-1.0, 8.0, 0.1), flat_path(-1.0, 8.0, 0.2)
    cfg = SolverConfig(dt=0.1)
    with pytest.raises(DivergenceError):
        final_states([wild, calm], [0.0, 2.4], 6.0, [fine, fine], [0.0] * 2, spec, cfg)
    with pytest.raises(ConfigurationError, match="series step"):
        final_states([wild, calm], [0.0, 2.4], 6.0, [fine, coarse], [0.0] * 2, spec, cfg)


@pytest.mark.parametrize("starts", [[6.0], [0.0, 6.0]], ids=["alone", "beside"])
def test_a_column_with_nothing_to_march_is_checked_too(monkeypatch, starts):
    # the last column starts at the end time, so it comes back as given;
    # its intensity is still refused, alone and beside a marched column
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected column must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    grid = Grid(1, 8.0, 33)
    k = len(starts)
    v0s, paths = [gaussian_bump(grid, 0.5, 1.5)] * k, [flat_path(-1.0, 8.0, 0.1)] * k
    epsilons = [0.5] * (k - 1) + [5.0]
    with pytest.raises(ConfigurationError, match="intensity must lie in"):
        final_states(v0s, starts, 6.0, paths, epsilons, SPEC, SolverConfig(dt=0.1))


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
    spec = SPEC
    cfg = SolverConfig(dt=1e-3)
    horizons = [steps * cfg.dt for steps, *_ in draws]
    epsilons = [eps for _, eps, _, _, _ in draws]
    paths = [sample_path(seed, -0.5, 0.5, cfg.dt) for _, _, seed, _, _ in draws]
    u0s = [gaussian_bump(grid, amp, width) for *_, amp, width in draws]
    got = pullback_states(horizons, TAU, paths, epsilons, u0s, spec, cfg)
    for state, t, path, eps, u0 in zip(got, horizons, paths, epsilons, u0s):
        want = pullback_state(t, TAU, path, eps, u0, spec, cfg)
        assert np.array_equal(state.values, want.values)


# -- the lean step: reused buffers and forcing blocks -------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_reused_buffers_never_leak_into_results(dimension):
    grid, dt, steps = CASES[dimension]
    spec = SPEC
    path = sample_path(4, -1.0, 1.0, dt)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    cfg = SolverConfig(dt=dt)
    t0, t1 = -0.25, -0.25 + steps * dt
    traj = integrate(v0, t0, t1, path, 0.5, spec, cfg)
    # a copy of every yielded state is kept until the march is over
    yielded = stream_alone(v0, t0, t1, path, 0.5, spec, cfg, 1)
    assert len(traj.states) == len(yielded) == steps + 1
    for j, (stored, (t, values)) in enumerate(zip(traj.states, yielded)):
        assert t == traj.times[j]
        fresh = final_state(v0, t0, t, path, 0.5, spec, cfg)
        assert np.array_equal(stored.values, fresh.values)
        assert np.array_equal(values, fresh.values)


def counted(forcing):
    """The forcing with g wrapped to record the shape of every t it gets."""
    shapes = []

    def g(t, pts):
        shapes.append(np.shape(t))
        return forcing.g(t, pts)

    return replace(forcing, g=g), shapes


def reaction_term(f, pts, v, z):
    """z*f(v/z) as the kernel forms it: the conjugated form of a bare
    CubicReaction, else the general form."""
    if isinstance(f, CubicReaction):
        return f.a3 * v - (f.sc / (z * z)) * (v * v * v)
    return z * f(pts, v / z)


def forcing_term(g, t, pts, z):
    """z*g(t) as the kernel forms it: (z*amplitude)*profile for a bare
    TanhGaussian, else the general form."""
    if isinstance(g, TanhGaussian):
        return (z * g.amplitude(t)) * g.profile(pts)
    return z * g(t, pts)


def hand_march(v0, t_start, n, path, eps, spec, cfg):
    """The conjugated step written out for one column, g called per step
    unless it is a bare TanhGaussian."""
    ctx = _Context(v0.grid, spec, cfg)
    pts = v0.grid.points
    inner = (slice(1, -1),) * v0.grid.dimension
    f, g = spec.nonlinearity.f, spec.forcing.g
    zs = z_series(path, eps, t_start, n, cfg.dt)
    v = v0.values.ravel()
    for j, z in enumerate(zs):
        zg = forcing_term(g, t_start + j * cfg.dt, pts, z)
        rhs = (v + cfg.dt * (reaction_term(f, pts, v, z) + zg)).reshape(v0.grid.shape)
        nxt = np.zeros(v0.grid.shape)
        nxt[inner] = ctx.solve_implicit(rhs[inner])
        v = nxt.ravel()
    return v.reshape(v0.grid.shape)


def test_forcing_is_called_per_block_not_per_step():
    grid = Grid(1, 8.0, 129)
    cfg = SolverConfig(dt=1e-3)
    forcing, shapes = counted(canonical_forcing(0.5, 0.5, 1.0))
    spec = replace(SPEC, forcing=forcing)
    path = sample_path(4, -1.5, 0.5, cfg.dt)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    n = 1000
    end = final_state(v0, -1.0, 0.0, path, 0.5, spec, cfg)
    block = _FORCING_BLOCK // len(grid.points)
    assert len(shapes) <= math.ceil(n / block) + 1
    # one row per step, none twice, every call on a (steps, 1) clock array
    assert sum(s[0] for s in shapes) == n and all(s[1:] == (1,) for s in shapes)
    shapes.clear()
    want = hand_march(v0, -1.0, n, path, 0.5, spec, cfg)
    assert len(shapes) == n
    assert np.array_equal(end.values, want)

    # a staggered stack: each admission starts a block of its own
    shapes.clear()
    counts, epsilons = [1000, 600, 300], [0.5, 0.25, 1.0]
    starts = [-c * cfg.dt for c in counts]
    v0s = [gaussian_bump(grid, a, 1.5) for a in (1.0, 0.6, 0.3)]
    ends = final_states(v0s, starts, 0.0, [path] * 3, epsilons, spec, cfg)
    widest = _FORCING_BLOCK // (len(counts) * len(grid.points))
    assert len(shapes) <= math.ceil(n / widest) + len(counts)
    assert sum(s[0] for s in shapes) == sum(counts)
    for end, u0, t0, c, eps in zip(ends, v0s, starts, counts, epsilons):
        assert np.array_equal(end.values, hand_march(u0, t0, c, path, eps, spec, cfg))


def test_z_is_formed_once_per_column_per_window(monkeypatch):
    # the sweep's chunk: ten columns of 2,000 steps at m=129 take blocks of
    # 25 steps but windows of 250 (whole blocks within the 254 rows of z's
    # table), so z_series is called once per column for each of the 8
    # windows and once more by the check before the first step, not once
    # per 25-step block
    calls = []

    def counted(*args):
        calls.append(args)
        return z_series(*args)

    monkeypatch.setattr(solver, "z_series", counted)
    grid = Grid(1, 8.0, 129)
    ctx = _Context(grid, SPEC, SolverConfig(dt=1e-3))
    paths = [sample_path(seed, -2.0, 0.0, 1e-3) for seed in (1, 2, 3)]
    runs = [(p, eps) for p in paths for eps in (0.5, 0.25, 0.1)] + [(paths[0], 0.0)]
    v0 = np.stack([gaussian_bump(grid, 1.0, 1.5).values] * len(runs))
    n = 2000
    for _ in _march(ctx, v0, -2.0, *zip(*runs), n):
        pass
    windows = math.ceil(n / (_FORCING_BLOCK // len(grid.points)))
    assert len(calls) <= len(runs) * (windows + 1) == 90


def test_a_lone_2d_column_takes_windows_of_many_blocks(monkeypatch):
    # trajectory-2d's march: one column of 4,000 steps at 65x65 takes blocks
    # of 7 steps (_FORCING_BLOCK // 4225) but windows of 252 (whole blocks
    # within the 256 rows of z's table), so z_series is called once for
    # each of the 16 windows and once more by the check before the first
    # step, not once per block (573 calls)
    calls = []

    def counted(*args):
        calls.append(args)
        return z_series(*args)

    monkeypatch.setattr(solver, "z_series", counted)
    grid = Grid(2, 6.0, 65)
    cfg = SolverConfig(dt=2e-3)
    spec = SPEC
    path = sample_path(1, -1.0, 9.0, cfg.dt)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    stored = stream_alone(v0, 0.0, 8.0, path, 0.5, spec, cfg, 1000)
    assert len(calls) <= 17
    assert [t for t, _ in stored] == [j * cfg.dt for j in range(0, 4001, 1000)]
    for j in (1000, 4000):
        want = hand_march(v0, 0.0, j, path, 0.5, spec, cfg)
        assert np.array_equal(stored[j // 1000][1], want)


def test_forcing_that_ignores_the_shape_of_t_marches_like_the_hand_loop():
    grid = Grid(1, 8.0, 129)
    cfg = SolverConfig(dt=1e-3)
    constant = Forcing(g=lambda t, pts: np.full(len(pts), 0.3), delta=0.0)
    spec = replace(SPEC, forcing=constant)
    path = sample_path(5, -1.5, 0.5, cfg.dt)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    end = final_state(v0, -1.0, 0.0, path, 0.5, spec, cfg)
    assert np.array_equal(end.values, hand_march(v0, -1.0, 1000, path, 0.5, spec, cfg))
    ends = final_states([v0, v0], [-1.0, -0.4], 0.0, [path] * 2, [0.5, 0.0], spec, cfg)
    assert np.array_equal(ends[0].values, end.values)
    assert np.array_equal(ends[1].values, hand_march(v0, -0.4, 400, path, 0.0, spec, cfg))


# -- the structured model: conjugated forms and the lookup rule ----------------

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal
# signed zeros, subnormals and the largest values whose cubes, over z and
# times sc, stay finite; closer to overflow the two forms can disagree on
# whether the cube overflows, and the step's finiteness check catches either
_VALUES = st.floats(-1e100, 1e100) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2e-308, -1e-103, 1e100, -1e100]
)


@settings(max_examples=300, deadline=None)
@given(
    a3=st.floats(0.1, 10.0),
    sc=st.floats(0.05, 10.0),
    z=st.just(1.0) | st.floats(0.05, 20.0),
    v=st.lists(_VALUES, min_size=1, max_size=30),
)
def test_conjugated_cubic_agrees_with_the_general_form(a3, sc, z, v):
    f = canonical_cubic(a3, sc).f
    assert isinstance(f, CubicReaction)
    v = np.array(v)
    pts = np.zeros((len(v), 1))
    got = reaction_term(f, pts, v, z)
    want = z * f(pts, v / z)
    # each form rounds at most 8 times, so they part by under 7 ulps of the
    # two terms' magnitudes; underflow adds a few subnormals, scaled by z
    scale = np.abs(a3 * v) + np.abs(sc * (v * v * v) / (z * z))
    floor = 4 * _TINY * (1.0 + a3 + sc) * (1.0 + z + 1.0 / (z * z))
    assert np.all(np.abs(got - want) <= 8 * _EPS * scale + floor)
    if z == 1.0:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(
    amplitude=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 10.0),
    t=st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0]),
    z=st.just(1.0) | st.floats(0.05, 20.0),
    x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30),
)
def test_separable_forcing_agrees_with_the_general_form(amplitude, width, t, z, x):
    g = canonical_forcing(amplitude, 0.5, width).g
    assert isinstance(g, TanhGaussian)
    pts = np.array(x)[:, None]
    got = forcing_term(g, t, pts, z)
    want = z * g(t, pts)
    # two roundings each: under 2 ulps of |z*a*p|, plus subnormal rounding
    assert np.all(np.abs(got - want) <= 4 * _EPS * np.abs(want) + 4 * _TINY * (1.0 + z))
    if z == 1.0:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 65)])
def test_the_gaussians_and_the_radial_table_keep_their_written_out_bits(dimension, m):
    # field.radius_sq sums |x|^2 row by row over the coordinates; the bump,
    # the forcing profile the kernel reads and the radial table keep the bits
    # of the expressions each wrote out before
    grid = Grid(dimension, 8.0, m)
    pts = grid.points
    radial = np.sqrt((pts**2).sum(axis=1)).reshape(grid.shape)
    assert np.array_equal(grid.radial.view(np.uint64), radial.view(np.uint64))
    for width in (0.7, 1, 1.5, 3.0):
        w2 = width**2
        bump = gaussian_bump(grid, 2.5, width).values
        want = field_from_function(grid, lambda p: 2.5 * np.exp(-(p**2).sum(axis=1) / w2))
        assert np.array_equal(bump.view(np.uint64), want.values.view(np.uint64))
        profile = canonical_forcing(0.5, 0.5, width).g.profile(pts)
        want = np.exp(-sum(pts.T**2) / w2)
        assert np.array_equal(profile.view(np.uint64), want.view(np.uint64))


class UncalledCubic(CubicReaction):
    def __call__(self, pts, s):
        raise AssertionError("the kernel called a structured f")


class UncalledForcing(TanhGaussian):
    def __call__(self, t, pts):
        raise AssertionError("the kernel called a structured g")


def with_callables(spec, f=None, g=None):
    """``spec`` with f and g replaced where given."""
    nl = spec.nonlinearity if f is None else replace(spec.nonlinearity, f=f)
    forcing = spec.forcing if g is None else replace(spec.forcing, g=g)
    return replace(spec, nonlinearity=nl, forcing=forcing)


@pytest.mark.parametrize("dimension", [1, 2])
def test_structured_march_is_the_written_out_algebra_without_calls(dimension):
    grid, dt, steps = CASES[dimension]
    spec = SPEC
    f, g = spec.nonlinearity.f, spec.forcing.g
    uncalled = with_callables(
        spec, UncalledCubic(f.a3, f.sc), UncalledForcing(g.amp, g.w2)
    )
    v0s, paths, epsilons = columns(grid)
    cfg = SolverConfig(dt=dt)
    t0, t1 = -0.25, -0.25 + steps * dt
    want = march_stack(v0s, t0, t1, paths, epsilons, spec, cfg)
    got = march_stack(v0s, t0, t1, paths, epsilons, uncalled, cfg)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # every column has the bits of the written-out algebra; the one from zero
    # data holds dt*z*g alone after its first step, so the forcing's order
    # of products shows in its bits
    for i, (v0, path, eps) in enumerate(zip(v0s, paths, epsilons)):
        assert np.array_equal(got[-1][i], hand_march(v0, t0, steps, path, eps, spec, cfg))
    # a large state on a coarse step, where the cubic term dominates the
    # step, so the order of the cubic's products shows in the bits
    big, coarse = gaussian_bump(grid, 3.0, 1.5), SolverConfig(dt=0.01)
    end = final_state(big, -0.1, 0.0, paths[0], 0.5, uncalled, coarse)
    assert np.array_equal(end.values, hand_march(big, -0.1, 10, paths[0], 0.5, spec, coarse))


def test_the_kernel_looks_through_functools_wraps_only():
    grid = Grid(1, 8.0, 65)
    cfg = SolverConfig(dt=1e-3)
    path = sample_path(4, -1.5, 0.5, cfg.dt)
    v0 = gaussian_bump(grid, 1.0, 1.5)
    bare = SPEC
    f, g = bare.nonlinearity.f, bare.forcing.g
    calls = []

    def plain_f(pts, s):
        calls.append("f")
        return f(pts, s)

    def plain_g(t, pts):
        calls.append("g")
        return g(t, pts)

    structured = final_state(v0, -0.3, 0.0, path, 0.5, bare, cfg).values
    assert np.array_equal(structured, hand_march(v0, -0.3, 300, path, 0.5, bare, cfg))
    # the large bump of the test above on a coarser step, where the cubic
    # term dominates each step: z != 1 moves the general form's bits at 36
    # to 63 of the 63 interior points after 4 steps under OpenBLAS's
    # SkylakeX, Haswell, Sandybridge and Nehalem kernels.  On the run above
    # and at dt = 0.01, the contraction rounds the few moved bits away under
    # some of those kernel sets
    big, coarse = gaussian_bump(grid, 3.0, 1.5), SolverConfig(dt=0.25)
    big_structured = final_state(big, -1.0, 0.0, path, 0.5, bare, coarse).values
    # a plain wrapper is called, and the march takes the general form
    for spec, called in (
        (with_callables(bare, f=plain_f), {"f"}),
        (with_callables(bare, g=plain_g), {"g"}),
        (with_callables(bare, plain_f, plain_g), {"f", "g"}),
    ):
        calls.clear()
        got = final_state(v0, -0.3, 0.0, path, 0.5, spec, cfg).values
        assert set(calls) == called
        assert np.array_equal(got, hand_march(v0, -0.3, 300, path, 0.5, spec, cfg))
        if "f" in called:
            got = final_state(big, -1.0, 0.0, path, 0.5, spec, coarse).values
            assert np.array_equal(got, hand_march(big, -1.0, 4, path, 0.5, spec, coarse))
            assert not np.array_equal(got, big_structured)
    # a functools.wraps wrapper, even two deep, keeps the structured path

    @functools.wraps(f)
    def wrapped_f(pts, s):
        calls.append("f")
        return f(pts, s)

    @functools.wraps(g)
    def inner_g(t, pts):
        calls.append("g")
        return g(t, pts)

    @functools.wraps(inner_g)
    def wrapped_g(t, pts):
        calls.append("g")
        return inner_g(t, pts)

    calls.clear()
    got = final_state(v0, -0.3, 0.0, path, 0.5, with_callables(bare, wrapped_f, wrapped_g), cfg)
    assert not calls
    assert np.array_equal(got.values, structured)

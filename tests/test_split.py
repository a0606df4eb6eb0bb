"""An endpoint march split across forked processes: every endpoint, every
divergence time, warning and exception is what the in-process march gives.

The stacks here are far below the split floor, so each test forces the split
by setting the floor to 0 and the CPUs to two, and counts the forks to make
sure it happened.  The in-process reference is the same call unforced.
"""

import itertools
import os
import pickle
import signal
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab import solver
from pullbacklab.errors import DivergenceError, WorkerError
from pullbacklab.field import Grid, eigenmode, gaussian_bump, zero_field
from pullbacklab.model import ProblemSpec, canonical_cubic, canonical_forcing, zero_forcing
from pullbacklab.noise import flat_path, sample_path
from pullbacklab.solver import SolverConfig, _cut, final_states, worker_count

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


@pytest.fixture()
def split(monkeypatch):
    """Force every final_states call to split in two; yields the list of the
    children forked so far."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(solver, "_SPLIT_FLOOR", 0)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def in_process(call, *args):
    """``call(*args)`` with the split floor out of reach."""
    with pytest.MonkeyPatch.context() as unforced:
        unforced.setattr(solver, "_SPLIT_FLOOR", float("inf"))
        return call(*args)


def spec_for(dimension, forcing=None):
    return ProblemSpec(
        lam=2.0,
        epsilon=0.5,
        dimension=dimension,
        domain_radius=8.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=forcing or canonical_forcing(0.5, 0.5, 1.0),
    )


def stack_inputs(grid, counts, dt):
    """Initial data, start times, paths and intensities, one per count; the
    columns differ in all of them, zero intensity included."""
    initial = [
        gaussian_bump(grid, 1.0, 1.5),
        gaussian_bump(grid, 0.7, 2.0),
        eigenmode(grid, 2),
        zero_field(grid),
    ]
    k = len(counts)
    v0s = [initial[i % 4] for i in range(k)]
    starts = [-c * dt for c in counts]
    paths = [sample_path(4 + i % 3, -1.0, 0.5, dt) for i in range(k)]
    epsilons = [(0.5, 0.0, 0.25, 1.0)[i % 4] for i in range(k)]
    return v0s, starts, paths, epsilons


SHAPES = {
    "sweep-1d": (Grid(1, 8.0, 129), 1e-3, [200] * 6),
    "staggered-1d": (Grid(1, 8.0, 129), 1e-3, [300, 200, 200, 100, 50, 0]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_split_endpoints_equal_the_in_process_march_bitwise(shape, split):
    grid, dt, counts = SHAPES[shape]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    args = (v0s, starts, 0.0, paths, epsilons, spec_for(grid.dimension), SolverConfig(dt))
    want = in_process(final_states, *args)
    assert not split
    got = final_states(*args)
    assert len(split) == 1
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


def test_a_2d_stack_is_marched_in_process(split):
    grid, dt = Grid(2, 8.0, 17), 2e-3
    v0s, starts, paths, epsilons = stack_inputs(grid, [12] * 4, dt)
    args = (v0s, starts, 0.0, paths, epsilons, spec_for(2), SolverConfig(dt))
    want = in_process(final_states, *args)
    got = final_states(*args)
    assert not split
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


def test_more_chunks_than_cpus_equal_the_in_process_march_bitwise(split, monkeypatch):
    grid, dt, counts = SHAPES["staggered-1d"]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    args = (v0s, starts, 0.0, paths, epsilons, spec_for(1), SolverConfig(dt))
    want = in_process(final_states, *args)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    got = final_states(*args)
    assert len(split) == 4  # five marched columns, so five chunks
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


# -- divergence: amplitude 6 overflows the cubic in 7 steps of 0.1, amplitude
# 8 in 6, amplitude 0.5 never; with zero forcing and zero noise a column's own
# steps do not depend on when it starts

DIVERGING = ProblemSpec(
    lam=2.0,
    epsilon=0.0,
    dimension=1,
    domain_radius=8.0,
    nonlinearity=canonical_cubic(1.0),
    forcing=zero_forcing(),
)
GRID = Grid(1, 8.0, 129)
DT = 0.1


def divergence(amplitudes, starts):
    v0s = [gaussian_bump(GRID, a, 1.5) for a in amplitudes]
    path = flat_path(-1.0, 8.0, DT)
    with pytest.raises(DivergenceError) as exc_info:
        final_states(
            v0s, starts, 6.0, [path] * len(v0s), [0.0] * len(v0s), DIVERGING, SolverConfig(DT)
        )
    return exc_info.value


def divergence_time(amplitudes, starts):
    return divergence(amplitudes, starts).t


@pytest.mark.parametrize(
    "amplitudes",
    [
        [0.5, 0.5, 0.5, 6.0],  # in the second chunk only
        [6.0, 0.5, 8.0, 0.5],  # the second chunk first
        [8.0, 0.5, 6.0, 0.5],  # the first chunk first
    ],
)
def test_split_divergence_raises_at_the_in_process_time(amplitudes, split):
    assert _cut([60] * 4, 2) == [(0, 2), (2, 4)]
    want = in_process(divergence, amplitudes, [0.0] * 4)
    got = divergence(amplitudes, [0.0] * 4)
    assert split
    assert got.t == want.t
    assert str(got) == str(want)  # the summary's results.error


def test_divergence_error_survives_a_pickle_round_trip():
    for exc in (DivergenceError(0.6), DivergenceError(1.5, "custom")):
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), back.t, str(back)) == (DivergenceError, exc.t, str(exc))


def test_split_divergence_tie_goes_to_the_longest_column(split):
    # the first chunk's column joins at step 0 and overflows on its 7th step,
    # the second chunk's joins at step 1 and overflows on its 6th: the same
    # step of the stack, at own times with different bits
    starts = [0.0, 0.0, DT, DT]
    assert _cut([60, 60, 59, 59], 2) == [(0, 2), (2, 4)]
    first = divergence_time([6.0], starts[:1])
    second = divergence_time([8.0], starts[2:3])
    assert first != second and abs(first - second) < 1e-12
    amplitudes = [6.0, 0.5, 8.0, 0.5]
    assert in_process(divergence_time, amplitudes, starts) == first
    assert not split
    assert divergence_time(amplitudes, starts) == first
    assert split


def test_a_childs_warning_reaches_the_caller(split):
    parent = os.getpid()
    forcing = canonical_forcing(0.5, 0.5, 1.0)

    def g(t, pts):
        if os.getpid() != parent:
            warnings.warn("raised in the child", UserWarning)
        return forcing.g(t, pts)

    grid, dt, counts = SHAPES["sweep-1d"]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    spec = spec_for(1, replace(forcing, g=g))
    with pytest.warns(UserWarning, match="raised in the child"):
        final_states(v0s, starts, 0.0, paths, epsilons, spec, SolverConfig(dt))
    assert split


def warn_overflow():
    # pytest's filter turns a RuntimeWarning into an error, in the child too
    warnings.warn("overflow", RuntimeWarning)


def raise_value_error():
    raise ValueError("bad g")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def exit_without_answer():
    os._exit(3)


@pytest.mark.parametrize(
    "fail, error, match",
    [
        (warn_overflow, RuntimeWarning, "overflow"),
        (raise_value_error, ValueError, "bad g"),
        (kill_self, WorkerError, "killed by SIGKILL"),
        (exit_without_answer, WorkerError, "exited with status 3"),
    ],
)
def test_a_failing_child_raises_in_the_caller(fail, error, match, split):
    parent = os.getpid()
    forcing = canonical_forcing(0.5, 0.5, 1.0)

    def g(t, pts):
        if os.getpid() != parent:
            fail()
        return forcing.g(t, pts)

    grid, dt, counts = SHAPES["sweep-1d"]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    spec = spec_for(1, replace(forcing, g=g))
    with pytest.raises(error, match=match):
        final_states(v0s, starts, 0.0, paths, epsilons, spec, SolverConfig(dt))
    assert split


def test_an_interrupted_parent_kills_and_reaps_its_children(split):
    parent = os.getpid()
    forcing = canonical_forcing(0.5, 0.5, 1.0)

    def g(t, pts):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return forcing.g(t, pts)

    grid, dt, counts = SHAPES["sweep-1d"]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    spec = spec_for(1, replace(forcing, g=g))
    with pytest.raises(KeyboardInterrupt):
        final_states(v0s, starts, 0.0, paths, epsilons, spec, SolverConfig(dt))
    assert split
    # the autouse fixture checks that no child is left


def test_no_fork_with_a_second_thread_alive(split):
    grid, dt, counts = SHAPES["sweep-1d"]
    v0s, starts, paths, epsilons = stack_inputs(grid, counts, dt)
    spec, cfg = spec_for(1), SolverConfig(dt)
    alone = final_states(v0s, starts, 0.0, paths, epsilons, spec, cfg)
    split.clear()
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert worker_count() == 1
        got = final_states(v0s, starts, 0.0, paths, epsilons, spec, cfg)
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert not split
    for a, b in zip(got, alone):
        assert np.array_equal(a.values, b.values)


def test_worker_count_is_the_affinity_where_fork_is_safe(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert worker_count() == 3
    monkeypatch.delattr(os, "fork")
    assert worker_count() == 1


def test_cut_puts_the_longest_horizon_alone():
    # the quick-start equilibrium schedule, 1..24 at dt = 1e-3
    assert _cut([24000, 16000, 8000, 4000, 2000, 1000], 2) == [(0, 1), (1, 6)]
    assert _cut([8000] * 20, 2) == [(0, 10), (10, 20)]
    assert _cut([5, 3], 2) == [(0, 1), (1, 2)]
    # a chunk's stack-steps count too: by state-steps alone, 7 + 5 against
    # 5 + 3, the cut would fall after the second column (cost 19, not 18)
    assert _cut([7, 5, 5, 3], 2) == [(0, 1), (1, 4)]
    assert _cut([5, 3, 1], 1) == [(0, 3)]


@settings(max_examples=50, deadline=None)
@given(
    steps=st.lists(st.integers(1, 50), min_size=1, max_size=7).map(
        lambda s: sorted(s, reverse=True)
    ),
    width=st.integers(1, 4),
)
def test_cut_minimises_the_largest_chunk_cost(steps, width):
    width = min(width, len(steps))

    def largest(bounds):
        return max(steps[a] + sum(steps[a:b]) for a, b in bounds)

    got = _cut(steps, width)
    cuts = [b for _, b in got[:-1]]
    assert got == list(zip([0, *cuts], [*cuts, len(steps)]))
    assert all(a < b for a, b in got)
    best = min(
        largest(list(zip((0, *cuts), (*cuts, len(steps)))))
        for cuts in itertools.combinations(range(1, len(steps)), width - 1)
    )
    assert largest(got) == best

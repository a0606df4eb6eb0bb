"""Path sampling, refinement, shifting, and the conjugation factor.

The identities here are exact by construction (reads of a shared sample
lattice, midpoint refinement, flattened shifts), so most assertions are
bitwise rather than approximate.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pullbacklab.errors import ConfigurationError, OutOfWindowError
from pullbacklab.noise import (
    ShiftedPath,
    WienerPath,
    flat_path,
    lattice_steps,
    refine,
    refine_levels,
    sample_path,
    shift,
    sublinearity_report,
    z_factor,
    z_series,
    z_window_bounds,
)

DT = 1e-3


def test_origin_value_is_exactly_zero():
    for seed in (0, 1, 7, 12345):
        path = sample_path(seed, -2.0, 3.0, DT)
        assert path.value_at(0.0) == 0.0


def test_same_seed_is_bitwise_reproducible():
    a = sample_path(42, -1.0, 1.0, DT)
    b = sample_path(42, -1.0, 1.0, DT)
    assert np.array_equal(a.grid_values(), b.grid_values())


def test_different_seeds_differ():
    a = sample_path(0, -1.0, 1.0, DT)
    b = sample_path(1, -1.0, 1.0, DT)
    assert not np.array_equal(a.grid_values(), b.grid_values())


def test_forward_and_backward_arms_are_independent_streams():
    # narrowing the window must not change the samples that remain
    wide = sample_path(3, -2.0, 2.0, DT)
    narrow = sample_path(3, -1.0, 1.0, DT)
    tw = wide.grid_times()
    mask = (tw >= -1.0 - 1e-12) & (tw <= 1.0 + 1e-12)
    assert np.array_equal(wide.grid_values()[mask], narrow.grid_values())


def test_increment_distribution_matches_gaussian():
    # one long path; standardized increments should look N(0, 1)
    path = sample_path(11, 0.0, 8.0, DT)
    incs = np.diff(path.grid_values()) / math.sqrt(DT)
    result = stats.kstest(incs, "norm")
    assert result.pvalue > 0.01


def test_value_at_grid_points_matches_grid_values():
    path = sample_path(5, -1.0, 1.0, DT)
    times = path.grid_times()
    vals = path.grid_values()
    for i in (0, 1, 500, 1999, 2000):
        assert path.value_at(float(times[i])) == vals[i]


def test_value_at_rejects_times_between_samples():
    path = sample_path(5, 0.0, 1.0, DT)
    # a quarter step, a half step, and just outside the snap slack of 1e-6
    for t in (0.25 * DT, 137.5 * DT, (137 + 2e-6) * DT):
        with pytest.raises(ConfigurationError, match="lattice"):
            path.value_at(t)
    with pytest.raises(ConfigurationError, match="lattice"):
        shift(path, 0.5).value_at(0.25 * DT)


def test_value_at_snaps_to_the_lattice():
    path = sample_path(5, 0.0, 1.0, DT)
    k = 137
    jitter = 1e-7 * DT  # inside the snap tolerance of 1e-6 * dt
    assert path.value_at(k * DT + jitter) == path.value_at(k * DT)


def test_value_outside_window_raises():
    path = sample_path(5, -1.0, 1.0, DT)
    with pytest.raises(OutOfWindowError):
        path.value_at(1.5)
    with pytest.raises(OutOfWindowError):
        path.value_at(-1.0 - 10 * DT)


def test_sample_series_equals_pointwise_values():
    path = sample_path(9, -1.0, 1.0, DT)
    series = path.sample_series(-0.5, 40, DT)
    expected = np.array([path.value_at(-0.5 + i * DT) for i in range(40)])
    assert np.array_equal(series, expected)


def _pointwise(path, t_start, n, step):
    """The series as n calls of value_at; a shifted path's series reads its
    base from the shifted start, as ShiftedPath.sample_series does."""
    if isinstance(path, ShiftedPath):
        return _pointwise(path.base, t_start + path.shift_s, n, step) - path.offset
    return np.array([path.value_at(t_start + k * step) for k in range(n)])


# start fractions that snap onto the lattice, and step fractions that are a
# whole number of path steps; every other choice reads between samples
_SNAPPED = (0.0, 3e-7, -4e-7)
_WHOLE = (1.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    start=st.integers(min_value=-120, max_value=110),
    # on the lattice, inside the snap slack, and between samples
    start_frac=st.sampled_from([*_SNAPPED, 0.25, 0.5, 0.73]),
    # whole steps, and steps that are not: 1 + 3e-6 lies outside the slack
    step_frac=st.sampled_from([*_WHOLE, 0.5, 0.25, 0.37, 1.0 + 3e-6, 1.5]),
    n=st.integers(min_value=0, max_value=60),
    shift_steps=st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    shift_frac=st.sampled_from([0.0, 0.5, 0.21]),
)
# times within the snap slack outside either end of the window snap into it
@example(0, -100, -4e-7, 1.0, 5, None, 0.0)
@example(0, 100, 3e-7, 1.0, 1, None, 0.0)
@example(0, 98, 0.0, 1.0, 3, None, 0.0)
# one step past the end leaves the window
@example(0, 99, 0.0, 1.0, 3, None, 0.0)
# an empty series is empty, also where its start lies outside the window
@example(0, -100, 0.0, 2.0, 0, None, 0.0)
@example(0, -101, 0.0, 2.0, 0, None, 0.0)
# off the lattice: the start, the step, the shift
@example(0, 0, 0.25, 1.0, 3, None, 0.0)
@example(0, 0, 0.0, 0.5, 3, None, 0.0)
@example(0, 0, 0.0, 1.0, 3, 5, 0.5)
def test_sample_series_equals_value_at_on_and_off_the_lattice(
    seed, start, start_frac, step_frac, n, shift_steps, shift_frac
):
    dt = 0.01
    path = sample_path(seed, -1.0, 1.0, dt)
    if shift_steps is not None:
        if shift_frac not in _SNAPPED:
            # the shifted path reads its base between samples at its origin
            with pytest.raises(ConfigurationError, match="lattice"):
                shift(path, (shift_steps + shift_frac) * dt)
            return
        path = shift(path, (shift_steps + shift_frac) * dt)
    t_start = (start + start_frac) * dt
    step = step_frac * dt
    if n == 0:
        assert path.sample_series(t_start, n, step).size == 0
        return
    if start_frac not in _SNAPPED or step_frac not in _WHOLE:
        with pytest.raises(ConfigurationError, match="lattice"):
            path.sample_series(t_start, n, step)
        return
    try:
        expected = _pointwise(path, t_start, n, step)
    except OutOfWindowError:
        with pytest.raises(OutOfWindowError):
            path.sample_series(t_start, n, step)
        return
    assert np.array_equal(path.sample_series(t_start, n, step), expected)


def test_sample_series_step_error_names_both_steps():
    path = sample_path(9, -1.0, 1.0, DT)
    with pytest.raises(ConfigurationError, match=r"0\.0015.*dt=0\.001\b"):
        path.sample_series(0.0, 3, 1.5 * DT)


def test_lattice_steps_snaps_within_the_slack_and_rejects_the_rest():
    assert lattice_steps(0.5, DT, "x") == 500
    assert lattice_steps(-0.5 + 3e-7 * DT, DT, "x") == -500
    for value in (0.5 + 2e-6 * DT, 0.0005, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="^x is not a multiple"):
            lattice_steps(value, DT, "x")


def test_refine_levels_takes_the_fewest_halvings():
    assert refine_levels(0.008, 0.001) == 3
    assert refine_levels(0.001, 0.001) == 0
    assert refine_levels(0.0005, 0.001) == 0  # finer and dividing: no refinement
    assert refine_levels(0.002, 0.003) == 1  # finer, but only its half divides
    with pytest.raises(ConfigurationError, match=r"0\.01 .*0\.001"):
        refine_levels(0.01, 0.001)
    # a step within the snap slack of zero path steps is not a whole step
    with pytest.raises(ConfigurationError):
        refine_levels(1.0, 1e-7)
    fine = refine(refine(refine(sample_path(4, -1.0, 1.0, 0.008))))
    assert fine.dt == 0.008 / 2**3
    assert lattice_steps(0.001, fine.dt, "solver step") == 1


def test_sample_series_with_stride_is_a_view_of_the_lattice():
    path = sample_path(9, -1.0, 1.0, DT)
    series = path.sample_series(-1.0, 100, 5 * DT)
    assert np.array_equal(series, path.grid_values()[::5][:100])


def test_refine_keeps_old_samples_bitwise():
    path = sample_path(21, -1.0, 1.0, DT)
    fine = refine(path)
    assert fine.dt == DT / 2.0
    assert np.array_equal(fine.grid_values()[::2], path.grid_values())


def test_refine_is_deterministic():
    path = sample_path(21, -1.0, 1.0, DT)
    assert np.array_equal(refine(path).grid_values(), refine(path).grid_values())


def test_refine_midpoints_have_bridge_statistics():
    path = sample_path(8, 0.0, 4.0, 0.5)
    fine = refine(path)
    old = path.grid_values()
    mids = fine.grid_values()[1::2]
    # conditional mean is the midpoint, conditional sd is sqrt(dt/4)
    residuals = mids - 0.5 * (old[:-1] + old[1:])
    assert np.all(residuals != 0.0)
    assert np.all(np.abs(residuals) < 6.0 * math.sqrt(0.5 / 4.0))


def test_refine_flat_path_interpolates_without_noise():
    path = flat_path(-1.0, 1.0, DT)
    fine = refine(path)
    assert np.array_equal(fine.grid_values(), np.zeros(fine.grid_values().size))


def test_shift_rebases_the_origin():
    # the shifted path sees increments from the new origin, so its own
    # value at 0 is exactly 0 again
    path = sample_path(2, -2.0, 2.0, DT)
    moved = shift(path, 0.5)
    assert moved.value_at(0.0) == 0.0
    for t in (-1.0, 0.25, 1.0):
        assert moved.value_at(t) == path.value_at(t + 0.5) - path.value_at(0.5)


def test_nested_shifts_flatten_to_one_layer():
    path = sample_path(2, -2.0, 2.0, DT)
    twice = shift(shift(path, 0.75), 0.25)
    assert isinstance(twice, ShiftedPath)
    assert twice.base is path
    assert twice.shift_s == 1.0


def test_shift_group_property_is_exact():
    path = sample_path(2, -2.0, 2.0, DT)
    once = shift(path, 1.0)
    composed = shift(shift(path, 0.625), 0.375)
    times = np.arange(-1.0, 1.0, 7 * DT)
    for t in times:
        assert composed.value_at(float(t)) == once.value_at(float(t))


def test_shift_window_metadata():
    path = sample_path(2, -2.0, 2.0, DT)
    moved = shift(path, 0.5)
    assert moved.t_min == -2.5
    assert moved.t_max == 1.5
    assert moved.seed == path.seed
    assert moved.dt == path.dt


def test_flat_path_is_identically_zero():
    path = flat_path(-1.0, 1.0, DT)
    assert np.all(path.grid_values() == 0.0)
    assert path.seed is None
    assert z_factor(path, 0.7, 0.5) == 1.0


def test_z_factor_matches_closed_form():
    path = sample_path(4, -1.0, 1.0, DT)
    eps = 0.3
    for t in (-0.5, 0.0, 0.123):
        assert z_factor(path, eps, t) == pytest.approx(
            math.exp(-eps * path.value_at(t)), rel=1e-14
        )


def test_z_series_matches_pointwise_factors():
    path = sample_path(4, -1.0, 1.0, DT)
    eps = 0.45
    series = z_series(path, eps, -0.5, 30, DT)
    expected = np.array([z_factor(path, eps, -0.5 + i * DT) for i in range(30)])
    assert np.array_equal(series, expected)


def test_z_window_bounds_bracket_the_unit_window():
    path = sample_path(6, -2.0, 1.0, DT)
    eps = 0.8
    lo, hi = z_window_bounds(path, eps)
    assert 0.0 < lo <= hi
    times = path.grid_times()
    mask = (times >= -1.0) & (times <= 0.0)
    z = np.exp(-eps * path.grid_values()[mask])
    assert lo == z.min()
    assert hi == z.max()


def test_z_window_bounds_needs_the_window():
    path = sample_path(6, -0.5, 1.0, DT)
    with pytest.raises(OutOfWindowError):
        z_window_bounds(path, 0.5)


def test_epsilon_outside_unit_interval_rejected():
    path = sample_path(6, -1.0, 1.0, DT)
    with pytest.raises(ConfigurationError):
        z_factor(path, 1.5, 0.0)
    with pytest.raises(ConfigurationError):
        z_factor(path, -0.1, 0.0)


def test_path_window_validation():
    with pytest.raises(ConfigurationError):
        sample_path(0, 1.0, -1.0, DT)
    with pytest.raises(ConfigurationError):
        sample_path(0, -1.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        # sample table too short for the declared window
        WienerPath(seed=0, t_min=0.0, t_max=1.0, dt=DT, values=np.zeros(100))
    # a window whose lattice misses t = 0 has no sample for omega(0)
    for make in (lambda: sample_path(0, -0.25, 0.75, 0.5), lambda: flat_path(-0.25, 0.75, 0.5)):
        with pytest.raises(ConfigurationError, match="^the window start -0.25 is not a multiple"):
            make()


def test_a_path_freezes_a_copy_of_the_callers_samples():
    # the caller's array stays writeable, and writing into it afterwards
    # leaves the path's samples as they were given
    given = np.array([0.0, 0.25, -0.5, 1.0, 0.5])
    path = WienerPath(seed=None, t_min=-1.0, t_max=1.0, dt=0.5, values=given)
    assert given.flags.writeable and not path.values.flags.writeable
    given[:] = 9.0
    assert path.values.tolist() == [0.0, 0.25, -0.5, 1.0, 0.5]


def test_sublinearity_report_shape_and_flat_case():
    path = sample_path(13, -40.0, 40.0, 0.01)
    report = sublinearity_report(path)
    assert len(report) == 4
    thresholds = [T for T, _ in report]
    assert thresholds == sorted(thresholds)
    for _, ratio in report:
        assert ratio >= 0.0
    flat = flat_path(-10.0, 10.0, 0.01)
    for _, ratio in sublinearity_report(flat):
        assert ratio == 0.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=-1000, max_value=1000),
)
def test_lattice_times_evaluate_exactly(seed, k):
    path = sample_path(seed, -1.0, 1.0, 1e-3)
    t = k * 1e-3
    idx = k + 1000
    assert path.value_at(t) == path.grid_values()[idx]


@settings(max_examples=25, deadline=None)
@given(
    offset_steps=st.integers(min_value=-500, max_value=500),
    probe_steps=st.integers(min_value=-400, max_value=400),
)
def test_shift_by_lattice_offsets_is_exact(offset_steps, probe_steps):
    path = sample_path(17, -2.0, 2.0, 1e-3)
    s = offset_steps * 1e-3
    t = probe_steps * 1e-3
    if not (-2.0 <= t + s <= 2.0):
        return
    assert shift(path, s).value_at(t) == path.value_at(t + s) - path.value_at(s)

"""Problem assembly, the canonical instances, structure-condition scans,
and config parsing."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab.errors import ConfigurationError
from pullbacklab.field import Grid, gaussian_bump
from pullbacklab.model import (
    Forcing,
    Nonlinearity,
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
    check_hypotheses,
    forcing_from_config,
    forcing_memory_integral,
    forcing_norm_sq,
    forcing_norms_sq,
    nonlinearity_from_config,
    spec_from_config,
    zero_forcing,
)
from pullbacklab.noise import flat_path
from pullbacklab.solver import SolverConfig, final_state, final_states


def test_canonical_cubic_pointwise_values():
    nl = canonical_cubic(alpha3=1.0, scale=1.0)
    pts = np.zeros((3, 1))
    s = np.array([0.0, 1.0, -2.0])
    assert np.allclose(nl.f(pts, s), [0.0, 0.0, 6.0])
    assert np.allclose(nl.df_ds(pts, s), [1.0, -2.0, -11.0])
    assert nl.p == 4.0
    assert nl.alpha1 == 0.5


def test_canonical_cubic_dissipativity_is_sharp():
    # equality in f(x,s)*s <= -alpha1 s^4 + psi1 at s^2 = alpha3/scale... the
    # supremum of alpha3 s^2 - (scale/2) s^4 is alpha3^2/(2 scale)
    for alpha3, scale in ((1.0, 1.0), (0.5, 0.05), (3.0, 2.0)):
        nl = canonical_cubic(alpha3, scale)
        s = np.linspace(-10.0, 10.0, 20001)
        lhs = nl.f(np.zeros((s.size, 1)), s) * s
        rhs = -nl.alpha1 * s**4 + nl.psi1(np.zeros((s.size, 1)))
        gap = rhs - lhs
        assert gap.min() >= -1e-10
        assert gap.min() <= 1e-3  # the bound is attained up to lattice spacing


def test_canonical_cubic_rejects_bad_constants():
    with pytest.raises(ConfigurationError):
        canonical_cubic(0.0)
    with pytest.raises(ConfigurationError):
        canonical_cubic(1.0, scale=-2.0)
    # NaN fails the positivity rule, not the overflow one
    for alpha3, scale in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ConfigurationError, match="^alpha3 and scale must be positive$"):
            canonical_cubic(alpha3, scale)


def test_check_hypotheses_passes_the_canonical_instance(desk_spec, desk_grid):
    report = check_hypotheses(desk_spec, desk_grid)
    assert set(report.slacks) == {
        "dissipativity",
        "growth",
        "slope_bound",
        "space_gradient",
        "slope_growth",
    }
    for name, slack in report.slacks.items():
        assert slack >= -1e-12, name
    # worst points carry (x..., s) coordinates
    for point in report.worst_points.values():
        assert len(point) == 2


# the values where an in-place evaluation could part from the expression:
# signed zeros, infinities, NaN, subnormals and values whose cube overflows
_CUBIC_EDGES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2e-308, 6e102, -1e103, 1e200]
)


@settings(max_examples=200, deadline=None)
@given(
    alpha3=st.floats(min_value=1e-100, max_value=1e100),
    scale=st.floats(min_value=1e-100, max_value=1e100),
    s=st.lists(st.floats() | _CUBIC_EDGES, min_size=1, max_size=40),
)
def test_canonical_cubic_is_its_expression_bitwise(alpha3, scale, s):
    values = np.array(s)
    kept = values.copy()
    with np.errstate(all="ignore"):
        got = canonical_cubic(alpha3, scale).f(np.zeros((len(s), 1)), values)
        want = alpha3 * values - scale * (values * values * values)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))  # s untouched


@settings(max_examples=200, deadline=None)
@given(
    amplitude=st.floats(min_value=-1e100, max_value=1e100),
    width=st.floats(min_value=1e-3, max_value=1e3),
    t=st.lists(
        st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        min_size=1,
        max_size=10,
    ),
    x=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=40),
    dimension=st.sampled_from([1, 2]),
)
def test_canonical_forcing_is_its_expression_bitwise(amplitude, width, t, x, dimension):
    g = canonical_forcing(amplitude, 0.5, width).g
    pts = np.array(x[: len(x) // dimension * dimension]).reshape(-1, dimension)
    times = np.array(t)
    w2 = width**2
    for when in (times[:, None], float(times[0])):
        with np.errstate(all="ignore"):
            got = g(when, pts)
            want = amplitude * (0.5 * (1.0 + np.tanh(when))) * np.exp(-sum(pts.T**2) / w2)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=20, deadline=None)
@given(
    alpha3=st.floats(min_value=0.1, max_value=5.0),
    scale=st.floats(min_value=0.05, max_value=3.0),
)
def test_check_hypotheses_certifies_every_canonical_cubic(alpha3, scale):
    spec = ProblemSpec(
        lam=alpha3 + 1.0,
        nonlinearity=canonical_cubic(alpha3, scale),
        forcing=zero_forcing(),
    )
    slacks = check_hypotheses(spec, Grid(1, 8.0, 129)).slacks
    assert all(slack >= -1e-12 for slack in slacks.values())


def test_check_hypotheses_reports_a_violated_slope_bound():
    # declare a slope cap below the true maximum slope (alpha3 at s=0)
    base = canonical_cubic(1.0)
    lying = Nonlinearity(
        f=base.f,
        df_ds=base.df_ds,
        df_dx=base.df_dx,
        alpha1=base.alpha1,
        alpha2=base.alpha2,
        alpha3=0.5,
        alpha4=base.alpha4,
        p=base.p,
        psi1=base.psi1,
        psi2=base.psi2,
        psi3=base.psi3,
        psi4=base.psi4,
    )
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=lying,
        forcing=zero_forcing(),
    )
    report = check_hypotheses(spec, Grid(1, 8.0, 129))
    assert report.slacks["slope_bound"] < -1e-12
    # the scan lattice contains s=0 where the violation is largest
    assert report.worst_points["slope_bound"][-1] == pytest.approx(0.0, abs=1e-12)


def test_nonlinearity_rejects_subquadratic_growth():
    base = canonical_cubic(1.0)
    with pytest.raises(ConfigurationError):
        Nonlinearity(
            f=base.f,
            df_ds=base.df_ds,
            df_dx=base.df_dx,
            alpha1=1.0,
            alpha2=1.0,
            alpha3=1.0,
            alpha4=1.0,
            p=1.5,
            psi1=base.psi1,
            psi2=base.psi2,
            psi3=base.psi3,
            psi4=base.psi4,
        )


def test_canonical_forcing_gate_and_profile():
    forcing = canonical_forcing(amplitude=2.0, delta=0.5, width=1.0)
    pts = np.array([[0.0], [1.0]])
    # far past: gate ~ 0; far future: gate ~ 1
    assert np.allclose(forcing.g(-50.0, pts), 0.0, atol=1e-20)
    future = forcing.g(50.0, pts)
    assert future[0] == pytest.approx(2.0, rel=1e-12)
    assert future[1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    # at t=0 the gate is exactly one half
    assert forcing.g(0.0, pts)[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 33)])
def test_canonical_forcing_on_a_stack_of_times_equals_scalar_calls(dimension, m):
    forcing = canonical_forcing(amplitude=0.5, delta=0.5, width=1.0)
    pts = Grid(dimension, 8.0, m).points
    # times off any lattice, around the gate's switch and deep in its tails
    times = np.concatenate([np.linspace(-24.0, 1.0, 997), [-0.0, 0.0, 1e-300, 40.0]])
    stacked = forcing.g(times[:, None], pts)
    assert stacked.shape == (len(times), len(pts))
    for row, t in zip(stacked, times):
        assert np.array_equal(row, forcing.g(float(t), pts))


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 33)])
def test_canonical_forcing_profile_is_recomputed_for_read_only_points(dimension, m):
    forcing = canonical_forcing(amplitude=0.5, delta=0.5, width=1.5)
    pts = Grid(dimension, 8.0, m).points
    assert not pts.flags.writeable
    fresh = 0.5 * (0.5 * (1.0 + np.tanh(0.3))) * np.exp(-(pts**2).sum(axis=1) / 1.5**2)
    first = forcing.g(0.3, pts)
    again = forcing.g(0.3, pts)  # the profile is computed afresh each call
    assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
    # a writable copy with the same values gives the same bits
    assert np.array_equal(forcing.g(0.3, np.array(pts)), fresh)


def test_canonical_forcing_rereads_writable_points():
    forcing = canonical_forcing(amplitude=1.0, delta=0.5, width=1.0)
    pts = np.array([[0.0], [1.0], [2.0]])
    before = forcing.g(50.0, pts)
    pts[1, 0] = 0.0  # changed in place between calls
    after = forcing.g(50.0, pts)
    assert after[1] == after[0] != before[1]
    # a read-only view of a writable array is read afresh as well
    view = pts[:]
    view.setflags(write=False)
    forcing.g(50.0, view)
    pts[2, 0] = 0.0
    assert forcing.g(50.0, view)[2] == after[0]


@pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")
def test_zero_and_constant_forcings_broadcast_over_a_stack():
    grid = Grid(1, 2.0, 9)
    times = np.array([[-1.0], [0.0], [2.5]])
    zeros = zero_forcing().g(times, grid.points)
    assert zeros.shape == (3, 9) and not zeros.any()
    assert zero_forcing().g(0.0, grid.points).shape == (9,)
    # forcings that ignore t's shape, like the constant ones in the tests,
    # march a staggered stack column by column
    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=Forcing(g=lambda t, pts: np.full(len(pts), 3.0), delta=0.0),
    )
    cfg = SolverConfig(dt=0.01)
    path = flat_path(-1.0, 1.0, 0.01)
    v0s = [gaussian_bump(grid, 0.2, 0.5), gaussian_bump(grid, 0.4, 1.0)]
    ends = final_states(v0s, [-0.5, -0.2], 0.0, [path] * 2, [0.0] * 2, spec, cfg)
    for v0, t0, end in zip(v0s, [-0.5, -0.2], ends):
        assert np.array_equal(end.values, final_state(v0, t0, 0.0, path, 0.0, spec, cfg).values)


@pytest.mark.parametrize("dimension", [1, 2])
def test_check_hypotheses_scans_the_grids_box(desk_spec, dimension):
    report = check_hypotheses(desk_spec, Grid(dimension, 4.0, 65))
    for point in report.worst_points.values():
        assert len(point) == dimension + 1
        assert all(-4.0 <= c <= 4.0 for c in point[:-1])
    # the canonical cubic does not depend on x, so each worst slack is first
    # met at the lattice's first point, the box's corner
    assert {point[:-1] for point in report.worst_points.values()} == {(-4.0,) * dimension}


def test_problem_spec_validation():
    nl = canonical_cubic(1.0)
    good = dict(
        lam=2.0,
        nonlinearity=nl,
        forcing=zero_forcing(),
    )
    ProblemSpec(**good)
    # problem data only: the box is the grid's
    assert [f.name for f in fields(ProblemSpec)] == ["lam", "nonlinearity", "forcing"]
    with pytest.raises(ConfigurationError):
        ProblemSpec(**{**good, "lam": 0.0})
    with pytest.raises(ConfigurationError):
        # memory weight must stay below the damping
        ProblemSpec(**{**good, "forcing": zero_forcing(delta=2.0)})
    # the spec owns delta's rule for every forcing kind: the canonical
    # forcing builds with a negative delta and the spec refuses it
    negative = canonical_forcing(1.0, -0.5)
    for forcing in (negative, zero_forcing(delta=-0.5)):
        with pytest.raises(ConfigurationError, match=r"^forcing delta must lie in \[0, lambda\)"):
            ProblemSpec(**{**good, "forcing": forcing})
    # the amplitude's rule is the canonical forcing's own
    for amplitude in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match=f"^amplitude must be finite, got {amplitude}$"):
            canonical_forcing(amplitude, 0.5)


def test_forcing_norm_sq_hand_oracle():
    g = Grid(dimension=1, radius=2.0, points_per_axis=5)
    forcing = Forcing(g=lambda t, pts: np.full(len(pts), 3.0), delta=0.0)
    # ||g||^2 = h * sum(9) over five points
    assert forcing_norm_sq(forcing, g, 0.0) == pytest.approx(45.0, rel=1e-14)


def test_forcing_memory_integral_closed_form():
    g = Grid(dimension=1, radius=2.0, points_per_axis=5)
    forcing = Forcing(g=lambda t, pts: np.full(len(pts), 1.0), delta=1.0)
    # integrand e^s * 5 (five unit points, h=1) over [-H, 0]
    value = forcing_memory_integral(forcing, g, tau=0.0, horizon=30.0, nodes=30001)
    assert value == pytest.approx(5.0, rel=1e-6)


@pytest.mark.parametrize("dimension, m", [(1, 129), (2, 65)])
def test_blocked_forcing_norms_equal_per_node_quadrature_bitwise(dimension, m):
    grid = Grid(dimension, 8.0, m)
    times = np.linspace(-30.0, 1.0, 2001)
    constant = Forcing(g=lambda t, pts: np.full(len(pts), 3.0), delta=0.0)
    for forcing in (canonical_forcing(0.5, 0.5, 1.0), zero_forcing(), constant):
        per_node = [forcing_norm_sq(forcing, grid, float(t)) for t in times]
        assert np.array_equal(forcing_norms_sq(forcing, grid, times), per_node)
    forcing = canonical_forcing(0.5, 0.5, 1.0)
    s = np.linspace(-30.0, 0.0, 2001)
    per_node = [np.exp(forcing.delta * si) * forcing_norm_sq(forcing, grid, si) for si in s]
    value = forcing_memory_integral(forcing, grid, tau=0.0, horizon=30.0)
    assert value == float(np.trapezoid(per_node, s))


def test_spec_from_config_roundtrip():
    section = {
        "lambda": 2.0,
        "nonlinearity": {"kind": "cubic", "alpha3": 1.0},
        "forcing": {"kind": "tanh_gaussian", "amplitude": 0.5, "delta": 0.5},
    }
    spec = spec_from_config(section)
    assert spec.lam == 2.0
    assert spec.nonlinearity.alpha3 == 1.0
    assert spec.forcing.delta == 0.5
    # the noise intensity is an argument of each run, and the box is the
    # grid's: none of them is problem data
    for key, value in (("epsilon", 0.5), ("dimension", 1), ("domain_radius", 8.0)):
        with pytest.raises(ConfigurationError, match=rf"unknown key\(s\) \['{key}'\]"):
            spec_from_config({**section, key: value})


def test_config_errors_carry_field_paths():
    with pytest.raises(ConfigurationError, match="'lambda' in spec"):
        spec_from_config(
            {
                "epsilon": 0.5,
                "nonlinearity": {"kind": "cubic", "alpha3": 1.0},
                "forcing": {"kind": "zero"},
            }
        )
    with pytest.raises(ConfigurationError, match="nonlinearity"):
        nonlinearity_from_config({"kind": "quintic", "alpha3": 1.0})
    with pytest.raises(ConfigurationError, match="forcing"):
        forcing_from_config({"kind": "tanh_gaussian", "amplitude": 1.0})
    with pytest.raises(ConfigurationError, match="unknown"):
        spec_from_config(
            {
                "lambda": 2.0,
                "epsilon": 0.5,
                "nonlinearity": {"kind": "cubic", "alpha3": 1.0},
                "forcing": {"kind": "zero"},
                "extra_knob": 1,
            }
        )


def test_zero_forcing_from_config_rejects_amplitude():
    with pytest.raises(ConfigurationError):
        forcing_from_config({"kind": "zero", "amplitude": 1.0})

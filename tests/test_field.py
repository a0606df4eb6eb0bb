"""Grids, grid functions, norms, and quadratures.

Norm oracles are recomputed by hand on tiny grids so the library formula is
checked against an independent arithmetic path, not against itself.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullbacklab.errors import ConfigurationError, GridMismatchError
from pullbacklab.field import (
    Field,
    Grid,
    Quadrature,
    Trajectory,
    eigenmode,
    eigenmode_rate,
    field_from_function,
    gaussian_bump,
    gradient_energy_density,
    h1_norm,
    interior,
    l2_norm,
    lattice_points,
    lp_norm,
    ring,
    superlevel_measure_integrand,
    tail_norm,
    trajectory_row,
    write_field_csv,
    write_table_csv,
    write_trajectory_csv,
    zero_boundary,
    zero_field,
)
from pullbacklab.model import canonical_forcing


def small_grid() -> Grid:
    return Grid(dimension=1, radius=2.0, points_per_axis=5)


def test_grid_geometry():
    g = Grid(dimension=1, radius=8.0, points_per_axis=129)
    assert g.spacing == pytest.approx(16.0 / 128.0)
    assert g.axis[0] == -8.0
    assert g.axis[-1] == 8.0
    assert g.shape == (129,)
    assert g.cell_volume == pytest.approx(g.spacing)

    g2 = Grid(dimension=2, radius=6.0, points_per_axis=65)
    assert g2.shape == (65, 65)
    assert g2.cell_volume == pytest.approx(g2.spacing**2)
    assert g2.points.shape == (65 * 65, 2)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(dimension=3, radius=8.0, points_per_axis=129)
    with pytest.raises(ConfigurationError):
        Grid(dimension=1, radius=-1.0, points_per_axis=129)
    with pytest.raises(ConfigurationError):
        Grid(dimension=1, radius=8.0, points_per_axis=2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 8.0, 65.0), "points_per_axis must be an integer, got 65.0"),
        ((1.0, 8.0, 65), "dimension must be an integer, got 1.0"),
        ((True, 8.0, 65), "dimension must be an integer, got True"),
        ((1, 8.0, np.bool_(True)), "points_per_axis must be an integer"),
        ((2, 8.0, np.float64(17.0)), "points_per_axis must be an integer"),
    ],
)
def test_grid_takes_integers_only(args, message):
    # a whole float or a bool would pass the value checks and fail later,
    # when a field is built on the grid, or be read as 1D
    with pytest.raises(ConfigurationError) as exc_info:
        Grid(*args)
    assert str(exc_info.value).startswith(message)


def test_grid_accepts_numpy_integers():
    g = Grid(np.int64(2), 8.0, np.int32(17))
    assert g == Grid(2, 8.0, 17)
    assert zero_field(g).values.shape == (17, 17)


def test_field_requires_matching_shape_and_zero_boundary():
    g = small_grid()
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field(g, np.ones(5))  # nonzero at the boundary
    with pytest.raises(ValueError):
        Field(g, np.array([0.0, 1.0, np.nan, 1.0, 0.0]))


def test_field_values_are_read_only():
    f = zero_field(small_grid())
    with pytest.raises(ValueError):
        f.values[1] = 3.0


def test_l2_norm_hand_oracle():
    g = small_grid()  # h = 1.0
    f = Field(g, np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    assert l2_norm(f) == pytest.approx(math.sqrt(1.0 + 4.0 + 9.0), rel=1e-14)


def test_lp_norm_hand_oracle():
    g = small_grid()
    f = Field(g, np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    assert lp_norm(f, 4.0) == pytest.approx((1.0 + 16.0 + 81.0) ** 0.25, rel=1e-14)
    assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-14)


def test_gradient_energy_hand_oracle():
    g = small_grid()
    f = Field(g, np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    # forward differences on h=1: 1, -3, 5, -3
    expected = np.array([1.0, 9.0, 25.0, 9.0])
    assert np.allclose(gradient_energy_density(f).sum(), expected.sum(), rtol=1e-14)


def test_h1_norm_combines_mass_and_gradient():
    g = small_grid()
    f = Field(g, np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    expected = math.sqrt((1.0 + 4.0 + 9.0) + (1.0 + 9.0 + 25.0 + 9.0))
    assert h1_norm(f) == pytest.approx(expected, rel=1e-14)


def plain_norms(f: Field, p: float):
    """L2, H1 and L^p, and the gradient table, written out with a temporary
    for every operation: the arithmetic whose bits the fused pass keeps."""
    v, h, cv = f.values, f.grid.spacing, f.grid.cell_volume
    g = np.zeros_like(v)
    if v.ndim == 1:
        g[:-1] += ((v[1:] - v[:-1]) / h) ** 2
    else:
        g[:-1, :] += ((v[1:, :] - v[:-1, :]) / h) ** 2
        g[:, :-1] += ((v[:, 1:] - v[:, :-1]) / h) ** 2
    l2 = float(np.sqrt(cv * np.sum(v**2)))
    h1 = float(np.sqrt(cv * (np.sum(v**2) + np.sum(g))))
    lp = float((cv * np.sum(np.abs(v) ** p)) ** (1.0 / p))
    return (l2, h1, lp), g


@pytest.mark.parametrize("dimension, m", [(1, 129), (1, 35), (2, 65), (2, 17)])
def test_fused_pass_has_the_bits_of_the_plain_quadratures(dimension, m):
    grid = Grid(dimension, 8.0, m)
    rng = np.random.default_rng(m)
    quad = Quadrature(grid)  # one set of scratch buffers for every call
    for scale in (1e-3, 1.0, 40.0):
        f = Field(grid, zero_boundary(scale * rng.standard_normal(grid.shape)))
        for p in (2.0, 2.5, 3.0, 4.0):
            want, grad = plain_norms(f, p)
            assert quad.norms(f.values, p=p) == want
            assert (l2_norm(f), h1_norm(f), lp_norm(f, p)) == want
            assert trajectory_row(0.5, f, p) == [0.5, *want]
        assert quad.norms(f.values) == (want[0], want[1], None)
        assert quad.norms(f.values, h1=False) == (want[0], None, None)
        assert np.array_equal(gradient_energy_density(f), grad)
        # the weighted squares and masses the norms are rooted from
        v, cv = f.values, grid.cell_volume
        masses = [float(cv * np.sum(np.abs(v) ** q)) for q in (4.0, 6.0)]
        want_sq = (float(cv * np.sum(v**2)), float(cv * (np.sum(v**2) + np.sum(grad))), masses)
        assert quad.squares(v, powers=(4.0, 6.0)) == want_sq
        assert quad.squares(v, h1=False) == (want_sq[0], None, [])
        # the superlevel pass: max |v| and each level's mass, 0.0 above it
        top = float(np.max(np.abs(v)))
        levels = (0.5 * top, top, 2.0 * top)
        plain = [
            float(cv * np.sum(np.abs(v[np.abs(v) >= level]) ** 4.0)) for level in levels[:2]
        ]
        assert quad.superlevel(v, levels, 4.0) == (top, [*plain, 0.0])


@pytest.mark.parametrize("dimension", [1, 2])
def test_fused_pass_checks_values_as_a_field_does(dimension):
    grid = Grid(dimension, 4.0, 9)
    quad = Quadrature(grid)
    good = np.zeros(grid.shape)
    good[(slice(1, -1),) * dimension] = 1.0
    edges = [(0,), (-1,)] if dimension == 1 else [(0, 4), (-1, 4), (4, 0), (4, -1)]
    for where in edges:
        bad = good.copy()
        bad[where] = 1e-300
        for check in (lambda: Field(grid, bad), lambda: quad.norms(bad)):
            with pytest.raises(ValueError, match="identically zero"):
                check()
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[(4,) * dimension] = value
        for check in (lambda: Field(grid, bad), lambda: quad.norms(bad)):
            with pytest.raises(ValueError, match="must be finite"):
                check()
    with pytest.raises(GridMismatchError):
        quad.norms(np.zeros((7,) * dimension))
    # every pass checks as a Field does: the squares and the superlevel pass
    spoiled = good.copy()
    spoiled[(4,) * dimension] = np.nan
    passes = (
        lambda: quad.squares(spoiled, h1=False),
        lambda: quad.superlevel(spoiled, (1.0,), 2.0),
    )
    for check in passes:
        with pytest.raises(ValueError, match="must be finite"):
            check()
    for bad in (0.0, math.nan):
        want = f"^levels must hold positive levels, got {bad}$"
        with pytest.raises(ConfigurationError, match=want):
            quad.superlevel(good, (1.0, bad), 2.0)
    with pytest.raises(ValueError, match="power must be positive"):
        quad.superlevel(good, (1.0,), 0.0)
    # finite values whose squares overflow are finite, in a Field and here
    huge = good * 1e200
    with np.errstate(over="ignore"):
        assert l2_norm(Field(grid, huge)) == quad.norms(huge)[0] == math.inf


def test_eigenmode_satisfies_the_discrete_eigen_identity():
    # the oracle is the central 3/5-point stencil, written out here
    for dim, m in ((1, 33), (2, 17)):
        g = Grid(dimension=dim, radius=4.0, points_per_axis=m)
        for mode in (1, 2, 5):
            v = eigenmode(g, mode).values
            mu = eigenmode_rate(g, mode)
            if dim == 1:
                lap = v[:-2] - 2.0 * v[1:-1] + v[2:]
                inner = v[1:-1]
            else:
                lap = v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:] - 4.0 * v[1:-1, 1:-1]
                inner = v[1:-1, 1:-1]
            residual = lap / g.spacing**2 + mu * inner
            assert np.max(np.abs(residual)) < 1e-11 * max(mu, 1.0)


def test_eigenmode_rate_closed_form():
    g = Grid(dimension=1, radius=8.0, points_per_axis=129)
    h = 16.0 / 128.0
    expected = (4.0 / h**2) * math.sin(math.pi * 3 / (2 * 128)) ** 2
    assert eigenmode_rate(g, 3) == pytest.approx(expected, rel=1e-14)
    g2 = Grid(dimension=2, radius=8.0, points_per_axis=129)
    assert eigenmode_rate(g2, 3) == pytest.approx(2.0 * expected, rel=1e-14)


def test_eigenmode_boundary_is_exactly_zero():
    g = Grid(dimension=2, radius=4.0, points_per_axis=17)
    v = eigenmode(g, 2)
    assert np.all(v.values[0, :] == 0.0)
    assert np.all(v.values[-1, :] == 0.0)
    assert np.all(v.values[:, 0] == 0.0)
    assert np.all(v.values[:, -1] == 0.0)


def test_gaussian_bump_peak_and_symmetry():
    g = Grid(dimension=1, radius=8.0, points_per_axis=129)
    f = gaussian_bump(g, amplitude=2.5, width=1.5)
    assert f.values[64] == pytest.approx(2.5, rel=1e-14)
    assert np.allclose(f.values, f.values[::-1], rtol=0.0, atol=0.0)
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


@pytest.mark.parametrize(
    "width, words",
    [(0.0, "must be positive"), (-1.0, "must be positive"), (math.nan, "must be positive"),
     (1e300, "is too large: width^2 overflows")],
)
def test_one_width_rule_serves_the_bump_and_the_forcing(width, words):
    # field.gaussian_width_sq, NaN included: the same refusal from both
    # Gaussians of the problem
    for make in (
        lambda: gaussian_bump(small_grid(), 1.0, width),
        lambda: canonical_forcing(1.0, 0.5, width),
    ):
        with pytest.raises(ConfigurationError) as caught:
            make()
        assert str(caught.value).startswith(f"width {words}")


def test_field_from_function_zeroes_the_boundary():
    g = small_grid()
    f = field_from_function(g, lambda pts: np.ones(len(pts)))
    assert f.values[0] == 0.0 and f.values[-1] == 0.0
    assert np.all(f.values[1:-1] == 1.0)


def _plain_zero_boundary(values):
    """The boundary zeroed by one assignment per edge, as written out before
    ``interior`` held the box's geometry."""
    out = np.array(values, dtype=float)
    if out.ndim == 1:
        out[0] = 0.0
        out[-1] = 0.0
    else:
        out[0, :] = 0.0
        out[-1, :] = 0.0
        out[:, 0] = 0.0
        out[:, -1] = 0.0
    return out


@pytest.mark.parametrize("shape", [(3,), (5,), (129,), (3, 3), (5, 5), (65, 65)])
def test_zero_boundary_has_the_bits_of_the_plain_assignments(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    values[(0,) * len(shape)] = np.nan  # a corner, overwritten
    values[(-1,) * len(shape)] = -np.inf
    values[(1,) * len(shape)] = -0.0  # an interior sign, kept
    for given in (values, values.tolist()):
        want, got = _plain_zero_boundary(given), zero_boundary(given)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_interior_is_the_view_without_the_boundary_layer():
    stack = np.arange(2 * 5 * 5, dtype=float).reshape(2, 5, 5)
    assert interior(stack[0]).tobytes() == stack[0, 1:-1, 1:-1].tobytes()
    assert interior(stack, 1).tobytes() == stack[:, 1:-1, 1:-1].tobytes()
    assert interior(stack[0, 0]).tobytes() == stack[0, 0, 1:-1].tobytes()
    assert interior(stack[:, 0], 1).tobytes() == stack[:, 0, 1:-1].tobytes()
    interior(stack, 1)[...] = -1.0  # a view: writes reach the stack
    assert (stack[:, 1:-1, 1:-1] == -1.0).all() and (stack[:, 0] >= 0.0).all()


def _plain_ring(col):
    """One state's largest |v| next to the boundary, as the solver's leak
    check formed it column by column."""
    if col.ndim == 1:
        return max(abs(float(col[1])), abs(float(col[-2])))
    return max(
        float(np.abs(col[1, :]).max()),
        float(np.abs(col[-2, :]).max()),
        float(np.abs(col[:, 1]).max()),
        float(np.abs(col[:, -2]).max()),
    )


@pytest.mark.parametrize("dimension, m", [(1, 3), (1, 5), (1, 129), (2, 5), (2, 65)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ring_has_the_bits_of_the_per_column_formula(dimension, m, k):
    rng = np.random.default_rng(10 * m + k)
    scales = 10.0 ** -np.arange(k)
    stacks = [
        rng.standard_normal((k,) + (m,) * dimension),
        np.stack([s * zero_boundary(rng.standard_normal((m,) * dimension)) for s in scales]),
    ]
    # the largest |v| of the first column lies next to the boundary, negative
    stacks[1][(0, 1) + (m // 2,) * (dimension - 1)] = -7.0
    for stack in stacks:
        want = np.array([_plain_ring(col) for col in stack])
        got = ring(stack)
        assert got.shape == (k,) and got.tobytes() == want.tobytes()
    assert ring(stacks[1])[0] == 7.0


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 5, 17, 64, 65])
def test_lattice_points_have_the_bits_of_the_meshgrid_stack(dimension, n):
    axis = np.linspace(-3.0, 3.0, n)
    if dimension == 1:
        want = axis[:, None]
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        want = np.stack([xx.ravel(), yy.ravel()], axis=1)
    got = lattice_points(axis, dimension)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if n % 2:  # a grid's axis has an odd count
        points = Grid(dimension, 3.0, n).points
        assert points.tobytes() == want.tobytes() and not points.flags.writeable


def test_tail_norm_hand_oracle():
    g = Grid(dimension=1, radius=2.0, points_per_axis=9)  # h = 0.5
    vals = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    f = Field(g, vals)
    # the sharp indicator keeps |x| >= 1: interior points {-1.5, -1, 1, 1.5}
    expected_l2 = math.sqrt(0.5 * 4.0)
    assert tail_norm(f, 1.0, "l2") == pytest.approx(expected_l2, rel=1e-12)
    with pytest.raises(ValueError):
        tail_norm(f, 10.0, "l2")


def test_tail_norm_full_radius_recovers_the_norm():
    g = Grid(dimension=1, radius=8.0, points_per_axis=129)
    f = gaussian_bump(g, 1.0, 2.0)
    assert tail_norm(f, 0.0, "l2") <= l2_norm(f) + 1e-15
    assert tail_norm(f, 0.0, "h1") <= h1_norm(f) + 1e-15


@pytest.mark.parametrize("dimension, m", [(1, 129), (1, 257), (2, 33)])
def test_tails_have_the_bits_of_the_plain_masked_formula(dimension, m):
    # the oracle is tail_norm's formula before the one pass: the squared
    # values, plus the gradient energy for H1, summed over the mask
    g = Grid(dimension, 6.0, m)
    f = Field(g, gaussian_bump(g, 1.0, 1.5).values + 0.2 * eigenmode(g, 3).values)
    radii = (0.0, 0.5, 1.25, 3.0, 6.0)
    got = Quadrature(g).tails(f.values, radii)
    h = g.cell_volume
    for k, (l2, h1) in zip(radii, got):
        mask = g.radial >= k
        density = f.values**2
        assert l2 == float(np.sqrt(h * np.sum(density[mask])))
        assert h1 == float(np.sqrt(h * np.sum((density + gradient_energy_density(f))[mask])))
        assert (l2, h1) == (tail_norm(f, k, "l2"), tail_norm(f, k, "h1"))
    with pytest.raises(ValueError, match="must not exceed the domain radius"):
        Quadrature(g).tails(f.values, (1.0, 6.5))


@settings(max_examples=20, deadline=None)
@given(
    width=st.floats(min_value=0.5, max_value=3.0),
    k1=st.floats(min_value=0.0, max_value=4.0),
    step=st.floats(min_value=0.1, max_value=4.0),
)
def test_tail_norm_is_nonincreasing_in_radius(width, k1, step):
    g = Grid(dimension=1, radius=8.0, points_per_axis=65)
    f = gaussian_bump(g, 1.0, width)
    for which in ("l2", "h1"):
        assert tail_norm(f, k1 + step, which) <= tail_norm(f, k1, which) + 1e-15


def test_superlevel_measure_integrand_hand_oracle():
    g = small_grid()  # h = 1
    f = Field(g, np.array([0.0, 0.5, 2.0, -3.0, 0.0]))
    # |u| >= 1 picks 2.0 and -3.0; integrand is |u|^q on that set
    q = 4.0
    expected = 1.0 * (2.0**4 + 3.0**4)
    assert superlevel_measure_integrand(f, 1.0, q) == pytest.approx(expected, rel=1e-14)
    assert superlevel_measure_integrand(f, 10.0, q) == 0.0


def test_trajectory_final():
    g = small_grid()
    states = tuple(Field(g, np.array([0.0, float(k), 0.0, 0.0, 0.0])) for k in range(3))
    traj = Trajectory(times=(0.0, 0.5, 1.0), states=states)
    assert traj.final is states[-1]
    assert len(traj.times) == len(traj.states)


def test_a_trajectory_freezes_a_copy_of_the_callers_times():
    # the caller's array stays writeable, and writing into it afterwards
    # leaves the trajectory's times as they were given
    g = small_grid()
    times = np.array([0.0, 0.5])
    traj = Trajectory(times=times, states=(zero_field(g),) * 2)
    assert times.flags.writeable and not traj.times.flags.writeable
    times[:] = 9.0
    assert traj.times.tolist() == [0.0, 0.5]


def test_field_csv_roundtrip():
    g = small_grid()
    f = Field(g, np.array([0.0, 1.0 / 3.0, -2.0 / 7.0, 0.1, 0.0]))
    buf = io.StringIO()
    write_field_csv(f, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",")[-1] == "value"
    parsed = np.array([float(line.split(",")[-1]) for line in lines[1:]])
    # repr-format floats round-trip exactly
    assert np.array_equal(parsed, f.values)


def test_table_csv_writes_each_cell_as_str_and_ends_lines_with_a_bare_newline():
    # a numpy scalar as a float, though its repr names its type under numpy 2
    buf = io.StringIO()
    write_table_csv(["epsilon", "seed", "dist"], [[np.float64(0.1), 3, 1.0 / 3.0]], buf)
    assert buf.getvalue() == "epsilon,seed,dist\n0.1,3,0.3333333333333333\n"
    buf = io.StringIO()
    write_field_csv(Field(small_grid(), np.array([0.0, 0.5, -0.25, 0.1, 0.0])), buf)
    assert buf.getvalue().startswith("x,value\n-2.0,0.0\n-1.0,0.5\n")
    assert "\r" not in buf.getvalue()


def test_trajectory_csv_has_norm_columns():
    g = small_grid()
    states = tuple(
        Field(g, np.array([0.0, 1.0, float(k), 1.0, 0.0])) for k in range(3)
    )
    traj = Trajectory(times=(0.0, 1.0, 2.0), states=states)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, p=4.0)
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "l2" in header and "h1" in header and "l4" in header
    row = lines[1].split(",")
    assert float(row[header.index("l2")]) == l2_norm(states[0])
    assert float(row[header.index("h1")]) == h1_norm(states[0])

"""Grids on a centered box and the box's geometry (a state's interior and
the ring inside its boundary), discrete fields with zero boundary, and the
quadratures and stencils everything downstream is measured with."""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-radius, radius]^dimension, including the boundary.

    dimension and points_per_axis are integers, never a bool or a float,
    and points_per_axis is odd so the origin is a grid point.  A broken
    rule raises a ConfigurationError whose message starts with the field.
    """

    dimension: int
    radius: float
    points_per_axis: int

    def __post_init__(self):
        for name in ("dimension", "points_per_axis"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ConfigurationError(f"radius must be positive, got {self.radius!r}")
        m = self.points_per_axis
        if m < 3 or m % 2 == 0:
            raise ConfigurationError(
                f"points_per_axis must be odd and >= 3, got {m}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @cached_property
    def axis(self) -> np.ndarray:
        # a copy owns its memory, so no writable array sits under the
        # read-only axis and the points built from it
        ax = np.linspace(-self.radius, self.radius, self.points_per_axis).copy()
        ax.setflags(write=False)
        return ax

    @cached_property
    def points(self) -> np.ndarray:
        """All grid coordinates, shape (points_per_axis**dimension, dimension)."""
        pts = lattice_points(self.axis, self.dimension)
        pts.setflags(write=False)
        return pts

    @cached_property
    def radial(self) -> np.ndarray:
        """Euclidean distance from the origin, shaped like a field."""
        r = np.sqrt(radius_sq(self.points)).reshape(self.shape)
        r.setflags(write=False)
        return r

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension


def lattice_points(axis: np.ndarray, dimension: int) -> np.ndarray:
    """Every point of the lattice ``axis``^dimension as a row, shape
    (len(axis)**dimension, dimension), in the order of a C-ordered field's
    values (the last coordinate varying fastest)."""
    mesh = np.meshgrid(*(axis,) * dimension, indexing="ij")
    return np.stack([coordinate.ravel() for coordinate in mesh], axis=1)


def radius_sq(pts: np.ndarray) -> np.ndarray:
    """|x|^2 of each row, coordinate by coordinate: the bits of a sum along
    axis 1, which numpy takes about ten times slower on short rows."""
    return sum(pts.T**2)


def interior(v: np.ndarray, first: int = 0) -> np.ndarray:
    """The view of ``v`` without its boundary layer on each axis from
    ``first`` on: a state's interior, or with ``first=1`` the interior of
    every state of a stack."""
    return v[(slice(None),) * first + (slice(1, -1),) * (v.ndim - first)]


def ring(stack: np.ndarray) -> np.ndarray:
    """For each state of the stack (k, *shape), the largest |v| on the layer
    just inside its boundary: the points at index 1 or -2 on some axis,
    over the whole range of the others.  The box truncates R^N, so this is
    where a run's truncation error shows."""
    axes = tuple(range(1, stack.ndim))
    return np.max([np.abs(stack.take((1, -2), axis=ax)).max(axis=axes) for ax in axes], axis=0)


def _boundary_is_zero(values: np.ndarray) -> bool:
    if values.ndim == 1:
        return values[0] == 0.0 and values[-1] == 0.0
    # the first and last rows, then columns, as two strided views: one
    # reduction each (4.3 against 8.1 us for four at 65x65)
    m = len(values)
    return not values[:: m - 1].any() and not values[:, :: m - 1].any()


def _check_values(grid: Grid, values: np.ndarray, reduce: Callable | None = None) -> float | None:
    """Raise unless ``values`` could be a :class:`Field`'s on ``grid``: of
    its shape, finite and zero on the boundary.  ``reduce``, given, is a
    reduction that any non-finite value makes non-finite, such as the sum
    of squares or the largest |v|; it is taken once the shape holds and
    returned, and each value is looked at only when it is not finite, so
    finiteness costs no pass of its own (finite values whose squares
    overflow pass)."""
    if values.shape != grid.shape:
        raise GridMismatchError(
            f"values shape {values.shape} does not match grid shape {grid.shape}"
        )
    reduced = None if reduce is None else reduce(values)
    if (reduced is None or not math.isfinite(reduced)) and not np.isfinite(values).all():
        raise ValueError("field values must be finite")
    if not _boundary_is_zero(values):
        raise ValueError("field boundary values must be identically zero")
    return reduced


def zero_boundary(values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with the outermost layer forced to exactly zero."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape)
    interior(out)[...] = interior(values)
    return out


@dataclass(frozen=True)
class Field:
    """Grid function with homogeneous (identically zero) boundary values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        _check_values(self.grid, vals)
        vals = vals.copy() if vals.base is not None or vals.flags.writeable else vals
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape))


def field_from_function(grid: Grid, fn) -> Field:
    """Sample ``fn(points) -> values`` on the grid, zeroing the boundary."""
    vals = np.asarray(fn(grid.points), dtype=float).reshape(grid.shape)
    return Field(grid, zero_boundary(vals))


def gaussian_width_sq(width: float) -> float:
    """width^2 under the width rule (positive, with a finite square); a broken
    rule raises a ConfigurationError whose message starts with ``width``."""
    if not width > 0.0:  # NaN too
        raise ConfigurationError("width must be positive")
    try:
        return float(width) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        raise ConfigurationError(f"width is too large: width^2 overflows, got {width!r}") from None


def gaussian(pts: np.ndarray, w2: float) -> np.ndarray:
    """exp(-|x|^2 / w2) at each row of ``pts``."""
    return np.exp(-radius_sq(pts) / w2)


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    w2 = gaussian_width_sq(width)
    return field_from_function(grid, lambda pts: amplitude * gaussian(pts, w2))


def eigenmode(grid: Grid, mode: int = 1) -> Field:
    """Product sine mode of the discrete Dirichlet Laplacian, boundary exact 0."""
    m = grid.points_per_axis
    if not 1 <= mode <= m - 2:
        raise ConfigurationError(f"mode must lie in [1, {m - 2}], got {mode}")
    j = np.arange(m)
    s = np.sin(np.pi * mode * j / (m - 1))
    s[0] = 0.0
    s[-1] = 0.0
    vals = s if grid.dimension == 1 else np.outer(s, s)
    return Field(grid, vals)


def eigenmode_rate(grid: Grid, mode: int = 1) -> float:
    """|eigenvalue| of the discrete Dirichlet Laplacian on :func:`eigenmode`."""
    m = grid.points_per_axis
    h = grid.spacing
    mu = (4.0 / h**2) * np.sin(np.pi * mode / (2.0 * (m - 1))) ** 2
    return float(grid.dimension * mu)


# -- quadratures ------------------------------------------------------------


def check_tail_radii(grid: Grid, radii: Sequence[float]) -> None:
    """The rule on tail radii: none may exceed the box's radius, so each
    ball whose outside a tail measures fits in the box.  A broken rule
    raises a ConfigurationError (a ValueError) whose message starts with
    ``radii``."""
    if max(radii, default=0.0) > grid.radius:
        raise ConfigurationError(
            f"radii must not exceed the domain radius {grid.radius!r}, got {max(radii)!r}"
        )


def check_levels(levels: Sequence[float]) -> None:
    """The rule on superlevel thresholds, each positive; a broken rule raises
    a ConfigurationError whose message starts with ``levels``."""
    for level in levels:
        if not level > 0.0:  # NaN too
            raise ConfigurationError(f"levels must hold positive levels, got {level!r}")


class Quadrature:
    """Every quadrature of state values on one grid, through scratch buffers
    made once per instance; no other code sums state values into one.

    :meth:`squares` gives h^N*sum(v**2), h^N*(sum(v**2) + sum(grad)) and
    h^N*sum(|v|**q) per power q, squaring the values once for both sums and
    building the gradient table in place (:func:`_gradient_energy`);
    :meth:`norms` roots them, :meth:`superlevel` takes |v| once for
    max|v| and every level's superlevel mass, and :meth:`tails` squares the
    values and builds the gradient table once for every radius's L2 and H1
    tail.  Each expression keeps the
    order and grouping of the plain formula, so each value has its bits, and
    the values pass a :class:`Field`'s check (:func:`_check_values`) with
    that sum or maximum as its reduction, so a raw streamed state or a
    difference ``a - b`` skips no check.  It serves the norms and tail
    norms here, :func:`trajectory_row` and
    :func:`superlevel_measure_integrand`;
    ``solver``'s difference history, energy audit and convergence gaps;
    ``cocycle``'s composition residual; ``attractor``'s equilibrium
    increments, sample diameter, Hausdorff distances, tail profile,
    truncation ladder and window witnesses; and ``cli``'s state norms.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        m = grid.points_per_axis
        self._sq = np.empty(grid.shape)
        self._grad = np.empty(grid.shape)
        self._dy = None if grid.dimension == 1 else np.empty((m, m - 1))

    def squares(
        self, values: np.ndarray, h1: bool = True, powers: Sequence[float] = ()
    ) -> tuple[float, float | None, list[float]]:
        """h^N * sum(v**2), h^N * (sum(v**2) + sum(grad)) and, for each q in
        ``powers``, h^N * sum(|v|**q) of ``values``; the second is None when
        ``h1`` is false."""
        sq = self._sq
        sum_sq = _check_values(self.grid, values, lambda v: np.sum(np.multiply(v, v, out=sq)))
        cv = self.grid.cell_volume
        h1_sq = None
        if h1:
            grad = _gradient_energy(values, self.grid.spacing, self._grad, self._dy)
            h1_sq = float(cv * (sum_sq + np.sum(grad)))
        masses = []
        for q in powers:
            np.abs(values, out=sq)
            sq **= q
            masses.append(float(cv * np.sum(sq)))
        return float(cv * sum_sq), h1_sq, masses

    def norms(
        self, values: np.ndarray, h1: bool = True, p: float | None = None
    ) -> tuple[float, float | None, float | None]:
        """(L2, H1, L^p) of ``values``; H1 is None when ``h1`` is false and
        L^p is None without a ``p``."""
        if p is not None and p < 1.0:
            raise ValueError(f"lp_norm needs p >= 1, got {p}")
        l2_sq, h1_sq, masses = self.squares(values, h1, () if p is None else (p,))
        h1_value = None if h1_sq is None else float(np.sqrt(h1_sq))
        return float(np.sqrt(l2_sq)), h1_value, None if p is None else masses[0] ** (1.0 / p)

    def superlevel(
        self, values: np.ndarray, levels: Sequence[float], power: float
    ) -> tuple[float, list[float]]:
        """max |v| of ``values`` and, for each of ``levels``, h^N times the
        sum of |v|**power over the points where |v| >= level (0.0 where
        there are none)."""
        check_levels(levels)
        if power <= 0.0:
            raise ValueError(f"power must be positive, got {power}")
        magnitude = self._sq
        top = _check_values(self.grid, values, lambda v: np.max(np.abs(v, out=magnitude)))
        cv = self.grid.cell_volume
        masses = []
        for level in levels:
            mask = magnitude >= level
            masses.append(float(cv * np.sum(magnitude[mask] ** power)) if mask.any() else 0.0)
        return float(top), masses

    def tails(self, values: np.ndarray, radii: Sequence[float]) -> list[tuple[float, float]]:
        """For each of ``radii``, the L2 and H1 norms of ``values`` over the
        grid points with |x| >= radius, a cell's gradient energy counted
        where its lower corner lies; the values are squared and the gradient
        table built once for every radius."""
        check_tail_radii(self.grid, radii)
        sq = self._sq
        _check_values(self.grid, values, lambda v: np.sum(np.multiply(v, v, out=sq)))
        h1_density = _gradient_energy(values, self.grid.spacing, self._grad, self._dy)
        np.add(sq, h1_density, out=h1_density)
        cv, radial = self.grid.cell_volume, self.grid.radial
        rows = []
        for k in radii:
            mask = radial >= k
            l2_sq, h1_sq = cv * np.sum(sq[mask]), cv * np.sum(h1_density[mask])
            rows.append((float(np.sqrt(l2_sq)), float(np.sqrt(h1_sq))))
        return rows


def l2_norm(f: Field) -> float:
    return Quadrature(f.grid).norms(f.values, h1=False)[0]


def lp_norm(f: Field, p: float) -> float:
    return Quadrature(f.grid).norms(f.values, h1=False, p=p)[2]


def _gradient_energy(
    v: np.ndarray, h: float, out: np.ndarray, dy: np.ndarray | None
) -> np.ndarray:
    """Fill ``out`` with the gradient energy of ``v`` (see
    :func:`gradient_energy_density`) and return it; in 2D ``dy`` is an
    (m, m-1) scratch for the second axis's differences.

    Each difference is divided by h and squared where it is written, so the
    table has the bits of ``g[:-1] += ((v[1:] - v[:-1]) / h) ** 2`` on a
    zeroed g (0 + x is x), and in 2D of the second axis's ``+=`` after it.
    """
    first = out[:-1]
    np.subtract(v[1:], v[:-1], out=first)
    np.divide(first, h, out=first)
    np.multiply(first, first, out=first)
    out[-1] = 0.0
    if v.ndim == 2:
        np.subtract(v[:, 1:], v[:, :-1], out=dy)
        np.divide(dy, h, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(out[:, :-1], dy, out=out[:, :-1])
    return out


def gradient_energy_density(f: Field) -> np.ndarray:
    """|forward difference gradient|^2 attributed to each cell's lower corner.

    Entries on the top edge of each axis (no forward neighbour) are zero.
    """
    m = f.grid.points_per_axis
    dy = None if f.grid.dimension == 1 else np.empty((m, m - 1))
    return _gradient_energy(f.values, f.grid.spacing, np.empty(f.grid.shape), dy)


def h1_norm(f: Field) -> float:
    return Quadrature(f.grid).norms(f.values)[1]


def tail_norm(f: Field, k: float, which: str = "l2") -> float:
    """Norm restricted to grid points with |x| >= k (sharp indicator).

    For the h1 flavour the gradient energy of a cell counts when the cell's
    lower corner lies in the tail region.
    """
    if which not in ("l2", "h1"):
        raise ValueError(f"which must be 'l2' or 'h1', got {which!r}")
    l2, h1 = Quadrature(f.grid).tails(f.values, (k,))[0]
    return l2 if which == "l2" else h1


def superlevel_measure_integrand(f: Field, level: float, power: float) -> float:
    """h^N * sum of |v|^power over points where |v| >= level."""
    return Quadrature(f.grid).superlevel(f.values, (level,), power)[1][0]


# -- trajectories -----------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """States stored along a run, each with its time."""

    times: np.ndarray
    states: tuple[Field, ...]

    def __post_init__(self):
        # a copy of its own: freezing the caller's array would freeze theirs
        times = np.array(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.times) != len(self.states):
            raise ValueError("times and states differ in length")

    @property
    def final(self) -> Field:
        return self.states[-1]


# -- serialization ----------------------------------------------------------


def write_table_csv(header: Sequence[str], rows: Iterable[Sequence], fp: IO[str]) -> None:
    """The header, then one line per row, each cell as ``str`` gives it (a
    float's shortest round-trip form, also for a numpy scalar), and every
    line ended by a bare ``\n``."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(header)
    w.writerows([str(c) for c in row] for row in rows)


def write_field_csv(f: Field, fp: IO[str]) -> None:
    """One row per grid point: its coordinates, then the value."""
    axes = ["x", "value"] if f.grid.dimension == 1 else ["x", "y", "value"]
    points = f.grid.points.tolist()
    write_table_csv(axes, (p + [v] for p, v in zip(points, f.values.ravel().tolist())), fp)


def trajectory_row(t: float, state: Field, p: float | None = None) -> list[float]:
    """One stored state's row of the trajectory CSV: t, l2, h1 and, given
    p, the L^p norm."""
    l2, h1, lp = Quadrature(state.grid).norms(state.values, p=p)
    return [float(t), l2, h1] + ([] if lp is None else [lp])


def write_trajectory_csv(traj: Trajectory, fp: IO[str], p: float | None = None) -> None:
    """One row per stored state of ``traj`` (:func:`trajectory_row`): time,
    l2, h1 and optional lp."""
    rows = (trajectory_row(t, state, p) for t, state in zip(traj.times, traj.states))
    write_table_csv(["t", "l2", "h1"] + ([] if p is None else [f"l{p:g}"]), rows, fp)

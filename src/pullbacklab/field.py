"""Grids on a centered box, discrete fields with zero boundary, and the
quadratures and stencils everything downstream is measured with."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-radius, radius]^dimension, including the boundary.

    points_per_axis must be odd so the origin is a grid point.
    """

    dimension: int
    radius: float
    points_per_axis: int

    def __post_init__(self):
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
        if self.dimension == 1:
            pts = self.axis[:, None]
        else:
            xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def radial(self) -> np.ndarray:
        """Euclidean distance from the origin, shaped like a field."""
        r = np.sqrt((self.points**2).sum(axis=1)).reshape(self.shape)
        r.setflags(write=False)
        return r

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension


def _boundary_is_zero(values: np.ndarray) -> bool:
    if values.ndim == 1:
        return values[0] == 0.0 and values[-1] == 0.0
    return (
        not values[0, :].any()
        and not values[-1, :].any()
        and not values[:, 0].any()
        and not values[:, -1].any()
    )


def zero_boundary(values: np.ndarray) -> np.ndarray:
    """Copy of ``values`` with the outermost layer forced to exactly zero."""
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


@dataclass(frozen=True)
class Field:
    """Grid function with homogeneous (identically zero) boundary values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        if not _boundary_is_zero(vals):
            raise ValueError("field boundary values must be identically zero")
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


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float = 1.0) -> Field:
    if width <= 0.0:
        raise ConfigurationError("width must be positive")
    try:
        w2 = width**2
    except OverflowError:  # a float power raises where a product gives inf
        raise ConfigurationError(f"width is too large: width^2 overflows, got {width!r}") from None
    return field_from_function(grid, lambda pts: amplitude * np.exp(-(pts**2).sum(axis=1) / w2))


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


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.values**2)))


def lp_norm(f: Field, p: float) -> float:
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def gradient_energy_density(f: Field) -> np.ndarray:
    """|forward difference gradient|^2 attributed to each cell's lower corner.

    Entries on the top edge of each axis (no forward neighbour) are zero.
    """
    v = f.values
    h = f.grid.spacing
    g = np.zeros_like(v)
    if v.ndim == 1:
        g[:-1] += ((v[1:] - v[:-1]) / h) ** 2
    else:
        g[:-1, :] += ((v[1:, :] - v[:-1, :]) / h) ** 2
        g[:, :-1] += ((v[:, 1:] - v[:, :-1]) / h) ** 2
    return g


def h1_norm(f: Field) -> float:
    quad = f.grid.cell_volume * (np.sum(f.values**2) + np.sum(gradient_energy_density(f)))
    return float(np.sqrt(quad))


def tail_norm(f: Field, k: float, which: str = "l2") -> float:
    """Norm restricted to grid points with |x| >= k (sharp indicator).

    For the h1 flavour the gradient energy of a cell counts when the cell's
    lower corner lies in the tail region.
    """
    if k > f.grid.radius:
        raise ValueError(
            f"tail radius k={k} exceeds the domain radius {f.grid.radius}"
        )
    mask = f.grid.radial >= k
    density = f.values**2
    if which == "h1":
        density = density + gradient_energy_density(f)
    elif which != "l2":
        raise ValueError(f"which must be 'l2' or 'h1', got {which!r}")
    return float(np.sqrt(f.grid.cell_volume * np.sum(density[mask])))


def superlevel_measure_integrand(f: Field, level: float, power: float) -> float:
    """h^N * sum of |v|^power over points where |v| >= level."""
    if level <= 0.0:
        raise ValueError(f"level must be positive, got {level}")
    if power <= 0.0:
        raise ValueError(f"power must be positive, got {power}")
    mask = np.abs(f.values) >= level
    if not mask.any():
        return 0.0
    return float(f.grid.cell_volume * np.sum(np.abs(f.values[mask]) ** power))


# -- operators --------------------------------------------------------------


def discrete_laplacian(f: Field) -> Field:
    """Central 3/5-point Laplacian with zero Dirichlet data outside the box.

    Output boundary entries are zero: boundary points are not unknowns.
    """
    v = f.values
    h2 = f.grid.spacing**2
    out = np.zeros_like(v)
    if v.ndim == 1:
        out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    else:
        out[1:-1, 1:-1] = (
            v[:-2, 1:-1]
            + v[2:, 1:-1]
            + v[1:-1, :-2]
            + v[1:-1, 2:]
            - 4.0 * v[1:-1, 1:-1]
        ) / h2
    return Field(f.grid, out)


# -- trajectories -----------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """States stored along a run: every stride-th step plus the final one."""

    times: np.ndarray
    states: tuple[Field, ...]
    stride: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.times) != len(self.states):
            raise ValueError("times and states differ in length")

    @property
    def final(self) -> Field:
        return self.states[-1]


# -- serialization ----------------------------------------------------------


def write_field_csv(f: Field, fp: IO[str]) -> None:
    w = csv.writer(fp)
    if f.grid.dimension == 1:
        w.writerow(["x", "value"])
        for x, v in zip(f.grid.points[:, 0], f.values.ravel()):
            w.writerow([repr(float(x)), repr(float(v))])
    else:
        w.writerow(["x", "y", "value"])
        for (x, y), v in zip(f.grid.points, f.values.ravel()):
            w.writerow([repr(float(x)), repr(float(y)), repr(float(v))])


def trajectory_row(t: float, state: Field, p: float | None = None) -> list[float]:
    """One stored state's row of the trajectory CSV: t, l2, h1 and, given
    p, the L^p norm."""
    row = [float(t), l2_norm(state), h1_norm(state)]
    if p is not None:
        row.append(lp_norm(state, p))
    return row


def write_trajectory_csv(
    traj: Trajectory | Iterable[Sequence[float]], fp: IO[str], p: float | None = None
) -> None:
    """One row per stored state: time, l2, h1 and optional lp, each a repr.

    ``traj`` is a :class:`Trajectory`, or the rows :func:`trajectory_row`
    made (with the same p) from a stream of states that nothing kept."""
    if isinstance(traj, Trajectory):
        traj = (trajectory_row(t, state, p) for t, state in zip(traj.times, traj.states))
    w = csv.writer(fp)
    w.writerow(["t", "l2", "h1"] + ([] if p is None else [f"l{p:g}"]))
    w.writerows([repr(c) for c in row] for row in traj)

"""Semi-implicit Euler stepping of the conjugated reaction-diffusion equation.

The state advanced here is the conjugated variable v = z * u, which solves

    dv/dt + lam * v - Laplace v = z(t) f(x, v/z(t)) + z(t) g(t, x)

pathwise for a fixed noise path.  Each step treats the stiff linear part
implicitly and the reaction explicitly, with z frozen at the step's left
endpoint:

    (I + dt (lam - Laplace_h)) v_next = v + dt [z f(x, v/z) + z g(t, x)].

One private kernel, :func:`_march`, takes every such step.  It advances a
C-contiguous stack of shape ``(k, *grid.shape)``: k runs that share the grid,
the problem data (except the noise intensity), dt and the end step, each
column with its own z series, its own start time and its own initial state.
A column joins the stack at its own start step and from then on keeps its
own clock, ``t_start_i + j*dt`` with j counting its own steps, so runs with
different horizons toward one end time share every step they have in common.
Per step the kernel evaluates the reaction once on the flattened stack and
the forcing once, at the admitted columns' times as a ``(k, 1)`` array, then
solves for every column at once: in one dimension with a tridiagonal LU
factored once per march (LAPACK ``dgttrf``) and applied to all k right-hand
sides (``dgttrs``); in two dimensions by conjugate gradients to the
configured residual, once per column, warm started from the current state.
Columns never mix, so a column of a stack equals the same run marched alone,
bit for bit.  :func:`integrate`, :func:`final_state`, :func:`final_states`,
:func:`iterate_states`, :func:`difference_history` and :func:`energy_audit`
are reductions over it.

:func:`integrate_deterministic` marches the original, unconjugated equation
with its own step and a banded solve; it is the independent zero-noise
oracle the kernel is held to.  Everything is deterministic: same inputs,
same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    BoundaryLeakWarning,
    ConfigurationError,
    DivergenceError,
    LinearSolveError,
)
from .field import Field, Grid, Trajectory, field_from_function, l2_norm
from .model import ProblemSpec, forcing_norm_sq
from .noise import _SNAP, Path, refine, z_factor, z_series

_BOUNDARY_TRUST = 1e-8
_ddot = scipy.linalg.blas.ddot


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    linear_solver_tol: float = 1e-10
    store_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if not (self.linear_solver_tol > 0.0):
            raise ConfigurationError(
                f"linear_solver_tol must be positive, got {self.linear_solver_tol!r}"
            )
        if not (isinstance(self.store_stride, int) and self.store_stride >= 1):
            raise ConfigurationError(
                f"store_stride must be a positive integer, got {self.store_stride!r}"
            )


def steps_between(t_start: float, t_end: float, dt: float) -> int:
    """Number of dt steps from t_start to t_end; the duration must sit on
    the dt lattice (within snapping slack), off-lattice requests error."""
    ratio = (t_end - t_start) / dt
    n = int(round(ratio))
    if n < 0 or abs(ratio - n) > _SNAP:
        raise ConfigurationError(
            f"duration {t_end - t_start!r} is not a nonnegative multiple of dt={dt!r}"
        )
    return n


class _Context:
    """Per-march precomputation: grid geometry, implicit solves, data evaluators."""

    def __init__(self, grid: Grid, spec: ProblemSpec, cfg: SolverConfig):
        if grid.dimension != spec.dimension:
            raise ConfigurationError(
                f"grid dimension {grid.dimension} != spec dimension {spec.dimension}"
            )
        self.grid = grid
        self.spec = spec
        self.cfg = cfg
        self.pts = grid.points
        m = grid.points_per_axis
        h2 = grid.spacing**2
        dt = cfg.dt
        n_int = m - 2
        diag = 1.0 + dt * spec.lam + 2.0 * grid.dimension * dt / h2
        off = -dt / h2
        if grid.dimension == 1:
            ab = np.zeros((3, n_int))
            ab[0, 1:] = off
            ab[1, :] = diag
            ab[2, :-1] = off
            self._ab = ab
            bands = ab[2, :-1], ab[1], ab[0, 1:]
            *self._lu, info = scipy.linalg.lapack.dgttrf(*bands)
            if info != 0:
                raise LinearSolveError(f"tridiagonal factorisation failed, info={info}")
        else:
            lap1 = scipy.sparse.diags_array(
                [np.full(n_int - 1, off), np.full(n_int, 0.0), np.full(n_int - 1, off)],
                offsets=[-1, 0, 1],
                format="csr",
            )
            eye = scipy.sparse.eye_array(n_int, format="csr")
            cross = scipy.sparse.kron(eye, lap1) + scipy.sparse.kron(lap1, eye)
            self._A = (diag * scipy.sparse.eye_array(n_int**2, format="csr") + cross).tocsr()

    def solve_implicit(self, rhs_interior: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """One interior solve: banded in 1D, conjugate gradients in 2D."""
        if self.grid.dimension == 1:
            return scipy.linalg.solve_banded((1, 1), self._ab, rhs_interior)
        sol, info = scipy.sparse.linalg.cg(
            self._A,
            rhs_interior.ravel(),
            x0=x0.ravel(),
            rtol=0.0,
            atol=self.cfg.linear_solver_tol,
            maxiter=5000,
        )
        if info != 0:
            raise LinearSolveError(
                f"conjugate gradients stopped with info={info} before reaching "
                f"residual {self.cfg.linear_solver_tol}"
            )
        return sol.reshape(rhs_interior.shape)

    def solve_stack(
        self, rhs_interior: np.ndarray, x0: np.ndarray, out: np.ndarray
    ) -> None:
        """Interior solves for a (k, ...) stack of right-hand sides, into ``out``."""
        if self.grid.dimension == 1:
            # dgttrs takes the k right-hand sides as the columns of (m-2, k)
            sol, _ = scipy.linalg.lapack.dgttrs(*self._lu, rhs_interior.T)
            out[...] = sol.T
        else:
            for r, x, o in zip(rhs_interior, x0, out):
                o[...] = self.solve_implicit(r, x)

    def forcing_values(self, t: float | np.ndarray) -> np.ndarray:
        """g at time t shaped like a field; a ``(k, 1)`` array of times gives
        a ``(k, *grid.shape)`` stack, or one field if g ignores t's shape."""
        g = np.asarray(self.spec.forcing.g(t, self.pts), dtype=float)
        return g.reshape(g.shape[:-1] + self.grid.shape)


def _interior(v: np.ndarray) -> np.ndarray:
    return v[1:-1] if v.ndim == 1 else v[1:-1, 1:-1]


def _march(
    ctx: _Context,
    v0: np.ndarray,
    t_start: float | Sequence[float],
    zs: np.ndarray,
    admit: int | Sequence[int] = 0,
):
    """Advance the stack ``v0`` of shape (k, *grid.shape) to the end of
    len(zs) steps.

    Column i joins the stack at step ``admit[i]`` (nondecreasing from 0)
    and then steps on its own clock ``t_start[i] + j*dt``, j counting its
    own steps; a scalar ``t_start`` or ``admit`` is shared by every column.
    ``zs[j, i]`` is z of column i at the left end of step j.  Yields the
    stack of the columns admitted so far after every step.  Every operation
    acts on each column alone, so a column's bits do not depend on what else
    is in the stack or on when it joined.
    """
    dt = ctx.cfg.dt
    f = ctx.spec.nonlinearity.f
    k = v0.shape[0]
    starts = np.broadcast_to(np.asarray(t_start, dtype=float), (k,))
    admit = np.broadcast_to(np.asarray(admit, dtype=int), (k,))
    # every column's own clock, t_start[i] + (j - admit[i])*dt at step j: the
    # same bits as the sum a run marched alone forms; built in place, so the
    # march holds one table of times next to the table of z
    clocks = np.arange(len(zs), dtype=float)[:, None] - admit
    clocks *= dt
    clocks += starts
    npts = len(ctx.pts)
    pts = np.tile(ctx.pts, (k, 1))
    zshape = (1,) * ctx.grid.dimension
    inner = (slice(None),) + (slice(1, -1),) * ctx.grid.dimension
    a = 0
    v = v0[:0]
    for j, (zrow, trow) in enumerate(zip(zs, clocks)):
        if a < k and admit[a] == j:
            b = int(np.searchsorted(admit, j, side="right"))
            v = np.concatenate([v, v0[a:b]])
            a = b
        z = zrow[:a].reshape((a,) + zshape)
        t = trow[:a, None]
        reaction = np.asarray(f(pts[: a * npts], (v / z).ravel()), dtype=float)
        rhs = v + dt * (z * reaction.reshape(v.shape) + z * ctx.forcing_values(t))
        # an overflowing reaction term must surface as a divergence, not as a
        # deep linear-algebra error from the implicit solve
        bad = _nonfinite_column(rhs)
        if bad is not None:
            raise DivergenceError(float(t[bad, 0]) + dt)
        out = np.zeros_like(v)
        ctx.solve_stack(rhs[inner], v[inner], out[inner])
        bad = _nonfinite_column(out)
        if bad is not None:
            raise DivergenceError(float(starts[bad]) + int(j - admit[bad] + 1) * dt)
        v = out
        yield v


def _advance_plain(v: np.ndarray, t: float, ctx: _Context) -> np.ndarray:
    """Conjugation-free step of du/dt + lam u - Laplace u = f(x,u) + g."""
    dt = ctx.cfg.dt
    fv = np.asarray(
        ctx.spec.nonlinearity.f(ctx.pts, v.ravel()), dtype=float
    ).reshape(v.shape)
    rhs = v + dt * (fv + ctx.forcing_values(t))
    _check_finite(rhs[np.newaxis], t + dt)
    out = np.zeros_like(v)
    sol = ctx.solve_implicit(_interior(rhs), _interior(v))
    if v.ndim == 1:
        out[1:-1] = sol
    else:
        out[1:-1, 1:-1] = sol
    return out


def _nonfinite_column(v: np.ndarray) -> int | None:
    """Index of the first column of the stack ``v`` whose squared norm is
    not finite (an overflowing one included), or None.

    One reduction covers the whole stack; only when it is not finite are the
    columns looked at one by one, so a sum that overflows only across
    columns flags nothing.  The squared norms come from BLAS ``ddot``, which
    numpy's floating-point error state does not watch, so an overflow here
    raises no warning.
    """
    flat = v.ravel()
    if math.isfinite(_ddot(flat, flat)):
        return None
    for i, col in enumerate(v.reshape(len(v), -1)):
        if not math.isfinite(_ddot(col, col)):
            return i
    return None


def _check_finite(v: np.ndarray, t: float) -> None:
    """Raise DivergenceError at time t when a column of the stack ``v`` has
    a non-finite squared norm."""
    if _nonfinite_column(v) is not None:
        raise DivergenceError(t)


def _warn_boundary_leak(v: np.ndarray) -> None:
    """Warn once for every column of the stack ``v`` that leaks."""
    for col in v:
        if col.ndim == 1:
            ring = max(abs(float(col[1])), abs(float(col[-2])))
        else:
            ring = max(
                float(np.abs(col[1, :]).max()),
                float(np.abs(col[-2, :]).max()),
                float(np.abs(col[:, 1]).max()),
                float(np.abs(col[:, -2]).max()),
            )
        if ring > _BOUNDARY_TRUST:
            warnings.warn(
                f"solution magnitude {ring:.3e} adjacent to the artificial boundary "
                f"exceeds {_BOUNDARY_TRUST:.0e}; enlarge the domain radius",
                BoundaryLeakWarning,
                stacklevel=3,
            )


def _validate_window(path: Path, t_start: float, t_end: float) -> None:
    slack = _SNAP * path.dt
    if t_start < path.t_min - slack or t_end > path.t_max + slack:
        from .errors import OutOfWindowError

        raise OutOfWindowError(
            f"run [{t_start}, {t_end}] leaves the path window "
            f"[{path.t_min}, {path.t_max}]"
        )


def _setup(
    grid: Grid,
    t_start: float,
    t_end: float,
    paths: Sequence[Path],
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> tuple[int, _Context]:
    """Step count and context of a march, after checking every path window."""
    n = steps_between(t_start, t_end, cfg.dt)
    for path in paths:
        _validate_window(path, t_start, t_end)
    return n, _Context(grid, spec, cfg)


def _z_table(
    paths: Sequence[Path],
    epsilons: Sequence[float],
    t_start: float | Sequence[float],
    n: int | Sequence[int],
    dt: float,
) -> np.ndarray:
    """z per step (rows) and column (columns), shape (max n, k).

    Column i runs ``n[i]`` steps from ``t_start[i]`` and fills the last
    ``n[i]`` rows, so every column ends on the last row; the rows before it
    joins hold NaN.  A scalar ``t_start`` or ``n`` is shared by every column.
    """
    k = len(paths)
    starts = np.broadcast_to(np.asarray(t_start, dtype=float), (k,))
    counts = np.broadcast_to(np.asarray(n, dtype=int), (k,))
    total = int(counts.max()) if k else 0
    zs = np.full((total, k), np.nan)
    for i, (path, eps, t0, n_i) in enumerate(zip(paths, epsilons, starts, counts)):
        zs[total - n_i :, i] = z_series(path, eps, float(t0), int(n_i), dt)
    return zs


def step(v: Field, t: float, path: Path, spec: ProblemSpec, cfg: SolverConfig) -> Field:
    """One semi-implicit step from time t to t + dt."""
    ctx = _Context(v.grid, spec, cfg)
    zs = np.array([[z_factor(path, spec.epsilon, t)]])
    out = next(_march(ctx, v.values[np.newaxis], t, zs))
    return Field(v.grid, out[0])


def integrate(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> Trajectory:
    """March the conjugated state from t_start to t_end along the path.

    The duration must be a lattice multiple of cfg.dt and the path window
    must cover [t_start, t_end].  Stores every store_stride-th state plus
    the final one; stored time stamps are exact multiples of dt from
    t_start.
    """
    n, ctx = _setup(v0.grid, t_start, t_end, (path,), spec, cfg)
    v = v0.values[np.newaxis]
    times = [t_start]
    states = [v0]
    if n:
        zs = _z_table((path,), (spec.epsilon,), t_start, n, cfg.dt)
        for j, v in enumerate(_march(ctx, v, t_start, zs)):
            if (j + 1) % cfg.store_stride == 0 or j + 1 == n:
                times.append(t_start + (j + 1) * cfg.dt)
                states.append(Field(v0.grid, v[0]))
    _warn_boundary_leak(v)
    return Trajectory(times=np.array(times), states=tuple(states), stride=cfg.store_stride)


def integrate_deterministic(
    u0: Field, t_start: float, t_end: float, spec: ProblemSpec, cfg: SolverConfig
) -> Trajectory:
    """Noise-free march of the original equation (no conjugation anywhere).

    This is the zero-intensity reference: with eps = 0 the conjugated
    stepper must reproduce it bit for bit.  It keeps its own step and the
    banded solve so that the comparison is with independent code.
    """
    n = steps_between(t_start, t_end, cfg.dt)
    ctx = _Context(u0.grid, spec, cfg)
    v = u0.values
    times = [t_start]
    states = [u0]
    for k in range(n):
        v = _advance_plain(v, t_start + k * cfg.dt, ctx)
        _check_finite(v[np.newaxis], t_start + (k + 1) * cfg.dt)
        if (k + 1) % cfg.store_stride == 0 or k + 1 == n:
            times.append(t_start + (k + 1) * cfg.dt)
            states.append(Field(u0.grid, v))
    _warn_boundary_leak(v[np.newaxis])
    return Trajectory(times=np.array(times), states=tuple(states), stride=cfg.store_stride)


def final_states(
    v0s: Sequence[Field],
    t_starts: Sequence[float],
    t_end: float,
    paths: Sequence[Path],
    epsilons: Sequence[float],
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> tuple[Field, ...]:
    """Endpoints of one march per column, advanced together as one stack.

    Column i starts from ``v0s[i]`` at ``t_starts[i]`` and is driven along
    ``paths[i]`` at intensity ``epsilons[i]`` up to the shared ``t_end``;
    everything else is shared, and ``spec``'s own epsilon is ignored.  The
    columns are admitted longest first, each at the step where its own run
    begins, and a column with nothing to march comes back as given.  Each
    endpoint equals :func:`final_state` of that column alone, bit for bit.
    A divergence raises at the own time of the first column to diverge,
    counted in steps of the stack (columns that diverge on the same step
    are taken longest first).
    """
    if not v0s or not len(v0s) == len(t_starts) == len(paths) == len(epsilons):
        raise ConfigurationError(
            "need one start time, one path and one intensity per initial state, "
            "and at least one state"
        )
    grid = v0s[0].grid
    if any(v.grid != grid for v in v0s[1:]):
        raise ConfigurationError("all initial states must live on one grid")
    counts = [steps_between(t0, t_end, cfg.dt) for t0 in t_starts]
    for path, t0 in zip(paths, t_starts):
        _validate_window(path, t0, t_end)
    ctx = _Context(grid, spec, cfg)
    # longest march first, so the admitted columns are always a prefix
    order = sorted((i for i, n in enumerate(counts) if n), key=lambda i: -counts[i])
    if not order:
        return tuple(v0s)
    starts = [t_starts[i] for i in order]
    steps = [counts[i] for i in order]
    zs = _z_table(
        [paths[i] for i in order], [epsilons[i] for i in order], starts, steps, cfg.dt
    )
    stack = np.stack([v0s[i].values for i in order])
    for v in _march(ctx, stack, starts, zs, [steps[0] - n for n in steps]):
        pass
    _warn_boundary_leak(v)
    ends = list(v0s)
    for i, col in zip(order, v):
        ends[i] = Field(grid, col)
    return tuple(ends)


def final_state(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> Field:
    """Endpoint of :func:`integrate` without storing the trajectory.

    Same step sequence, same bits, constant memory; the one-column case of
    :func:`final_states`.
    """
    return final_states((v0,), (t_start,), t_end, (path,), (spec.epsilon,), spec, cfg)[0]


def iterate_states(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
):
    """Yield (time, state) after every step, without storing the run.

    The first yield is (t_start, v0) itself; the step sequence is the same
    one :func:`integrate` and :func:`final_state` walk, bit for bit.  Useful
    for streaming reductions over long runs at constant memory.
    """
    n, ctx = _setup(v0.grid, t_start, t_end, (path,), spec, cfg)
    yield t_start, v0
    if n == 0:
        return
    zs = _z_table((path,), (spec.epsilon,), t_start, n, cfg.dt)
    for j, v in enumerate(_march(ctx, v0.values[np.newaxis], t_start, zs)):
        yield t_start + (j + 1) * cfg.dt, Field(v0.grid, v[0])


def difference_history(
    v0_a: Field,
    v0_b: Field,
    t_start: float,
    t_end: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
    sample_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Run two solutions in lockstep along one path; record ||difference||^2.

    Returns (times, squared L2 norms of a - b), sampled every
    ``sample_stride`` steps plus the endpoint.  This is the raw material for
    contraction-rate fits.
    """
    if v0_a.grid != v0_b.grid:
        raise ConfigurationError("both initial states must live on one grid")
    n, ctx = _setup(v0_a.grid, t_start, t_end, (path,), spec, cfg)
    vol = v0_a.grid.cell_volume
    times = [t_start]
    norms = [vol * float(np.sum((v0_a.values - v0_b.values) ** 2))]
    if n:
        z = z_series(path, spec.epsilon, t_start, n, cfg.dt)
        stack = np.stack([v0_a.values, v0_b.values])
        for j, v in enumerate(_march(ctx, stack, t_start, np.stack([z, z], axis=1))):
            if (j + 1) % sample_stride == 0 or j + 1 == n:
                times.append(t_start + (j + 1) * cfg.dt)
                norms.append(vol * float(np.sum((v[0] - v[1]) ** 2)))
    return np.array(times), np.array(norms)


# -- scheme verification ----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Successive-refinement differences and the orders they witness."""

    parameters: tuple[float, ...]
    differences: tuple[float, ...]
    ratios: tuple[float, ...]
    orders: tuple[float, ...]


def self_convergence(
    v0: Field,
    horizon: float,
    path: Path,
    spec: ProblemSpec,
    dt_ladder: list[float],
    linear_solver_tol: float = 1e-10,
) -> ConvergenceReport:
    """Temporal self-convergence along a halving dt ladder on one path.

    The path is bridge-refined to the finest rung so every run sees the same
    noise; successive endpoint differences then witness the stepping order
    (ratio 2 per halving for a first-order scheme).
    """
    if len(dt_ladder) < 3:
        raise ConfigurationError("need at least three dt rungs to form a ratio")
    for a, b in zip(dt_ladder, dt_ladder[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigurationError("dt ladder must halve at each rung")
    finest = dt_ladder[-1]
    while path.dt > finest * (1.0 + 1e-9):
        path = refine(path)
    finals = []
    for dt in dt_ladder:
        cfg = SolverConfig(dt=dt, linear_solver_tol=linear_solver_tol, store_stride=10**9)
        finals.append(final_state(v0, 0.0, horizon, path, spec, cfg))
    diffs = [
        l2_norm(Field(v0.grid, a.values - b.values))
        for a, b in zip(finals, finals[1:])
    ]
    ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
    orders = [float(np.log2(r)) for r in ratios]
    return ConvergenceReport(
        parameters=tuple(dt_ladder),
        differences=tuple(diffs),
        ratios=tuple(ratios),
        orders=tuple(orders),
    )


def spatial_convergence(
    profile_fn,
    horizon: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
    m_ladder: list[int],
) -> ConvergenceReport:
    """Spatial self-convergence on nested grids (m, 2m-1, 4m-3, ...).

    The initial profile is resampled analytically per grid; finer endpoints
    are restricted to the coarsest grid by index, so differences compare
    values at identical coordinates (ratio 4 per halving for a second-order
    stencil).
    """
    if len(m_ladder) < 3:
        raise ConfigurationError("need at least three grid rungs to form a ratio")
    for a, b in zip(m_ladder, m_ladder[1:]):
        if b != 2 * a - 1:
            raise ConfigurationError(
                f"grid ladder must nest (next = 2*m - 1), got {a} -> {b}"
            )
    coarse = Grid(spec.dimension, spec.domain_radius, m_ladder[0])
    restricted = []
    for i, m in enumerate(m_ladder):
        grid = Grid(spec.dimension, spec.domain_radius, m)
        v0 = field_from_function(grid, profile_fn)
        end = final_state(v0, 0.0, horizon, path, spec, cfg)
        stride = 2**i
        vals = (
            end.values[::stride]
            if spec.dimension == 1
            else end.values[::stride, ::stride]
        )
        restricted.append(vals)
    diffs = [
        l2_norm(Field(coarse, a - b)) for a, b in zip(restricted, restricted[1:])
    ]
    ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
    orders = [float(np.log2(r)) for r in ratios]
    return ConvergenceReport(
        parameters=tuple(float(m) for m in m_ladder),
        differences=tuple(diffs),
        ratios=tuple(ratios),
        orders=tuple(orders),
    )


# -- energy audit ------------------------------------------------------------


@dataclass(frozen=True)
class EnergyAudit:
    """Per-step slack of the discrete dissipation inequality.

    Each step of the canonical estimate must satisfy

        ||v+||^2 - ||v||^2 + dt*lam*||v+||^2
            <= c * dt * z(t)^2 * (||g(t)||^2 + psi1_mass) + slack,

    with c = 2*max(1, 1/lam) and slack of size O(dt^2) from the explicit
    reaction pairing.  ``violations`` holds the left side minus the right
    side per step; anything above the O(dt^2) allowance signals a broken
    scheme or data outside the certified structure conditions.
    """

    violations: np.ndarray
    max_violation: float
    constant: float
    psi1_mass: float


def energy_audit(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> EnergyAudit:
    n, ctx = _setup(v0.grid, t_start, t_end, (path,), spec, cfg)
    vol = v0.grid.cell_volume
    psi1_mass = float(vol * np.sum(spec.nonlinearity.psi1(v0.grid.points)))
    c = 2.0 * max(1.0, 1.0 / spec.lam)
    norm_sq = vol * float(np.sum(v0.values**2))
    out = np.empty(n)
    if n:
        zs = _z_table((path,), (spec.epsilon,), t_start, n, cfg.dt)
        for j, v in enumerate(_march(ctx, v0.values[np.newaxis], t_start, zs)):
            t = t_start + j * cfg.dt
            z = float(zs[j, 0])
            next_sq = vol * float(np.sum(v[0] ** 2))
            allowance = c * cfg.dt * z**2 * (
                forcing_norm_sq(spec.forcing, v0.grid, t) + psi1_mass
            )
            out[j] = next_sq - norm_sq + cfg.dt * spec.lam * next_sq - allowance
            norm_sq = next_sq
    return EnergyAudit(
        violations=out,
        max_violation=float(out.max()) if n else 0.0,
        constant=c,
        psi1_mass=psi1_mass,
    )

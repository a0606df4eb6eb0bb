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
Per step the kernel evaluates the reaction once on the flattened stack, adds
the step's row of z*g, then solves for every column at once, directly and
exactly up to rounding: in one dimension with the inverse of the
tridiagonal, formed once per march and applied to the stack as one
matrix-vector product per column; in two dimensions by fast
diagonalisation, the orthonormal DST-I matrix applied on both sides of the
whole stack as dense matrix products.  The forcing is not called per step:
z*g is formed for a block of coming steps from one call of g on the block's
clocks.  A step allocates no array of its own; the march writes into two
ping-pong state buffers and one buffer each for the right-hand side and
v/z, so a stack it yields is valid only until the next step.  Columns never
mix, so a column of a stack equals the same run marched alone, bit for bit.
:func:`integrate`, :func:`final_state`, :func:`final_states`,
:func:`iterate_states`, :func:`difference_history` and :func:`energy_audit`
are reductions over it.  :func:`final_states`, which keeps only the
endpoints, splits a large 1D stack into contiguous chunks of columns and
marches all but the first in forked children, one per CPU; since columns
never mix, the split changes no bit.

:func:`integrate_deterministic` marches the original, unconjugated equation
with its own step and a one-column solve (the same inverse in 1D, the same
fast diagonalisation in 2D); it is the independent zero-noise oracle the
kernel is held to.  Everything is deterministic: same inputs, same bits.
Only numpy is needed at run time.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import (
    BoundaryLeakWarning,
    ConfigurationError,
    DivergenceError,
    WorkerError,
)
from .field import Field, Grid, Trajectory, field_from_function, l2_norm
from .model import _FORCING_BLOCK, ProblemSpec, forcing_norms_sq
from .noise import _SNAP, Path, refine, z_factor, z_series

_BOUNDARY_TRUST = 1e-8
# A 1D endpoint march smaller than this many point-steps (state-steps times
# grid points) stays in-process.  A fork round trip (fork, pickle 10 endpoints
# back, reap) took 3.0-10.5 ms over 200 trips, median 3.4 ms, in a numpy
# process with 128 MB resident on a shared 2-core Xeon host, where a 1D
# point-step at m=129 costs about 30 ns.  At the floor a march takes about
# 31 ms, and the half that a second worker takes over saves more than the
# slowest trip.
_SPLIT_FLOOR = 1 << 20


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    store_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
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
    """Per-march precomputation: grid geometry, implicit solves, data evaluators.

    Both interior solves are direct.  In 1D the constant tridiagonal is
    inverted once (:func:`_tridiagonal_inverse`); its inverse has positive
    entries and row sums at most 1/(1 + dt*lam), and a solve is one
    matrix-vector product per right-hand side.  In 2D the operator is the
    Kronecker sum of two identical tridiagonals, diagonalised by the
    orthonormal DST-I matrix Q (symmetric, its own inverse): a solve is
    ``Q ((Q R Q) * inv) Q`` with ``inv`` the reciprocal eigenvalues, four
    dense matrix products per right-hand side (fast diagonalisation; Lynch,
    Rice & Thomas 1964).  Both solves are contractions: a right-hand side
    whose squared norm is finite gives a solution whose squared norm is.
    """

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
        if grid.dimension == 1:
            diag = 1.0 + dt * spec.lam + 2.0 * dt / h2
            off = -dt / h2
            self._ainv = _tridiagonal_inverse(diag, off, m - 2)
        else:
            idx = np.arange(1, m - 1)
            self._q = math.sqrt(2.0 / (m - 1)) * np.sin(np.pi * np.outer(idx, idx) / (m - 1))
            mu = (dt / h2) * (2.0 - 2.0 * np.cos(np.pi * idx / (m - 1)))
            self._inv = 1.0 / ((1.0 + dt * spec.lam) + mu[:, None] + mu[None, :])

    def solve_implicit(self, rhs_interior: np.ndarray) -> np.ndarray:
        """One interior solve: the inverse's matrix-vector product in 1D,
        fast diagonalisation in 2D."""
        if self.grid.dimension == 1:
            return self._ainv @ rhs_interior
        return self._diagonalised(rhs_interior)

    def solve_stack(self, rhs_interior: np.ndarray, out: np.ndarray) -> None:
        """Interior solves for a (k, ...) stack of right-hand sides, into
        ``out``; each column gets the bits :meth:`solve_implicit` gives it."""
        if self.grid.dimension == 1:
            # a stack of (m-2, 1) columns makes matmul take one matrix-vector
            # product per column, as for one column alone; a (k, m-2) x
            # (m-2, m-2) matrix product would let the columns' bits depend on k
            np.matmul(self._ainv, rhs_interior[:, :, None], out=out[:, :, None])
        else:
            out[...] = self._diagonalised(rhs_interior)

    def _diagonalised(self, rhs: np.ndarray) -> np.ndarray:
        """The 2D solve of one interior field or of a stack of them; matmul
        takes a stack one field at a time, so the bits do not depend on k."""
        q = self._q
        return q @ ((q @ rhs @ q) * self._inv) @ q

    def forcing_values(self, t: float | np.ndarray) -> np.ndarray:
        """g at time t shaped like a field.  An array of times gives one
        field per time, stacked in t's shape, from one call of g on the
        times as a ``(t.size, 1)`` array; a g that ignores t's shape gives
        one field."""
        shape = np.shape(t)
        if shape:
            t = np.reshape(t, (-1, 1))
        g = np.asarray(self.spec.forcing.g(t, self.pts), dtype=float)
        return g.reshape((shape if g.ndim > 1 else ()) + self.grid.shape)


def _tridiagonal_inverse(diag: float, off: float, n: int) -> np.ndarray:
    """Inverse of the n x n tridiagonal with ``diag`` on the diagonal and
    ``off`` on both neighbouring diagonals, for diag > 2*|off| and off < 0.

    Gaussian elimination without pivoting (the matrix is strictly diagonally
    dominant), run on all n columns of the identity at once.  With
    diag > 0 > off every update adds terms of one sign, so no entry suffers
    cancellation and none comes out negative.  Plain numpy row operations, not
    ``np.linalg.inv``: at n = 127, on a shared 2-core Xeon host with two
    OpenBLAS threads, LAPACK's threaded factorisation took 0.7 to 128 ms per
    call (over 85 ms in 6 of 11 calls), against 0.5 ms here.
    """
    u = [diag]  # the diagonal of U in A = LU
    for _ in range(n - 1):
        u.append(diag - off * off / u[-1])
    x = np.eye(n)
    for i in range(1, n):
        x[i] -= (off / u[i - 1]) * x[i - 1]
    x[-1] /= u[-1]
    for i in range(n - 2, -1, -1):
        x[i] -= off * x[i + 1]
        x[i] /= u[i]
    return x


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
    ``zs[j, i]`` is z of column i at the left end of step j.  Only the
    interior of ``v0`` is read: every state the march makes has a zero
    boundary.  Yields the stack of the columns admitted so far after every
    step.  Every operation acts on each column alone, so a column's bits do
    not depend on what else is in the stack or on when it joined.

    A step allocates no array of its own (the reaction and the 2D solve's
    matrix products make their temporaries).  The march keeps two
    ping-pong state buffers of the stack's shape, whose boundaries stay
    zero, one right-hand-side buffer and one for v/z, and takes new views
    of the admitted prefix only when a column joins.  The forcing is not
    called per step: z*g is formed for a block of coming steps, with one
    call of g on the block's clocks as a ``(steps * columns, 1)`` array of
    at most about ``_FORCING_BLOCK`` values, and each step adds its own
    row.  A block ends where the next column joins.  A yielded stack is a
    view of a buffer that later steps overwrite: it is valid only until the
    next step, so a caller that keeps a state copies it (a :class:`Field`
    does).
    """
    dt = ctx.cfg.dt
    f = ctx.spec.nonlinearity.f
    n = len(zs)
    k = v0.shape[0]
    starts = np.broadcast_to(np.asarray(t_start, dtype=float), (k,))
    admit = np.broadcast_to(np.asarray(admit, dtype=int), (k,))
    # every column's own clock, t_start[i] + (j - admit[i])*dt at step j: the
    # same bits as the sum a run marched alone forms; built in place, so the
    # march holds one table of times next to the table of z
    clocks = np.arange(n, dtype=float)[:, None] - admit
    clocks *= dt
    clocks += starts
    npts = len(ctx.pts)
    pts = np.tile(ctx.pts, (k, 1))
    zcol = zs.reshape(zs.shape + (1,) * ctx.grid.dimension)
    inner = (slice(None),) + (slice(1, -1),) * ctx.grid.dimension
    # step j reads the state from buffer j % 2 and writes the next one into
    # the other; only interiors are ever written, so boundaries stay zero
    bufs = (np.zeros(v0.shape), np.zeros(v0.shape))
    rhs_buf = np.empty(v0.shape)
    vz_buf = np.empty(v0.shape)
    zg_buf = np.empty(min(max(_FORCING_BLOCK, k * npts), n * k * npts))
    a = 0
    block_end = 0
    for j in range(n):
        if a < k and admit[a] == j:
            b = int(np.searchsorted(admit, j, side="right"))
            bufs[j % 2][a:b][inner] = v0[a:b][inner]
            a = b
            views = [(buf[:a], buf[:a][inner]) for buf in bufs]
            rhs, vz = rhs_buf[:a], vz_buf[:a]
            rhs_in, vz_flat, pts_a = rhs[inner], vz.ravel(), pts[: a * npts]
            block_end = j
        if j == block_end:
            # z*g for the steps up to the next admission, at most a block
            block_start = j
            steps = max(1, _FORCING_BLOCK // (a * npts))
            block_end = min(n, j + steps, int(admit[a]) if a < k else n)
            zg = zg_buf[: (block_end - j) * a * npts].reshape((-1,) + rhs.shape)
            g = ctx.forcing_values(clocks[j:block_end, :a])
            np.multiply(zcol[j:block_end, :a], g, out=zg)
        v = views[j % 2][0]
        v_next, v_next_in = views[1 - j % 2]
        z = zcol[j, :a]
        # v + dt*(z*reaction + z*g), formed in place in that order so the
        # bits are those of the expression
        np.divide(v, z, out=vz)
        reaction = np.asarray(f(pts_a, vz_flat), dtype=float)
        np.multiply(z, reaction.reshape(v.shape), out=rhs)
        rhs += zg[j - block_start]
        rhs *= dt
        rhs += v
        # an overflowing reaction term must surface as a divergence; the
        # solve is a contraction, so its result needs no check of its own
        bad = _nonfinite_column(rhs)
        if bad is not None:
            raise DivergenceError(float(clocks[j, bad]) + dt)
        ctx.solve_stack(rhs_in, v_next_in)
        yield v_next


def _advance_plain(v: np.ndarray, t: float, ctx: _Context) -> np.ndarray:
    """Conjugation-free step of du/dt + lam u - Laplace u = f(x,u) + g."""
    dt = ctx.cfg.dt
    fv = np.asarray(
        ctx.spec.nonlinearity.f(ctx.pts, v.ravel()), dtype=float
    ).reshape(v.shape)
    rhs = v + dt * (fv + ctx.forcing_values(t))
    _check_finite(rhs[np.newaxis], t + dt)
    out = np.zeros_like(v)
    sol = ctx.solve_implicit(_interior(rhs))
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
    columns flags nothing.  The squared norms come from ``np.vdot``, which
    numpy's floating-point error state does not watch, so an overflow here
    raises no warning (``np.dot`` and ``@`` would).
    """
    flat = v.ravel()
    if math.isfinite(np.vdot(flat, flat)):
        return None
    for i, col in enumerate(v.reshape(len(v), -1)):
        if not math.isfinite(np.vdot(col, col)):
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
    one-column solve so that the comparison is with independent code.
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


# -- an endpoint march split across processes ---------------------------------


def worker_count() -> int:
    """How many processes an endpoint march may split across: the CPUs this
    process may run on, or 1 where it cannot fork or runs a second Python
    thread (a thread could hold a lock at the fork that the child then
    needs)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cut(steps: Sequence[int], width: int) -> list[tuple[int, int]]:
    """Bounds of ``width`` contiguous chunks of the longest-first ``steps``
    that make the largest chunk cost least.  A chunk costs its stack-steps
    (its first, longest count: the march's per-step work) plus its
    state-steps (the sum of its counts: the per-column work)."""
    below = [0, *itertools.accumulate(steps)]

    def cost(a: int, b: int) -> int:
        return steps[a] + below[b] - below[a]

    # best[b]: the least largest cost, and its bounds, of steps[:b] in c chunks
    best = {b: (cost(0, b), [(0, b)]) for b in range(1, len(steps) + 1)}
    for c in range(2, width + 1):
        best = {
            b: min(
                (max(best[a][0], cost(a, b)), best[a][1] + [(a, b)])
                for a in range(c - 1, b)
            )
            for b in range(c, len(steps) + 1)
        }
    return best[len(steps)][1]


def _march_chunk(
    ctx: _Context,
    stack: np.ndarray,
    starts: Sequence[float],
    zs: np.ndarray,
    admit: np.ndarray,
    a: int,
    b: int,
) -> tuple[np.ndarray | None, tuple | None]:
    """March columns ``a:b`` of a longest-first staggered stack on their own,
    as a stack whose admissions count from its first column's.

    Returns ``(endpoints, None)``, or ``(None, (step, a, exception))`` where
    the march failed: ``step`` is the failing step counted in the whole
    stack's steps, and ``a`` the chunk's first place in the stack.
    """
    first = int(admit[a])
    j = -1
    try:
        for j, v in enumerate(
            _march(ctx, stack[a:b], starts[a:b], zs[first:, a:b], admit[a:b] - first)
        ):
            pass
    except Exception as exc:
        return None, (first + j + 1, a, exc)
    return v, None


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12 and later warn when a process with several OS threads
        # forks.  Those threads are OpenBLAS's workers, which OpenBLAS's own
        # fork handler stops around the fork; a fork never happens with a
        # second Python thread alive (worker_count).  Untested on 3.12.
        warnings.filterwarnings(
            "ignore",
            r"This process .* is multi-threaded, use of fork\(\)",
            DeprecationWarning,
        )
        return os.fork()


def _answer_and_exit(fd: int, march: Callable[[], tuple]) -> NoReturn:
    """The forked child's whole life: run ``march``, send its answer down
    the pipe ``fd`` as one pickle, and leave without running any of the
    parent's clean-up.  The answer carries the warnings the march raised."""
    status = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            ends, failure = march()
        raised = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        answer = pickle.dumps((ends, failure, raised), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(answer)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int) -> None:
    """Kill the child ``pid`` unless it has ended, and reap it."""
    import signal

    try:
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass  # reaped already


def _answer(pid: int, fd: int):
    """Read the child ``pid``'s answer from the pipe ``fd`` and reap it."""
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and data:
        return pickle.loads(data)
    if code < 0:
        import signal

        ended = f"was killed by {signal.Signals(-code).name}"
    else:
        ended = f"exited with status {code}"
    raise WorkerError(f"march worker {pid} {ended} without an answer")


def _march_split(
    ctx: _Context,
    stack: np.ndarray,
    starts: Sequence[float],
    zs: np.ndarray,
    admit: np.ndarray,
    bounds: Sequence[tuple[int, int]],
) -> np.ndarray:
    """The endpoints of the longest-first staggered stack, marched in the
    chunks ``bounds``: the first in this process, each other one in a
    forked child that pipes its answer back.

    Columns never mix, so every endpoint has the bits of the unsplit march.
    The children's warnings are raised again here once all answers are in,
    with no once-per-place registry: a warning the in-process march would
    show once per place is shown once per split march.
    If a chunk failed, the failure at the earliest step of the whole stack
    is raised (the first chunk's on a tie), as the unsplit march would.
    Every child is killed and reaped before this returns or raises.
    """
    children = {}  # pid: read end of its pipe, for every child not yet reaped
    try:
        for a, b in bounds[1:]:
            read, write = os.pipe()
            try:
                pid = _fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _answer_and_exit(
                    write, lambda: _march_chunk(ctx, stack, starts, zs, admit, a, b)
                )
            os.close(write)
            children[pid] = read
        ends, failure = _march_chunk(ctx, stack, starts, zs, admit, *bounds[0])
        parts, failures, raised = [ends], [failure], []
        for pid in list(children):
            ends, failure, caught = _answer(pid, children[pid])
            os.close(children.pop(pid))
            parts.append(ends)
            failures.append(failure)
            raised.extend(caught)
    finally:
        for pid, fd in children.items():
            os.close(fd)
            _reap(pid)
    for message, category, filename, lineno in raised:
        warnings.warn_explicit(message, category, filename, lineno)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return np.concatenate(parts)


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

    A large 1D stack is split across processes.  When :func:`worker_count`
    and the number of columns both reach two or more, and the stack holds
    at least ``_SPLIT_FLOOR`` point-steps (state-steps times grid points),
    the longest-first columns are cut into one contiguous chunk per worker,
    chosen so that the largest chunk's stack-steps plus state-steps is
    least.  This process marches the first chunk; every other chunk is
    marched in a forked child that pipes its endpoints back as a pickle.
    Otherwise, as in 2D, without ``os.fork``, or with a second Python
    thread alive, the whole stack is marched here.  Either way the endpoints, the
    divergence time and the boundary-leak warnings are the same.  A child's
    warnings are raised again here, its exception is raised here, and a
    child that ends without an answer raises :class:`WorkerError`.
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
    admit = np.array([steps[0] - n for n in steps])
    width = min(worker_count(), len(order))
    # 2D stays here: its solve is a dense matrix product, which OpenBLAS
    # runs on every CPU already, and two processes doing so oversubscribe
    # them (a split stack of 8 columns on 65x65 took 3x as long)
    if width > 1 and ctx.grid.dimension == 1 and sum(steps) * len(ctx.pts) >= _SPLIT_FLOOR:
        v = _march_split(ctx, stack, starts, zs, admit, _cut(steps, width))
    else:
        for v in _march(ctx, stack, starts, zs, admit):
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
        cfg = SolverConfig(dt=dt, store_stride=10**9)
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
        g_sq = forcing_norms_sq(spec.forcing, v0.grid, t_start + np.arange(n) * cfg.dt)
        for j, v in enumerate(_march(ctx, v0.values[np.newaxis], t_start, zs)):
            z = float(zs[j, 0])
            next_sq = vol * float(np.sum(v[0] ** 2))
            allowance = c * cfg.dt * z**2 * (float(g_sq[j]) + psi1_mass)
            out[j] = next_sq - norm_sq + cfg.dt * spec.lam * next_sq - allowance
            norm_sq = next_sq
    return EnergyAudit(
        violations=out,
        max_violation=float(out.max()) if n else 0.0,
        constant=c,
        psi1_mass=psi1_mass,
    )

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
column with its own noise path and intensity, its own start time and its own
initial state.
A column joins the stack at its own start step and from then on keeps its
own clock, ``t_start_i + j*dt`` with j counting its own steps, so runs with
different horizons toward one end time share every step they have in common.
Per step the kernel forms the reaction term z*f(v/z) once on the flattened
stack, adds the step's row of z*g, then solves for every column at once,
directly and exactly up to rounding: in one dimension with the inverse of
the tridiagonal, formed once per march, in one matrix product whose every
BLAS call takes ``_LANES`` columns (a lone column beside a zero lane) and
which multiplies only the inverse's numerical band where it has one, each
block of the solution from the three neighbouring blocks of the right-hand
side, read in place; in two dimensions by fast
diagonalisation, the orthonormal DST-I matrix applied on both sides of the
whole stack as dense matrix products.  The kernel uses the canonical model's
structure where the callables carry it (looked up once per march, through
``__wrapped__``): for the canonical cubic the reaction term is
a3*v - (sc/z^2)*v^3, with no divide by z and no call of f, and for the
canonical forcing z*g is (z*a(t))*p(x), with the profile p read once per
march and no call of g.  Any other f is called on v/z every step, and any
other g once per block of coming steps on the block's clocks.  z*g and a
table of the reaction term's per-point factor (sc/z^2 or z) are formed
per block, so each step's arithmetic is a few ufunc calls on flat
contiguous arrays with no broadcasting, each output passed positionally.
At z = 1 the structured forms have the general forms' bits.  A step
allocates no array of its own other than a general reaction's result, and
a stack the march yields is valid only until the next step; no array of a
march grows with its number of steps, as the clocks and z are formed once
per window of whole blocks (see :func:`_march` for its buffers, windows
and blocks).
Columns never mix, and every BLAS call of a 1D product has a fixed width,
so a column's bits do not depend on its lane or its neighbours: a column of
a stack equals the same run marched alone, bit for bit.
The kernel has two doors, both taking each column's initial state, path
and intensity, and both enter through :func:`_setup`, which checks every
column before any step, a column with nothing to march included: one grid,
its duration on the dt lattice, its run inside its path's window, and its
intensity and step.
:func:`stored_values` streams a stack that starts at one time: the initial
stack, every ``stride``-th step's and the final one, as the kernel's raw
arrays.  It alone holds that rule, and it is every stream's one exit: it
checks the final stack for a boundary leak before it yields it.  Its
reductions, :func:`~pullbacklab.cocycle.phi_states` (and so ``simulate``),
the truncation and H1 witnesses of :mod:`~pullbacklab.attractor`,
:func:`difference_history` and :func:`energy_audit`, take each state
through one :class:`~pullbacklab.field.Quadrature` pass at constant
memory, and :func:`integrate`, the one place a stored state becomes a
:class:`Field`, collects it into a :class:`Trajectory`;
:func:`energy_audit` alone keeps a per-step z series, as its result is per
step.  :func:`final_states`, and so :func:`final_state` and :func:`step`,
keeps the endpoints of a stack whose columns may start at different
times, checks them for a leak itself, and marches through one function,
:func:`_march_split`: a large 1D stack is cut into contiguous chunks of
columns, all but the first marched in forked children, one per CPU, each
forming its own columns' z, and any other stack is one chunk marched in
this process.  Since columns never mix, the split changes no bit.
:func:`_warn_boundary_leak` places each warning where the run was asked
for.

:func:`integrate_deterministic` marches the original, unconjugated equation
with its own step, keeping every state, and a one-column solve (the same
banded two-lane product in 1D, the same fast diagonalisation in 2D); it is
the independent zero-noise oracle the kernel is held to; it calls the
plain f and g, so at zero noise it also checks the structured forms'
algebra.  Everything is deterministic: same inputs, same bits.  Only numpy
is needed at run time.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import (
    BoundaryLeakWarning,
    ConfigurationError,
    DivergenceError,
    OutOfWindowError,
    WorkerError,
)
from .field import Field, Grid, Quadrature, Trajectory, field_from_function, interior, ring
from .model import (
    _FORCING_BLOCK,
    CubicReaction,
    ProblemSpec,
    TanhGaussian,
    forcing_norms_sq,
)
from .noise import Path, lattice_steps, refine, refine_levels, z_series

_BOUNDARY_TRUST = 1e-8
# A 1D endpoint march smaller than this many point-steps (state-steps times
# grid points) stays in-process.  On a shared 2-core Xeon host with two
# OpenBLAS threads, a fork round trip (fork, pickle 5 endpoints back, reap)
# took 2.4-26 ms over 5 x 200 trips, median 3.5-3.8 ms and 6.6-7.6 ms at
# most in four of the five, in a numpy process with 132 MB resident.  A 1D
# point-step with the banded solve cost 18-25 ns at m=129 and k=10 (25-32
# ns with the dense grouped solve).  At the floor a march takes about 24
# ms, and the half that a second worker takes over saves about 12 ms: more
# than every trip but one outlier.
_SPLIT_FLOOR = 1 << 20
# Every BLAS call of a 1D solve takes this many right-hand sides: the stack
# is solved as g groups of them, the last padded with zero lanes.  With
# OpenBLAS 0.3.31's SkylakeX (AVX-512) kernels, on 1 or 2 threads, every
# column of a dense W-row product had the same bits in every lane, beside
# any neighbours and at any g (W in {2, 4, 8} for m from 65 to 513, and
# W = 2 for m from 17 to 1025), but a plain (k, m-2) product's bits depend
# on k at some sizes (m = 35 among them), so the width is fixed.  The
# banded product kept every column's bits beside 0 to 5 random neighbours
# at each odd m from 67 to 1025 that takes it (155 cases over two
# spacings), under the SkylakeX, Haswell, Sandybridge, Nehalem and Katmai
# kernels.  Two lanes cost a lone column least: about 1 us more per step
# than one matrix-vector product at m=129, where four lanes slowed a lone
# march.
_LANES = 2
# The march's table of z (see _march) has room for at least this many
# values, steps times columns, so a lone column on a large grid does not
# pay a window's fixed cost (its clocks, a z_series call, the reaction and
# forcing factors: about 39 us at 65x65) for every 7-step forcing block.
_WINDOW_VALUES = 256


def _grouped(rows: np.ndarray) -> np.ndarray:
    """The (k, n) array ``rows`` viewed as (k / _LANES, _LANES, n).  The
    shape is assigned, not reshaped, so a view that would need a copy
    raises instead of leaving a product's ``out=`` writing into the copy."""
    view = rows.view()
    view.shape = (-1, _LANES, rows.shape[-1])
    return view


def _band_blocks(ainv_t: np.ndarray) -> np.ndarray | None:
    """The numerical band of the 1D inverse as (nb, 1, 3b, b) blocks, or
    None where the dense product is kept.

    Entries of the inverse decay as rho^|i-j|.  The kept diagonals reach
    past the last one that holds an entry >= eps*max/n, so every dropped
    entry is below that and a row drops less than eps*max*|x|_inf.  The
    block width b is the smallest multiple of 8 above that diagonal whose
    nb blocks tile the n-point interior, ending on it or one cell past it,
    onto the right boundary; with 3 blocks or fewer, or no such width, the
    product stays dense.  Block i holds the transpose's rows (i-1)b to
    (i+2)b and columns ib to (i+1)b, zero outside the interior: output
    block i takes its three neighbouring input blocks.
    """
    n = len(ainv_t)
    kept = ainv_t >= np.finfo(float).eps * ainv_t.max() / n
    # the entries decay away from the diagonal, so the last diagonal holding
    # a kept entry is the farthest first or last kept column of a row
    rows = np.arange(n)
    right = n - 1 - np.argmax(kept[:, ::-1], axis=1) - rows
    last = int(max(right.max(), (rows - np.argmax(kept, axis=1)).max()))
    for b in range(last // 8 * 8 + 8, (n + 1) // 4 + 1, 8):
        if n % b == 0 or (n + 1) % b == 0:
            blocks = np.zeros((-(-n // b), 1, 3 * b, b))
            for i, block in enumerate(blocks[:, 0]):
                lo, hi = max(i - 1, 0) * b, min((i + 2) * b, n)
                cols = ainv_t[lo:hi, i * b : (i + 1) * b]
                block[lo - (i - 1) * b : hi - (i - 1) * b, : cols.shape[1]] = cols
            return blocks
    return None


def _view(a: np.ndarray, start: int, shape: tuple, strides: tuple) -> np.ndarray:
    """A strided view of the memory ``a`` views, from ``start`` elements
    past a's first one (before it where negative), inside the bounds of the
    array that owns that memory."""
    owner = a if a.base is None else a.base
    offset = a.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    offset += start * a.itemsize
    if offset < 0:  # numpy takes a negative offset unchecked
        raise ValueError("the view begins before its memory")
    return np.ndarray(shape, a.dtype, buffer=owner, offset=offset, strides=strides)


@dataclass(frozen=True)
class SolverConfig:
    """The time step, which every column of a stack shares; which states a
    run keeps is its caller's choice (:func:`stored_values`)."""

    dt: float

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")


def steps_between(t_start: float, t_end: float, dt: float) -> int:
    """Number of dt steps from t_start to t_end; the duration must sit on
    the dt lattice (:func:`~pullbacklab.noise.lattice_steps`) and must not
    be negative."""
    n = lattice_steps(t_end - t_start, dt, f"the duration {t_end - t_start!r}")
    if n < 0:
        raise ConfigurationError(f"the duration {t_end - t_start!r} is negative")
    return n


class _Context:
    """Per-march precomputation: grid geometry, implicit solves, data evaluators.

    Both interior solves are direct.  In 1D the constant tridiagonal is
    inverted once (:func:`_tridiagonal_inverse`); its inverse has positive
    entries and row sums at most 1/(1 + dt*lam).  Only its transpose, a
    C-contiguous view, is kept: right-hand sides are rows, and a solve is
    ``rows @ inv.T`` taken ``_LANES`` rows at a time (:meth:`solve_rows`
    counts the padded rows).  The entries decay as rho^|i-j|, with
    rho = (dt/h^2)/(1 + dt*lam + 2dt/h^2), so where the band allows the
    product keeps only blocks about the diagonal (:func:`_band_blocks`),
    each dropped entry below eps*max/(m-2).  In 2D the operator is the
    Kronecker sum of two identical tridiagonals, diagonalised by the
    orthonormal DST-I matrix Q (symmetric, its own inverse): a solve is
    ``Q ((Q R Q) * inv) Q`` with ``inv`` the reciprocal eigenvalues, four
    dense matrix products per right-hand side (fast diagonalisation; Lynch,
    Rice & Thomas 1964).  Both solves are contractions: a right-hand side
    whose squared norm is finite gives a solution whose squared norm is.
    """

    def __init__(self, grid: Grid, spec: ProblemSpec, cfg: SolverConfig):
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
            self._ainv_t = _tridiagonal_inverse(diag, off, m - 2).T
            self._band = _band_blocks(self._ainv_t)
        else:
            idx = np.arange(1, m - 1)
            self._q = math.sqrt(2.0 / (m - 1)) * np.sin(np.pi * np.outer(idx, idx) / (m - 1))
            mu = (dt / h2) * (2.0 - 2.0 * np.cos(np.pi * idx / (m - 1)))
            self._inv = 1.0 / ((1.0 + dt * spec.lam) + mu[:, None] + mu[None, :])

    def solve_rows(self, k: int) -> int:
        """Rows a bound solve of k columns covers: k padded to whole groups
        of ``_LANES`` in 1D, k in 2D."""
        return -(-k // _LANES) * _LANES if self.grid.dimension == 1 else k

    def solve_source(self, k: int) -> np.ndarray:
        """A zeroed stack of ``solve_rows(k)`` states whose interiors a bound
        solve may read.  In 1D it lies between two zero rows of its own
        memory: the banded product's windows reach one block before the
        first interior and past the last one."""
        if self.grid.dimension == 2:
            return np.zeros((k,) + self.grid.shape)
        return np.zeros((self.solve_rows(k) + 2,) + self.grid.shape)[1:-1]

    def solve_implicit(self, rhs_interior: np.ndarray) -> np.ndarray:
        """The interior solve of one right-hand side or of a stack of them.

        ``rhs_interior`` is one state's interior or a (k, ...) stack of
        them, copied into the interiors of a :meth:`solve_source` stack and
        solved by the product :meth:`stack_solver` binds (in 1D a lone row
        beside a zero lane)."""
        one = np.ndim(rhs_interior) == self.grid.dimension
        rows = rhs_interior[np.newaxis] if one else rhs_interior
        src = self.solve_source(len(rows))
        dst = np.zeros(src.shape)
        interior(src[: len(rows)], 1)[...] = rows
        self.stack_solver(interior(src, 1), interior(dst, 1))()
        sol = interior(dst[: len(rows)], 1)
        return sol[0] if one else sol

    def stack_solver(self, src: np.ndarray, dst: np.ndarray) -> Callable[[], None]:
        """The interior solve of the (k, ...) stack ``src`` into ``dst``, bound
        once: each call solves for every column of ``src`` as it is then, so
        a caller writes fresh right-hand sides into ``src`` and calls again.
        Each column gets the bits :meth:`solve_implicit` gives it.

        In 1D k must be a multiple of ``_LANES`` (:meth:`solve_rows`), and
        every call is one matrix product written straight into ``dst``, of
        ``_LANES`` rows per BLAS call whatever k is.  Where the inverse has a
        numerical band (:func:`_band_blocks`) the product is block-banded:
        a (nb, k/_LANES, _LANES, 3b) view of windows of ``src``, each output
        block's three neighbouring input blocks, times the (nb, 1, 3b, b)
        blocks, into a (nb, k/_LANES, _LANES, b) view of ``dst``.  The
        windows read a block before each row's interior and past it, which
        the band's zeros multiply, so ``src`` must be the interior of a
        :meth:`solve_source` stack, and the blocks write up to one cell
        past each interior, onto a full state's boundary, as zero.  Other
        stacks are one dense product of the (k/_LANES, _LANES, m-2) views.
        A zero row of ``src`` solves to a zero row."""
        matmul = np.matmul
        if self.grid.dimension == 1:
            s, d = _grouped(src), _grouped(dst)
            blocks = self._band
            if blocks is None:
                ainv_t = self._ainv_t
                return lambda: matmul(s, ainv_t, d)
            nb, b = len(blocks), blocks.shape[-1]
            if nb * b * dst.itemsize > dst.strides[0]:
                raise ValueError("the banded solve needs a full state's row for each interior")
            windows = _view(src, -b, (nb, *s.shape[:2], 3 * b), (b * src.itemsize, *s.strides))
            ends = _view(dst, 0, (nb, *d.shape[:2], b), (b * dst.itemsize, *d.strides))
            return lambda: matmul(windows, blocks, ends)
        q, inv, mul = self._q, self._inv, np.multiply
        t1, t2 = np.empty(src.shape), np.empty(src.shape)

        def solve() -> None:
            # Q ((Q R Q) * inv) Q through two scratch stacks, into dst; matmul
            # takes a stack one field at a time, so no bit depends on k
            matmul(q, src, t1)
            matmul(t1, q, t2)
            mul(t2, inv, t2)
            matmul(q, t2, t1)
            matmul(t1, q, dst)

        return solve

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

    The result is in Fortran order, so its transpose, which the 1D solve
    multiplies by, is C-contiguous with no copy.  The order changes no bit.
    """
    u = [diag]  # the diagonal of U in A = LU
    for _ in range(n - 1):
        u.append(diag - off * off / u[-1])
    x = np.eye(n).T
    for i in range(1, n):
        x[i] -= (off / u[i - 1]) * x[i - 1]
    x[-1] /= u[-1]
    for i in range(n - 2, -1, -1):
        x[i] -= off * x[i + 1]
        x[i] /= u[i]
    return x


def _structure(fn: Callable, kind: type):
    """The innermost callable under ``fn``'s ``__wrapped__`` chain if it is
    a ``kind``, else None.  A wrapper without ``__wrapped__`` hides it."""
    import inspect

    inner = inspect.unwrap(fn)
    return inner if isinstance(inner, kind) else None


def _march(
    ctx: _Context,
    v0: np.ndarray,
    t_start: float | Sequence[float],
    paths: Sequence[Path],
    epsilons: Sequence[float],
    n: int,
    admit: int | Sequence[int] = 0,
):
    """Advance the stack ``v0`` of shape (k, *grid.shape) to the end of n
    steps.

    Column i joins the stack at step ``admit[i]`` (nondecreasing from 0)
    and then steps on its own clock ``t_start[i] + j*dt``, j counting its
    own steps, driven by ``paths[i]`` at intensity ``epsilons[i]``; a
    scalar ``t_start`` or ``admit`` is shared by every column.  z of column
    i at the left end of its own step j is element j of
    :func:`~pullbacklab.noise.z_series` over its whole run.  Only the
    interior of ``v0`` is read: every state the march makes has a zero
    boundary.  Yields the stack of the columns admitted so far after every
    step.  Every operation acts on each column alone, so a column's bits do
    not depend on what else is in the stack or on when it joined.  The
    caller checks every column before the march (:func:`_setup`).

    The model's structure is looked up once per march, on the callables
    themselves after following ``__wrapped__``.  When f is a
    :class:`~pullbacklab.model.CubicReaction`, the reaction term
    z*f(v/z) is formed as a3*v - q*v^3 with q = sc/z^2, so no step divides
    by z or calls f; otherwise f is called on v/z and its result multiplied
    by z.  When g is a :class:`~pullbacklab.model.TanhGaussian`, its
    profile is read once and z*g is (z*amplitude(t))*profile, so g is never
    called; otherwise g is called once per block of steps.  At z = 1 both
    forms have the bits of the general ones.

    A step allocates no array of its own (a general reaction makes its
    result) and makes few numpy calls, each on flat contiguous arrays.  Each
    callable a step makes is bound to a local once per march and given its
    output positionally (``mul(v, v, work)``): at m=129 a keyword ``out=``
    cost about 0.2 us more per call.  The
    march keeps two ping-pong state buffers, whose boundaries stay zero, one
    right-hand-side buffer and one work buffer (v/z or the cubic term).  In
    1D the three stack buffers have ``solve_rows(k)`` rows, all zeroed, so
    the pad row and the rows of columns not yet admitted hold zeros, never
    uninitialised memory, when the solve reads them; the right-hand side's
    lie between two more zero rows (:meth:`_Context.solve_source`), which
    the banded product's windows read beyond the first and last interior.
    When a column joins the march binds, once, flat views of the admitted
    prefix of each and one solve per state buffer
    (:meth:`_Context.stack_solver`), which reads the right-hand side and
    writes the next state's interior; in 1D the solve covers the admitted
    prefix padded to whole groups of ``_LANES``.  The step arithmetic, the
    finiteness check and the yielded stack cover the admitted prefix alone.

    No array of the march grows with n.  Its steps are prepared on two
    levels.  A window, the rows of ``z_buf`` cut to whole blocks and ended
    where the next column joins, forms small (steps, columns) arrays.
    ``z_buf`` has the rows of a forcing block for one column
    (``_FORCING_BLOCK // points``) or ``_WINDOW_VALUES // k`` rows,
    whichever is more, so a lone column on a large grid does not prepare
    a window per block: at 65x65 it takes 256 rows, 36 blocks of 7 steps,
    where a window was one block.  At m=129 the windows keep their
    length, 254 steps for one column and 250 for ten.  A window's arrays
    are the clocks, ``(step - admit)*dt + t_start`` per column; each column's z,
    from one :func:`~pullbacklab.noise.z_series` call on its own stretch
    of the run (the bits of that stretch of the whole run's series); and
    the per-column factors of the reaction term (q or z) and of z*g
    (z*amplitude(t) or z).  A block, at most about ``_FORCING_BLOCK``
    values, spreads slices of those rows into two tables, the reaction
    factor at every grid point of its column and z*g, so no step
    broadcasts.  Finiteness is one reduction over
    the stack; :func:`_nonfinite_column` runs only when it fails, and a
    divergence is raised at the failing column's clock after the step, read
    from the window's clocks only then.  A
    yielded stack is a view of a buffer that later steps overwrite: it is
    valid only until the next step, so a caller that keeps a state copies it
    (a :class:`Field` does).
    """
    dt = ctx.cfg.dt
    f = ctx.spec.nonlinearity.f
    cubic = _structure(f, CubicReaction)
    separable = _structure(ctx.spec.forcing.g, TanhGaussian)
    k = v0.shape[0]
    starts = np.broadcast_to(np.asarray(t_start, dtype=float), (k,))
    admit = np.broadcast_to(np.asarray(admit, dtype=int), (k,))
    npts = len(ctx.pts)
    pts = np.tile(ctx.pts, (k, 1))
    profile = None if separable is None else separable.profile(ctx.pts).reshape(ctx.grid.shape)
    # scalar operands as 0-d arrays: a ufunc converts a Python float on every
    # call, 0.64 against 0.50 us per multiply at m=129 (x *= dt took 0.71)
    dt0 = np.array(dt)
    mul, sub, add, div = np.multiply, np.subtract, np.add, np.divide
    vdot, isfinite = np.vdot, math.isfinite
    a3 = None if cubic is None else np.array(cubic.a3)
    spread = (1,) * ctx.grid.dimension
    # step j reads the state from buffer j % 2 and writes the next one into
    # the other; only interiors are ever written, so boundaries stay zero.
    # A 1D solve covers the admitted columns padded to whole lane groups:
    # the arithmetic never writes a right-hand-side row past the admitted
    # ones, so those rows stay zero and solve to zero
    shape = (ctx.solve_rows(k),) + ctx.grid.shape
    bufs = (np.zeros(shape), np.zeros(shape))
    rhs_buf = ctx.solve_source(k)
    work_buf = np.empty(k * npts)
    block_size = min(max(_FORCING_BLOCK, k * npts), n * k * npts)
    w_buf, zg_buf = np.empty(block_size), np.empty(block_size)
    # z of a window's steps, one column per column of the stack: as many
    # rows as a forcing block has for one column, or as _WINDOW_VALUES
    # values allow for k columns, whichever is more
    height = max(1, _FORCING_BLOCK // npts, _WINDOW_VALUES // k)
    z_buf = np.empty((min(height, n), k))
    a = 0
    j = 0
    while j < n:
        if a < k and admit[a] == j:
            b = int(np.searchsorted(admit, j, side="right"))
            interior(bufs[j % 2][a:b], 1)[...] = interior(v0[a:b], 1)
            a = b
            stacks = [buf[:a] for buf in bufs]
            flats = [stack.ravel() for stack in stacks]
            rhs = rhs_buf[:a]
            rhs_flat, work, pts_a = rhs.ravel(), work_buf[: a * npts], pts[: a * npts]
            c = ctx.solve_rows(a)
            src = interior(rhs_buf[:c], 1)
            solves = [ctx.stack_solver(src, interior(buf[:c], 1)) for buf in bufs]
            # a block's steps: at most a forcing block of values
            block = max(1, _FORCING_BLOCK // (a * npts))
        # a window: the steps up to the next admission, at most as many
        # whole blocks as z_buf has rows
        top, span = j, min(n, j + height // block * block, int(admit[a]) if a < k else n) - j
        # every admitted column's own clock at each step of the window: the
        # same bits as the sum a run marched alone forms
        clocks = (np.arange(j, j + span)[:, None] - admit[:a]) * dt + starts[:a]
        # z of each column from its own clock at the window's first step: that
        # stretch of its whole run's series.  The clocks go in as Python
        # floats; a numpy scalar doubles a z_series call's cost (10 against
        # 4.4 us)
        z = z_buf[:span, :a]
        for i, t in enumerate(clocks[0].tolist()):
            z[:, i] = z_series(paths[i], epsilons[i], t, span, dt)
        # per column, the reaction term's factor, q = sc/z^2 or z itself,
        # and the forcing's, z*amplitude(t) or z
        factor = z if cubic is None else cubic.sc / (z * z)
        za = z if separable is None else z * separable.amplitude(clocks)
        for lo in range(0, span, block):
            hi = min(lo + block, span)
            blocked = (hi - lo,) + rhs.shape
            w_rows = w_buf[: (hi - lo) * a * npts].reshape(blocked)
            w_rows[...] = factor[lo:hi].reshape(blocked[:2] + spread)
            zg_rows = zg_buf[: w_rows.size].reshape(blocked)
            g = profile if separable is not None else ctx.forcing_values(clocks[lo:hi])
            np.multiply(za[lo:hi].reshape(blocked[:2] + spread), g, out=zg_rows)
            for w, zg in zip(w_rows.reshape(hi - lo, -1), zg_rows.reshape(hi - lo, -1)):
                v = flats[j % 2]
                # v + dt*(z*f(v/z) + z*g), formed in place in that order so the
                # bits are those of the expression
                if cubic is None:
                    div(v, w, work)
                    reaction = np.asarray(f(pts_a, work), dtype=float)
                    if reaction.shape != work.shape:
                        # a reaction of the wrong size raises here rather than broadcast
                        reaction = reaction.reshape(work.shape)
                    mul(w, reaction, rhs_flat)
                else:
                    # z*f(v/z) = a3*v - q*(v*v*v)
                    mul(v, v, work)
                    mul(work, v, work)
                    mul(work, w, work)
                    mul(a3, v, rhs_flat)
                    sub(rhs_flat, work, rhs_flat)
                add(rhs_flat, zg, rhs_flat)
                mul(rhs_flat, dt0, rhs_flat)
                add(rhs_flat, v, rhs_flat)
                # an overflowing reaction term must surface as a divergence; the
                # solve is a contraction, so its result needs no check of its own
                if not isfinite(vdot(rhs_flat, rhs_flat)):
                    bad = _nonfinite_column(rhs)
                    if bad is not None:
                        raise DivergenceError(float(clocks[j - top, bad]) + dt)
                solves[1 - j % 2]()
                j += 1
                yield stacks[j % 2]


def _advance_plain(v: np.ndarray, t: float, ctx: _Context) -> np.ndarray:
    """Conjugation-free step of du/dt + lam u - Laplace u = f(x,u) + g."""
    dt = ctx.cfg.dt
    fv = np.asarray(
        ctx.spec.nonlinearity.f(ctx.pts, v.ravel()), dtype=float
    ).reshape(v.shape)
    rhs = v + dt * (fv + ctx.forcing_values(t))
    if _nonfinite_column(rhs[np.newaxis]) is not None:
        raise DivergenceError(t + dt)
    out = np.zeros_like(v)
    interior(out)[...] = ctx.solve_implicit(interior(rhs))
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


# the modules between the code that asks for a run and its leak check
_RUN_MODULES = frozenset(f"{__package__}.{name}" for name in ("solver", "cocycle", "attractor"))


def _warn_boundary_leak(v: np.ndarray) -> None:
    """Warn once for every column of the stack ``v`` that leaks, its ring
    (:func:`~pullbacklab.field.ring`) above ``_BOUNDARY_TRUST``, each
    warning placed at the first frame whose module is not ``solver``,
    ``cocycle`` or ``attractor``: the code that asked for the run, however
    many calls and streams of the run lie between."""
    frame, level = sys._getframe(), 1
    while frame.f_globals.get("__name__") in _RUN_MODULES:
        frame, level = frame.f_back, level + 1
    for magnitude in ring(v).tolist():
        if magnitude > _BOUNDARY_TRUST:
            warnings.warn(
                f"solution magnitude {magnitude:.3e} adjacent to the artificial boundary "
                f"exceeds {_BOUNDARY_TRUST:.0e}; enlarge the domain radius",
                BoundaryLeakWarning,
                stacklevel=level,
            )


def _setup(
    v0s: Sequence[Field],
    t_starts: Sequence[float],
    t_end: float,
    paths: Sequence[Path],
    epsilons: Sequence[float],
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> tuple[list[int], _Context]:
    """Each column's step count and the march's context, after checking
    every column before any step, one with nothing to march included.

    Column i runs from ``v0s[i]`` at ``t_starts[i]`` to ``t_end`` along
    ``paths[i]`` at intensity ``epsilons[i]``, every state on one grid.
    Its duration must sit on the dt lattice, both ends of its run on the
    path's lattice and inside the path's window, and a z series of one
    value at its own start checks the intensity and that dt is a whole
    number of path steps.
    """
    if not v0s or not len(v0s) == len(t_starts) == len(paths) == len(epsilons):
        raise ConfigurationError(
            "need one start time, one path and one intensity per initial state, "
            "and at least one state"
        )
    grid = v0s[0].grid
    if any(v.grid != grid for v in v0s[1:]):
        raise ConfigurationError("all initial states must live on one grid")
    counts = []
    for t_start, path, eps in zip(t_starts, paths, epsilons, strict=True):
        n = steps_between(t_start, t_end, cfg.dt)
        before = lattice_steps(t_start - path.t_min, path.dt, f"the run start {t_start!r}")
        after = lattice_steps(path.t_max - t_end, path.dt, f"the run end {t_end!r}")
        if before < 0 or after < 0:
            raise OutOfWindowError(
                f"run [{t_start}, {t_end}] leaves the path window "
                f"[{path.t_min}, {path.t_max}]"
            )
        z_series(path, eps, t_start, min(n, 1), cfg.dt)
        counts.append(n)
    return counts, _Context(grid, spec, cfg)


def stored_values(
    v0s: Sequence[Field],
    t_start: float,
    t_end: float,
    paths: Sequence[Path],
    epsilons: Sequence[float],
    spec: ProblemSpec,
    cfg: SolverConfig,
    stride: int,
):
    """Yield (time, stack) for every state a stack's run stores: the
    initial one, every ``stride``-th step's and the final one, each time an
    exact multiple of dt from the shared ``t_start``.  Column i starts from
    ``v0s[i]`` along ``paths[i]`` at intensity ``epsilons[i]``, as in
    :func:`final_states`.  It holds the one store rule and the one stride
    check: the stride must be a positive integer (a numpy integer is one, a
    bool or a whole float is not).  The stride and every column
    (:func:`_setup`) are checked at the first ``next``, before any step,
    and the final stack is checked for a boundary leak before it is
    yielded.  Every stack after the first is the kernel's buffer, valid
    until the next ``next`` and checked by no :class:`Field`: a consumer
    copies what it keeps and reduces each state through a
    :class:`~pullbacklab.field.Quadrature` pass, which checks it as a Field
    would, so one that keeps nothing runs at constant memory.
    """
    integral = isinstance(stride, numbers.Integral) and not isinstance(stride, bool)
    if not (integral and stride >= 1):
        raise ConfigurationError(f"stride must be a positive integer, got {stride!r}")
    (n, *_), ctx = _setup(v0s, (t_start,) * len(v0s), t_end, paths, epsilons, spec, cfg)
    stack = np.stack([v0.values for v0 in v0s])
    states = itertools.chain((stack,), _march(ctx, stack, t_start, paths, epsilons, n))
    for j, v in enumerate(states):
        if j == n:
            _warn_boundary_leak(v)
        if j % stride == 0 or j == n:
            yield t_start + j * cfg.dt, v


def step(
    v: Field, t: float, path: Path, epsilon: float, spec: ProblemSpec, cfg: SolverConfig
) -> Field:
    """One semi-implicit step from time t to t + dt: :func:`final_state`
    over one step."""
    return final_state(v, t, t + cfg.dt, path, epsilon, spec, cfg)


def integrate(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> Trajectory:
    """March the conjugated state from t_start to t_end along the path at
    intensity ``epsilon`` and keep every state :func:`stored_values`
    yields at stride 1.  The first state is ``v0`` itself and every later
    one a checked copy, a :class:`Field` of its own.

    The duration must be a lattice multiple of cfg.dt and the path window
    must cover [t_start, t_end].
    """
    column = ((v0,), t_start, t_end, (path,), (epsilon,))
    stream = stored_values(*column, spec, cfg, 1)
    first = (next(stream)[0], v0)
    times, states = zip(first, *((t, Field(v0.grid, v[0])) for t, v in stream))
    return Trajectory(times=np.array(times), states=states)


def integrate_deterministic(
    u0: Field, t_start: float, t_end: float, spec: ProblemSpec, cfg: SolverConfig
) -> Trajectory:
    """Noise-free march of the original equation (no conjugation anywhere).

    This is the zero-intensity reference: with eps = 0 the conjugated
    stepper must reproduce it bit for bit.  It keeps its own step and the
    one-column solve so that the comparison is with independent code, and
    every state, as :func:`integrate` does.
    """
    n = steps_between(t_start, t_end, cfg.dt)
    ctx = _Context(u0.grid, spec, cfg)
    v = u0.values
    times = [t_start]
    states = [u0]
    for k in range(n):
        v = _advance_plain(v, t_start + k * cfg.dt, ctx)
        times.append(t_start + (k + 1) * cfg.dt)
        states.append(Field(u0.grid, v))
    _warn_boundary_leak(v[np.newaxis])
    return Trajectory(times=np.array(times), states=tuple(states))


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
    paths: Sequence[Path],
    epsilons: Sequence[float],
    n: int,
    admit: np.ndarray,
    a: int,
    b: int,
) -> tuple[np.ndarray | None, tuple | None]:
    """March columns ``a:b`` of a longest-first staggered stack of n steps
    on their own, as a stack whose admissions count from its first
    column's; the chunk forms the z of its own columns alone.

    Returns ``(endpoints, None)``, or ``(None, (step, a, exception))`` where
    the march failed: ``step`` is the failing step counted in the whole
    stack's steps, and ``a`` the chunk's first place in the stack.
    """
    first = int(admit[a])
    j = -1
    march = _march(
        ctx, stack[a:b], starts[a:b], paths[a:b], epsilons[a:b], n - first, admit[a:b] - first
    )
    try:
        for j, v in enumerate(march):
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
    chunk: Callable[[int, int], tuple], bounds: Sequence[tuple[int, int]]
) -> np.ndarray:
    """The endpoints of a longest-first staggered stack, marched in the
    chunks ``bounds``, ``chunk(a, b)`` marching columns a:b as
    :func:`_march_chunk` does: the first in this process, each other one in
    a forked child that forms its own columns' z and pipes its answer back.
    With one chunk nothing is forked.

    Columns never mix, so every endpoint has the bits of the unsplit march.
    The children's warnings are raised again here once all answers are in,
    with no once-per-place registry: a warning that one chunk marched here
    would show once per place is shown once per split march.
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
                _answer_and_exit(write, lambda: chunk(a, b))
            os.close(write)
            children[pid] = read
        ends, failure = chunk(*bounds[0])
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
    everything else is shared.  The columns are admitted longest first,
    each at the step where its own run begins, and a column with nothing to
    march comes back as given.  Each endpoint equals :func:`final_state` of
    that column alone, bit for bit.  A divergence raises at the own time of
    the first column to diverge, counted in steps of the stack (columns that
    diverge on the same step are taken longest first).

    A large 1D stack is split across processes.  When :func:`worker_count`
    and the number of columns both reach two or more, and the stack holds
    at least ``_SPLIT_FLOOR`` point-steps (state-steps times grid points),
    the longest-first columns are cut into one contiguous chunk per worker,
    chosen so that the largest chunk's stack-steps plus state-steps is
    least.  This process marches the first chunk; every other chunk is
    marched in a forked child that pipes its endpoints back as a pickle.
    Otherwise, as in 2D, without ``os.fork``, or with a second Python
    thread alive, the whole stack is one chunk, marched here.  Either way
    :func:`_march_split` drives the chunks, and the endpoints, the
    divergence time and the boundary-leak warnings are the same.  Every
    column is checked (:func:`_setup`) before any chunk takes a step.  A
    child's warnings are raised again here, its exception is raised here,
    and a child that ends without an answer raises :class:`WorkerError`.
    """
    counts, ctx = _setup(v0s, t_starts, t_end, paths, epsilons, spec, cfg)
    # longest march first, so the admitted columns are always a prefix
    order = sorted((i for i, n in enumerate(counts) if n), key=lambda i: -counts[i])
    if not order:
        return tuple(v0s)
    starts = [t_starts[i] for i in order]
    steps = [counts[i] for i in order]
    columns = ([paths[i] for i in order], [epsilons[i] for i in order])
    stack = np.stack([v0s[i].values for i in order])
    admit = np.array([steps[0] - n for n in steps])
    # 2D stays here: on a 2-core host with two OpenBLAS threads per process,
    # a split stack of 8 columns on 65x65 took about 3x as long as unsplit
    split = ctx.grid.dimension == 1 and sum(steps) * len(ctx.pts) >= _SPLIT_FLOOR
    width = min(worker_count(), len(order)) if split else 1
    chunk = functools.partial(_march_chunk, ctx, stack, starts, *columns, steps[0], admit)
    v = _march_split(chunk, _cut(steps, width))
    _warn_boundary_leak(v)
    ends = list(v0s)
    for i, col in zip(order, v):
        ends[i] = Field(ctx.grid, col)
    return tuple(ends)


def final_state(
    v0: Field,
    t_start: float,
    t_end: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> Field:
    """Endpoint of :func:`integrate` without storing the trajectory.

    Same step sequence, same bits, constant memory; the one-column case of
    :func:`final_states`.
    """
    return final_states((v0,), (t_start,), t_end, (path,), (epsilon,), spec, cfg)[0]


def difference_history(
    v0_a: Field,
    v0_b: Field,
    t_start: float,
    t_end: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    sample_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Run two solutions in lockstep along one path at intensity ``epsilon``;
    record ||difference||^2.

    Returns (times, squared L2 norms of a - b), sampled as
    :func:`stored_values` streams the pair at a stride of ``sample_stride``
    (a positive integer): the initial pair, every ``sample_stride``-th
    step's and the endpoint.  This is the raw material for contraction-rate
    fits.
    """
    pair = ((v0_a, v0_b), t_start, t_end, (path, path), (epsilon,) * 2)
    quad = Quadrature(v0_a.grid)
    times, norms = [], []
    for t, v in stored_values(*pair, spec, cfg, sample_stride):
        times.append(t)
        norms.append(quad.squares(v[0] - v[1], h1=False)[0])
    return np.array(times), np.array(norms)


# -- scheme verification ----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Successive-refinement differences and the orders they witness."""

    parameters: tuple[float, ...]
    differences: tuple[float, ...]
    ratios: tuple[float, ...]
    orders: tuple[float, ...]


def _convergence_report(parameters, quad: Quadrature, ends: list) -> ConvergenceReport:
    """The L2 differences of successive ``ends`` (value arrays on ``quad``'s
    grid), their ratios and the orders log2(ratio) they witness."""
    diffs = tuple(quad.norms(a - b, h1=False)[0] for a, b in zip(ends, ends[1:]))
    ratios = tuple(d0 / d1 for d0, d1 in zip(diffs, diffs[1:]))
    orders = tuple(float(np.log2(r)) for r in ratios)
    return ConvergenceReport(tuple(parameters), diffs, ratios, orders)


def self_convergence(
    v0: Field,
    horizon: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    dt_ladder: list[float],
) -> ConvergenceReport:
    """Temporal self-convergence along a halving dt ladder on one path.

    The path is bridge-refined until its step divides the finest rung
    (:func:`~pullbacklab.noise.refine_levels`), so every run reads the same
    noise samples; successive endpoint differences then witness the stepping order
    (ratio 2 per halving for a first-order scheme).
    """
    if len(dt_ladder) < 3:
        raise ConfigurationError("need at least three dt rungs to form a ratio")
    for a, b in zip(dt_ladder, dt_ladder[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigurationError("dt ladder must halve at each rung")
    for _ in range(refine_levels(path.dt, dt_ladder[-1])):
        path = refine(path)
    finals = [
        final_state(v0, 0.0, horizon, path, epsilon, spec, SolverConfig(dt)).values
        for dt in dt_ladder
    ]
    return _convergence_report(dt_ladder, Quadrature(v0.grid), finals)


def spatial_convergence(
    profile_fn,
    horizon: float,
    path: Path,
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
    coarse: Grid,
    rungs: int,
) -> ConvergenceReport:
    """Spatial self-convergence on ``rungs`` nested grids of the coarse
    grid's box, with m, 2m-1, 4m-3, ... points per axis.

    The initial profile is resampled analytically per grid; finer endpoints
    are restricted to the coarsest grid by index, so differences compare
    values at identical coordinates (ratio 4 per halving for a second-order
    stencil).
    """
    if rungs < 3:
        raise ConfigurationError("need at least three grid rungs to form a ratio")
    ladder, restricted = [], []
    for i in range(rungs):
        grid = Grid(coarse.dimension, coarse.radius, (coarse.points_per_axis - 1) * 2**i + 1)
        v0 = field_from_function(grid, profile_fn)
        end = final_state(v0, 0.0, horizon, path, epsilon, spec, cfg)
        # every 2^i-th point of the finer grid is a point of the coarsest
        restricted.append(end.values[(slice(None, None, 2**i),) * grid.dimension])
        ladder.append(float(grid.points_per_axis))
    return _convergence_report(ladder, Quadrature(coarse), restricted)


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
    epsilon: float,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> EnergyAudit:
    states = stored_values((v0,), t_start, t_end, (path,), (epsilon,), spec, cfg, 1)
    quad = Quadrature(v0.grid)
    # the first next checks the run before any series is formed
    norm_sq = quad.squares(next(states)[1][0], h1=False)[0]
    n = steps_between(t_start, t_end, cfg.dt)
    psi1_mass = float(v0.grid.cell_volume * np.sum(spec.nonlinearity.psi1(v0.grid.points)))
    c = 2.0 * max(1.0, 1.0 / spec.lam)
    # the result is per step, so the z and forcing series are too
    zs = z_series(path, epsilon, t_start, n, cfg.dt)
    g_sq = forcing_norms_sq(spec.forcing, v0.grid, t_start + np.arange(n) * cfg.dt)
    out = np.empty(n)
    for j, (_, v) in enumerate(states):
        next_sq = quad.squares(v[0], h1=False)[0]
        allowance = c * cfg.dt * float(zs[j]) ** 2 * (float(g_sq[j]) + psi1_mass)
        out[j] = next_sq - norm_sq + cfg.dt * spec.lam * next_sq - allowance
        norm_sq = next_sq
    return EnergyAudit(
        violations=out,
        max_violation=float(out.max()) if n else 0.0,
        constant=c,
        psi1_mass=psi1_mass,
    )

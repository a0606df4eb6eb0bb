"""Two-sided Wiener paths sampled on the solver's time grid.

A path is a table of samples ``omega(t_k)`` on a uniform grid that contains
t = 0, with ``omega(0) = 0`` exactly.  The past and the future of the origin
are generated from independent substreams of one seed, so a single integer
reproduces the whole two-sided path bit for bit.  Only samples are read,
at times on the sample lattice (:func:`lattice_steps`); a finer lattice
refines the existing samples with a Brownian bridge (:func:`refine`)
instead of resampling, so coarse and fine grids describe the same path.

Time shifts act by ``(shift_s omega)(t) = omega(t + s) - omega(s)``.  They
are represented lazily and compose additively, which keeps nested shifts
exact: no resampling or re-basing ever happens.

The multiplicative noise enters the equations only through the scalar
conjugation factor ``z(t) = exp(-eps * omega(t))``; the intensity ``eps`` is
a parameter of :func:`z_factor`, not of the path, so one sampled path serves
a whole intensity sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OutOfWindowError

# Grid alignment slack, in units of dt.  Queries this close to a sample are
# snapped to it; this is what keeps algebraically equal but differently
# rounded times (e.g. shifts accumulated in different orders) on one lattice.
_SNAP = 1e-6
# refine_levels tries at most this many halvings; each doubles the samples
_MAX_REFINEMENTS = 20


def lattice_steps(value: float, dt: float, what: str) -> int:
    """``value / dt`` as a whole number of steps, snapped when it lies within
    ``_SNAP`` of one; any other value is off the lattice and raises
    :class:`ConfigurationError`, whose message starts with ``what``.  This
    is the one lattice rule: every time, duration and step is read by it.
    """
    ratio = value / dt
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= _SNAP):
        raise ConfigurationError(f"{what} is not a multiple of dt={dt!r}: off the lattice")
    return int(round(ratio))


def _check_positive_step(dt: float) -> None:
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")


@dataclass(frozen=True)
class WienerPath:
    """A two-sided Wiener path sampled on a uniform grid containing 0.

    omega(0) equals 0.0 exactly for sampled paths.  ``seed`` is None for
    injected (non-random) test paths.
    """

    seed: int | None
    t_min: float
    t_max: float
    dt: float
    values: np.ndarray
    level: int = 0  # number of bridge refinements applied since sampling

    def __post_init__(self):
        _check_positive_step(self.dt)
        # a copy of its own: freezing the caller's array would freeze theirs
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ConfigurationError("path values must be one-dimensional")
        steps = lattice_steps(self.t_max - self.t_min, self.dt, "the window length")
        if len(vals) != steps + 1:
            raise ConfigurationError(
                f"path holds {len(vals)} samples but the window "
                f"[{self.t_min}, {self.t_max}] at dt={self.dt} needs {steps + 1}"
            )

    # -- evaluation ---------------------------------------------------------

    def value_at(self, t: float) -> float:
        """omega(t) for a time on the sample lattice, snapped to the nearest
        sample within the slack; any other time raises
        :class:`ConfigurationError`."""
        return float(self.sample_series(t, 1, self.dt)[0])

    def sample_series(self, t_start: float, n: int, step: float) -> np.ndarray:
        """Values at ``t_start + k*step`` for k in range(n): a strided view
        of the stored samples, bitwise identical to n calls of
        :meth:`value_at`.

        ``t_start`` must sit on the sample lattice and ``step`` must be a
        whole, positive number of path steps; otherwise
        :class:`ConfigurationError`.  An empty series reads no time.
        """
        if n <= 0:
            # no times to read; the slice's stop would wrap below 0
            return np.empty(0)
        j0 = lattice_steps(
            t_start - self.t_min, self.dt, f"t={t_start!r} (from {self.t_min!r})"
        )
        st = lattice_steps(step, self.dt, f"the series step {step!r}")
        if st < 1:
            raise ConfigurationError(f"the series step must be positive, got {step!r}")
        j_last = j0 + (n - 1) * st
        if j0 < 0 or j_last >= len(self.values):
            raise OutOfWindowError(
                f"times {t_start!r} + k*{step!r}, k < {n}, leave the path window "
                f"[{self.t_min}, {self.t_max}]"
            )
        return self.values[j0 : j_last + 1 : st]

    def grid_times(self) -> np.ndarray:
        return self.t_min + np.arange(len(self.values)) * self.dt

    def grid_values(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class ShiftedPath:
    """The path ``t -> base(t + shift_s) - base(shift_s)``.

    Lazy: evaluation defers to the base samples, so shifting never resamples
    and shifts of shifts collapse to one additive shift (see :func:`shift`).
    """

    base: WienerPath
    shift_s: float
    offset: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.base, ShiftedPath):
            raise ConfigurationError("shifted paths must be built via shift()")
        object.__setattr__(self, "offset", self.base.value_at(self.shift_s))

    @property
    def seed(self) -> int | None:
        return self.base.seed

    @property
    def dt(self) -> float:
        return self.base.dt

    @property
    def t_min(self) -> float:
        return self.base.t_min - self.shift_s

    @property
    def t_max(self) -> float:
        return self.base.t_max - self.shift_s

    def value_at(self, t: float) -> float:
        return self.base.value_at(t + self.shift_s) - self.offset

    def sample_series(self, t_start: float, n: int, step: float) -> np.ndarray:
        return self.base.sample_series(t_start + self.shift_s, n, step) - self.offset

    def grid_times(self) -> np.ndarray:
        return self.base.grid_times() - self.shift_s

    def grid_values(self) -> np.ndarray:
        return self.base.values - self.offset


Path = WienerPath | ShiftedPath


# -- construction -----------------------------------------------------------


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def sample_path(seed: int, t_min: float, t_max: float, dt: float) -> WienerPath:
    """Sample a two-sided Wiener path on ``[t_min, t_max]`` with step ``dt``.

    The window must contain 0 and both endpoints must sit on the dt-lattice
    through 0.  Forward and backward halves come from independent substreams
    of ``seed``; increments are N(0, dt).
    """
    _check_positive_step(dt)
    if not (t_min <= 0.0 <= t_max):
        raise ConfigurationError(
            f"path window [{t_min}, {t_max}] must contain the origin"
        )
    n_back = lattice_steps(-t_min, dt, f"the window start {t_min!r}")
    n_fwd = lattice_steps(t_max, dt, f"the window end {t_max!r}")
    values = np.zeros(n_back + n_fwd + 1)
    scale = np.sqrt(dt)
    if n_fwd:
        inc = _stream(seed, (1,)).standard_normal(n_fwd) * scale
        values[n_back + 1 :] = np.cumsum(inc)
    if n_back:
        inc = _stream(seed, (2,)).standard_normal(n_back) * scale
        values[:n_back] = -np.cumsum(inc)[::-1]
    return WienerPath(seed=seed, t_min=t_min, t_max=t_max, dt=dt, values=values)


def flat_path(t_min: float, t_max: float, dt: float) -> WienerPath:
    """The zero path on [t_min, t_max]: the noise-free path, for
    deterministic runs and tests."""
    _check_positive_step(dt)
    lattice_steps(-t_min, dt, f"the window start {t_min!r}")  # the lattice must hold t = 0
    n = lattice_steps(t_max - t_min, dt, "the window length") + 1
    return WienerPath(seed=None, t_min=t_min, t_max=t_max, dt=dt, values=np.zeros(n))


def refine(path: WienerPath) -> WienerPath:
    """Halve the sampling step by Brownian-bridge midpoints.

    Existing samples are kept bit for bit; each midpoint is the bridge mean
    plus noise of std sqrt(dt)/2, drawn from a substream keyed by the path's
    seed and refinement level, with the k-th draw belonging to the k-th
    interval.  Refining is therefore reproducible and consistent across runs
    that share a seed.  A seedless (deterministic) path refines by exact
    midpoint interpolation, with no noise injected.
    """
    if not isinstance(path, WienerPath):
        raise ConfigurationError("refine the base path before shifting it")
    old = path.values
    if len(old) < 2:
        raise ConfigurationError("cannot refine a single-sample window")
    n_int = len(old) - 1
    mids = 0.5 * (old[:-1] + old[1:])
    if path.seed is not None:
        eta = _stream(path.seed, (3, path.level + 1)).standard_normal(n_int)
        mids = mids + (np.sqrt(path.dt) / 2.0) * eta
    out = np.empty(2 * len(old) - 1)
    out[0::2] = old
    out[1::2] = mids
    return WienerPath(
        seed=path.seed,
        t_min=path.t_min,
        t_max=path.t_max,
        dt=path.dt / 2.0,
        values=out,
        level=path.level + 1,
    )


def refine_levels(dt: float, step: float) -> int:
    """The fewest :func:`refine` calls after which a path sampled every
    ``dt`` has a step that divides ``step``, so that a march with that step
    reads samples only.  0 when ``dt`` divides ``step`` already.  Raises
    :class:`ConfigurationError`, naming both steps, when no number of
    halvings of ``dt`` divides ``step`` (0.01 against 0.001, say).
    """
    for level in range(_MAX_REFINEMENTS + 1):
        try:
            if lattice_steps(step, dt / 2**level, "") >= 1:
                return level
        except ConfigurationError:
            pass
    raise ConfigurationError(
        f"noise step {dt!r} cannot be refined onto the step {step!r}: "
        f"no halving of {dt!r} divides {step!r}"
    )


# -- the shift group --------------------------------------------------------


def shift(path: Path, s: float) -> ShiftedPath:
    """The time-shifted path ``t -> path(t + s) - path(s)``.

    Shifting a shifted path collapses both shifts into one, so compositions
    evaluate against the original samples and stay exact.
    """
    if isinstance(path, ShiftedPath):
        return ShiftedPath(path.base, path.shift_s + s)
    return ShiftedPath(path, s)


# -- conjugation ------------------------------------------------------------


def _check_intensity(eps: float, what: str = "noise intensity") -> None:
    """The rule on a noise intensity, in whose message ``what`` names it."""
    if not (0.0 <= eps <= 1.0):
        raise ConfigurationError(f"{what} must lie in [0, 1], got {eps!r}")


def z_factor(path: Path, eps: float, t: float) -> float:
    """Conjugation factor ``z(t) = exp(-eps * omega(t))``: one term of
    :func:`z_series`."""
    return float(z_series(path, eps, t, 1, path.dt)[0])


def z_series(path: Path, eps: float, t_start: float, n: int, step: float) -> np.ndarray:
    """``z`` at ``t_start + k*step`` for k in range(n).

    The one place the conjugation formula and the intensity rule are
    written; a whole series lets the stepper hoist path evaluation out of
    its inner loop.
    """
    _check_intensity(eps)
    return np.exp(-eps * path.sample_series(t_start, n, step))


def z_window_bounds(path: Path, eps: float) -> tuple[float, float]:
    """(min, max) of z over the path's samples in the unit window [-1, 0].

    The window must be covered by the path.  These are the two constants the
    truncation diagnostic needs: a positive floor and a finite cap for z just
    before the observation time.
    """
    n = lattice_steps(1.0, path.dt, "the unit window 1.0")
    z = z_series(path, eps, -1.0, n + 1, path.dt)
    return float(z.min()), float(z.max())


# -- diagnostics ------------------------------------------------------------


def sublinearity_report(
    path: Path, thresholds: list[float] | None = None
) -> list[tuple[float, float]]:
    """Suprema of |omega(t)/t| over grid times with |t| >= T, per threshold T.

    Wiener paths grow slower than linearly, so over an ensemble these
    suprema drift down as T grows; a single path only makes that plausible,
    which is all a sampled window can show.
    """
    times = path.grid_times()
    vals = path.grid_values()
    extent = max(abs(float(times[0])), abs(float(times[-1])))
    if thresholds is None:
        thresholds = [extent / 20.0, extent / 10.0, extent / 5.0, extent / 2.0]
    out: list[tuple[float, float]] = []
    for T in sorted(thresholds):
        if T <= 0.0:
            raise ConfigurationError("thresholds must be positive")
        mask = np.abs(times) >= T
        if not mask.any():
            raise ConfigurationError(
                f"threshold T={T} exceeds the path window extent {extent}"
            )
        out.append((float(T), float(np.max(np.abs(vals[mask] / times[mask])))))
    return out

"""Problem data for the damped reaction-diffusion equation.

The continuous model is

    du + (lam * u - Laplace u) dt = f(x, u) dt + g(t, x) dt + eps * u o dW

on the whole space, truncated for computation to a grid's centered box.  This module
holds the structural data (damping, nonlinearity, forcing), canonical
instances used throughout tests and experiments, and a certifier that scans
the structural growth/dissipativity conditions the estimates rely on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError
from .field import Grid, gaussian, gaussian_width_sq, lattice_points

Pointwise = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f(x, s) with the constants of its structure conditions.

    All callables are vectorized: ``f(points, s)`` takes coordinates of shape
    (n, dim) and states of shape (n,).  The psi functions map points to
    nonnegative bounds.  The conditions certified by
    :func:`check_hypotheses`:

    - dissipativity:    f(x,s)*s <= -alpha1*|s|^p + psi1(x)
    - growth:           |f(x,s)| <= alpha2*|s|^(p-1) + psi2(x)
    - slope bound:      d f/d s <= alpha3
    - space gradient:   |d f/d x| <= psi3(x)
    - slope growth:     |d f/d s| <= alpha4*|s|^(p-2) + psi4(x)

    The marching kernel needs z*f(x, v/z) and looks for structure on ``f``
    itself, once per march.  It first follows ``__wrapped__`` (set by
    ``functools.wraps``) to the innermost callable.  If that is a
    :class:`CubicReaction`, the kernel computes the conjugated form
    a3*v - (sc/z^2)*v^3 directly and never calls ``f``, so a
    ``functools.wraps`` wrapper must not change f's values.  Any other
    ``f``, a plain wrapper of a :class:`CubicReaction` included, is called
    on v/z at every step.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_ds: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    p: float
    psi1: Pointwise
    psi2: Pointwise
    psi3: Pointwise
    psi4: Pointwise

    def __post_init__(self):
        if self.p < 2.0:
            raise ConfigurationError(f"growth exponent p must be >= 2, got {self.p}")


@dataclass(frozen=True)
class Forcing:
    """Deterministic forcing g(t, x) with its exponential memory weight delta.

    ``g(t, points)`` is vectorized over points of shape (n, dim).  ``t`` is a
    scalar or a ``(k, 1)`` array of times (the solver passes one time per
    run and step of a block of steps, the quadratures one per node); g then
    returns shape (k, n), or shape (n,) if it does not depend on t.  delta
    controls the weight exp(delta * s) under which the forcing's past must
    be integrable; it is validated against the damping at spec assembly.

    The marching kernel looks for structure on ``g`` as it does on
    :attr:`Nonlinearity.f`: it follows ``__wrapped__`` to the innermost
    callable, and if that is a :class:`TanhGaussian` it reads the profile
    once per march and forms z*g as (z*amplitude(t))*profile, without
    calling ``g``.  Any other ``g``, a plain wrapper included, is called
    once per block of steps.
    """

    g: Callable[[float, np.ndarray], np.ndarray]
    delta: float


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that defines one problem instance, solver and noise aside:
    the noise intensity is an argument of every run, and the box that
    truncates the whole space is the grid's; neither is problem data."""

    lam: float
    nonlinearity: Nonlinearity
    forcing: Forcing

    def __post_init__(self):
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigurationError(f"lambda must be positive, got {self.lam!r}")
        if not 0.0 <= self.forcing.delta < self.lam:
            raise ConfigurationError(
                f"forcing delta must lie in [0, lambda)="
                f"[0, {self.lam}), got {self.forcing.delta!r}"
            )


# -- canonical instances ----------------------------------------------------


def _const(value: float) -> Pointwise:
    return lambda pts: np.full(len(pts), float(value))


@dataclass(frozen=True)
class CubicReaction:
    """The reaction f(x, s) = a3*s - sc*s^3 of :func:`canonical_cubic`.

    Called as ``f(pts, s)``.  Its conjugated form is
    z*f(x, v/z) = a3*v - (sc/z^2)*v^3, which the marching kernel computes
    without dividing by z (see :class:`Nonlinearity`).
    """

    a3: float
    sc: float

    def __call__(self, pts, s):
        # a3*s - sc*(s*s*s) in that order, in place on two fresh arrays, so
        # the bits are those of the expression; s*s*s, not s**3: numpy hands
        # a cube to libm's pow, about 85 times slower on negative values
        c = s * s
        c *= s
        c *= self.sc
        r = self.a3 * s
        r -= c
        return r


@dataclass(frozen=True)
class TanhGaussian:
    """The forcing g(t, x) = amplitude(t) * profile(x) of
    :func:`canonical_forcing`, with amplitude(t) = amp * (1 + tanh t)/2 and
    profile(x) = exp(-|x|^2 / w2).

    Called as ``g(t, pts)``; ``t`` may be an array, whose shape the
    amplitude keeps.  The marching kernel uses the two factors on their own
    (see :class:`Forcing`).
    """

    amp: float
    w2: float

    def amplitude(self, t):
        return self.amp * (0.5 * (1.0 + np.tanh(t)))

    def profile(self, pts: np.ndarray) -> np.ndarray:
        return gaussian(pts, self.w2)

    def __call__(self, t, pts: np.ndarray) -> np.ndarray:
        return self.amplitude(t) * self.profile(pts)


def canonical_cubic(alpha3: float, scale: float = 1.0) -> Nonlinearity:
    """f(x, s) = alpha3*s - scale*s^3, x-independent, with sharp constants.

    p = 4.  The dissipativity constant alpha1 = scale/2 comes with
    psi1 = alpha3^2/(2*scale), the supremum of alpha3*s^2 - (scale/2)*s^4;
    the growth bound uses alpha2 = scale + 1 with psi2 absorbing the linear
    part; the slope growth bound is exact with alpha4 = 3*scale, psi4 = alpha3.
    """
    if not alpha3 > 0.0 or not scale > 0.0:  # NaN included
        raise ConfigurationError("alpha3 and scale must be positive")
    a3 = float(alpha3)
    sc = float(scale)
    try:
        psi1, psi2 = a3**2 / (2.0 * sc), 2.0 * a3**1.5 / (3.0 * np.sqrt(3.0))
    except OverflowError:  # a float power raises where a product gives inf
        psi1 = psi2 = np.inf
    if not (np.isfinite(psi1) and np.isfinite(psi2)):
        raise ConfigurationError(
            f"alpha3 is too large for scale {sc!r}: alpha3^2/(2*scale) overflows, got {alpha3!r}"
        )
    return Nonlinearity(
        f=CubicReaction(a3, sc),
        df_ds=lambda pts, s: a3 - 3.0 * sc * s**2,
        df_dx=lambda pts, s: np.zeros_like(pts),
        alpha1=sc / 2.0,
        alpha2=sc + 1.0,
        alpha3=a3,
        alpha4=3.0 * sc,
        p=4.0,
        psi1=_const(psi1),
        psi2=_const(psi2),
        psi3=_const(0.0),
        psi4=_const(a3),
    )


def canonical_forcing(amplitude: float, delta: float, width: float = 1.0) -> Forcing:
    """Localized forcing that switches on around t = 0:

    g(t, x) = amplitude * (1 + tanh t)/2 * exp(-|x|^2 / width^2).

    Bounded in time, decaying into the far past, spatially concentrated.
    ``t`` may be a ``(k, 1)`` array of times, giving one row per time.  A
    call of g computes the spatial profile afresh, so a points array changed
    in place between calls is read as it is now; the marching kernel reads
    the profile once per march instead (:class:`Forcing`).
    """
    amp = float(amplitude)
    if not np.isfinite(amp):
        raise ConfigurationError(f"amplitude must be finite, got {amp!r}")
    return Forcing(g=TanhGaussian(amp, gaussian_width_sq(width)), delta=float(delta))


def zero_forcing(delta: float = 0.0) -> Forcing:
    return Forcing(
        g=lambda t, pts: np.zeros(np.broadcast_shapes(np.shape(t), (len(pts),))),
        delta=float(delta),
    )


# -- quadrature helpers -----------------------------------------------------

# values of g (times x points) that one call evaluates when g is wanted at
# many times: the quadratures below and the solver's forcing blocks.  At
# 32K values (256 KB) a 1D march at m=129 takes 254 steps per call; twice
# that was no faster and added twice the peak memory
_FORCING_BLOCK = 1 << 15


def forcing_norm_sq(forcing: Forcing, grid: Grid, t: float) -> float:
    """Squared grid L2 norm of g(t, .), plain quadrature over all points."""
    g = np.asarray(forcing.g(t, grid.points), dtype=float)
    return float(grid.cell_volume * np.sum(g**2))


def forcing_norms_sq(forcing: Forcing, grid: Grid, times: np.ndarray) -> np.ndarray:
    """:func:`forcing_norm_sq` at each of ``times``, bit for bit.

    g is called once per block of times, as a ``(block, 1)`` array, with
    at most about ``_FORCING_BLOCK`` values per block; each row is summed
    on its own, so the result does not depend on the blocking.
    """
    times = np.asarray(times, dtype=float)
    pts = grid.points
    per = max(1, _FORCING_BLOCK // len(pts))
    out = np.empty(len(times))
    for i in range(0, len(times), per):
        t = times[i : i + per, None]
        # a g that ignores t's shape gives one row for the whole block
        g = np.broadcast_to(np.asarray(forcing.g(t, pts), dtype=float), (len(t), len(pts)))
        out[i : i + per] = grid.cell_volume * np.sum(g**2, axis=1)
    return out


def forcing_memory_integral(
    forcing: Forcing, grid: Grid, tau: float, horizon: float, nodes: int = 2001
) -> float:
    """Trapezoid of exp(delta*s) * ||g(s,.)||^2 over s in [tau-horizon, tau].

    Stabilizing as the horizon grows is the integrability condition the
    pullback estimates place on the forcing's past.
    """
    if horizon <= 0.0 or nodes < 2:
        raise ConfigurationError("horizon must be positive and nodes >= 2")
    s = np.linspace(tau - horizon, tau, nodes)
    vals = np.exp(forcing.delta * s) * forcing_norms_sq(forcing, grid, s)
    return float(np.trapezoid(vals, s))


# -- hypothesis certification -----------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Worst slack per structure condition over a deterministic scan lattice.

    Slack is (bound - quantity); negative slack means the condition fails at
    the recorded point.  Violations are reported, not thrown: the caller
    judges each slack against its own tolerance.
    """

    slacks: dict[str, float]
    worst_points: dict[str, tuple[float, ...]]


_CONDITIONS = ("dissipativity", "growth", "slope_bound", "space_gradient", "slope_growth")


def check_hypotheses(
    spec: ProblemSpec, grid: Grid, n_samples: int = 17, s_range: float = 5.0
) -> HypothesisReport:
    """Scan the five structure conditions on a lattice over grid's box x [-s_range, s_range]."""
    if n_samples < 2:
        raise ConfigurationError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if s_range <= 0.0:
        raise ConfigurationError(f"s_range must be positive, got {s_range!r}")
    nl = spec.nonlinearity
    ax = np.linspace(-grid.radius, grid.radius, n_samples)
    xpts = lattice_points(ax, grid.dimension)
    svals = np.linspace(-s_range, s_range, n_samples)

    # All (x, s) pairs, flattened.
    nx = len(xpts)
    ns = len(svals)
    X = np.repeat(xpts, ns, axis=0)
    S = np.tile(svals, nx)

    fv = np.asarray(nl.f(X, S), dtype=float)
    fs = np.asarray(nl.df_ds(X, S), dtype=float)
    fx = np.asarray(nl.df_dx(X, S), dtype=float)
    if fx.ndim == 1:
        fx = fx[:, None]
    fx_mag = np.sqrt((fx**2).sum(axis=1))

    abs_s = np.abs(S)
    slack = {
        "dissipativity": (-nl.alpha1 * abs_s**nl.p + nl.psi1(X)) - fv * S,
        "growth": (nl.alpha2 * abs_s ** (nl.p - 1.0) + nl.psi2(X)) - np.abs(fv),
        "slope_bound": nl.alpha3 - fs,
        "space_gradient": nl.psi3(X) - fx_mag,
        "slope_growth": (nl.alpha4 * abs_s ** (nl.p - 2.0) + nl.psi4(X)) - np.abs(fs),
    }

    slacks: dict[str, float] = {}
    worst: dict[str, tuple[float, ...]] = {}
    for name in _CONDITIONS:
        arr = slack[name]
        i = int(np.argmin(arr))
        slacks[name] = float(arr[i])
        worst[name] = tuple(float(c) for c in X[i]) + (float(S[i]),)
    return HypothesisReport(slacks=slacks, worst_points=worst)


# -- configuration parsing ---------------------------------------------------


class Keyed:
    """A context that reports a ConfigurationError whose message starts with
    one of ``keys`` under that key's config path.  A run function or
    constructor names the argument it refuses first, and ``keys`` maps each
    argument to the path of the value it was read from; any other error
    passes as it is."""

    def __init__(self, keys: Mapping[str, str]):
        self.keys = keys

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, ConfigurationError):
            name, _, rule = str(exc).partition(" ")
            if name in self.keys:
                raise ConfigurationError(f"{self.keys[name]} {rule}") from None


class ConfigSection(Keyed):
    """A config section, read key by key.

    Every value is named by its dotted path from the root, such as
    ``config.spec.nonlinearity.scale`` or ``config.upper-semi.ensemble[1]``:
    the path of a section read by :meth:`section` is its key's path.  Each
    read checks its value, names that path in any error and records the
    key, as does a membership test.  ``read`` records what each read
    returned: the raw value or its default, the number that ``number`` and
    ``integer`` make of it, or a sub-section's own record, so it holds every
    default and none of the caller's dicts.  Used as a context manager, the
    section reports a refusal that starts with one of its keys under that
    key's path, as :class:`Keyed` does, and once it is read it rejects the
    keys it was never asked for, so the first bad key in reading order is
    reported, and an unknown key only after every known one.
    """

    def __init__(self, raw, where: str):
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"{where} must be a mapping, got {raw!r}")
        super().__init__({})
        self.raw, self.where = raw, where
        self.read: dict = {}

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        unknown = set(self.raw) - self.keys.keys()
        if exc_type is None and unknown:
            raise ConfigurationError(
                f"unknown key(s) {sorted(unknown)} in {self.where}; "
                f"allowed: {sorted(self.keys)}"
            )

    def __contains__(self, key: str) -> bool:
        self.keys[key] = self.path(key)
        return key in self.raw

    def path(self, key: str) -> str:
        return f"{self.where}.{key}"

    def get(self, key: str, default=None):
        """The key's raw value; without a default the key is required."""
        if key not in self and default is None:
            raise ConfigurationError(f"{self.path(key)} is required")
        self.read[key] = self.raw.get(key, default)
        return self.read[key]

    def section(self, key: str, default=None) -> ConfigSection:
        """The key's value read as a section at the key's path, whose record
        is the key's."""
        section = ConfigSection(self.get(key, default), self.path(key))
        self.read[key] = section.read
        return section

    def number(self, key: str, default: float | None = None) -> float:
        self.read[key] = self.as_number(self.get(key, default), self.path(key))
        return self.read[key]

    def integer(self, key: str, default: int | None = None, least: int | None = None) -> int:
        self.read[key] = self.as_integer(self.get(key, default), self.path(key), least)
        return self.read[key]

    def kind(self, *kinds: str) -> str:
        kind = self.get("kind")
        self.check(kind in kinds, "kind",
                   f"names an unknown kind {kind!r} (have: {', '.join(kinds)})")
        return kind

    def check(self, ok: bool, key: str, rule: str) -> None:
        """Reject the section unless ``ok``: the value of ``key`` breaks ``rule``."""
        if not ok:
            raise ConfigurationError(f"{self.path(key)} {rule}")

    @staticmethod
    def as_number(value, where: str) -> float:
        """A finite number; JSON's NaN and Infinity, integers too large for a
        float, and bools are rejected."""
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            not abs(value) <= sys.float_info.max  # false for NaN
        ):
            raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
        return float(value)

    @staticmethod
    def as_integer(value, where: str, least: int | None = None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{where} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ConfigurationError(f"{where} must be an integer >= {least}, got {value!r}")
        return value


def _section(config: Mapping | ConfigSection, where: str) -> ConfigSection:
    return config if isinstance(config, ConfigSection) else ConfigSection(config, where)


def nonlinearity_from_config(config: Mapping | ConfigSection) -> Nonlinearity:
    """Read a nonlinearity from a plain mapping or from a section."""
    with _section(config, "nonlinearity") as r:
        r.kind("cubic")
        return canonical_cubic(r.number("alpha3"), r.number("scale", 1.0))


def forcing_from_config(config: Mapping | ConfigSection) -> Forcing:
    """Read a forcing from a plain mapping or from a section."""
    with _section(config, "forcing") as r:
        if r.kind("tanh_gaussian", "zero") == "zero":
            return zero_forcing(r.number("delta", 0.0))
        return canonical_forcing(r.number("amplitude"), r.number("delta"), r.number("width", 1.0))


def spec_from_config(config: Mapping | ConfigSection) -> ProblemSpec:
    """Assemble a ProblemSpec from a plain mapping, or from a section whose
    other keys the caller has read; unknown keys are rejected."""
    with _section(config, "spec") as r:
        return ProblemSpec(
            lam=r.number("lambda"),
            nonlinearity=nonlinearity_from_config(r.section("nonlinearity")),
            forcing=forcing_from_config(r.section("forcing")),
        )

"""Problem data for the damped reaction-diffusion equation.

The continuous model is

    du + (lam * u - Laplace u) dt = f(x, u) dt + g(t, x) dt + eps * u o dW

on the whole space, truncated for computation to a centered box.  This module
holds the structural data (damping, nonlinearity, forcing), canonical
instances used throughout tests and experiments, and a certifier that scans
the structural growth/dissipativity conditions the estimates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError
from .field import Grid

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
    scalar or, when the solver marches a stack of runs, a ``(k, 1)`` array
    of per-run times; g then returns shape (k, n), or shape (n,) if it does
    not depend on t.  delta controls the weight exp(delta * s) under which
    the forcing's past must be integrable; it is validated against the
    damping at spec assembly.
    """

    g: Callable[[float, np.ndarray], np.ndarray]
    delta: float


@dataclass(frozen=True)
class ProblemSpec:
    """Everything that defines one problem instance, solver aside."""

    lam: float
    epsilon: float
    dimension: int
    domain_radius: float
    nonlinearity: Nonlinearity
    forcing: Forcing

    def __post_init__(self):
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigurationError(f"lambda must be positive, got {self.lam!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must lie in [0, 1], got {self.epsilon!r}"
            )
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (self.domain_radius > 0.0):
            raise ConfigurationError(
                f"domain_radius must be positive, got {self.domain_radius!r}"
            )
        if not 0.0 <= self.forcing.delta < self.lam:
            raise ConfigurationError(
                f"forcing delta must lie in [0, lambda)="
                f"[0, {self.lam}), got {self.forcing.delta!r}"
            )


def grid_for(spec: ProblemSpec, points_per_axis: int) -> Grid:
    return Grid(spec.dimension, spec.domain_radius, points_per_axis)


# -- canonical instances ----------------------------------------------------


def _const(value: float) -> Pointwise:
    return lambda pts: np.full(len(pts), float(value))


def canonical_cubic(alpha3: float, scale: float = 1.0) -> Nonlinearity:
    """f(x, s) = alpha3*s - scale*s^3, x-independent, with sharp constants.

    p = 4.  The dissipativity constant alpha1 = scale/2 comes with
    psi1 = alpha3^2/(2*scale), the supremum of alpha3*s^2 - (scale/2)*s^4;
    the growth bound uses alpha2 = scale + 1 with psi2 absorbing the linear
    part; the slope growth bound is exact with alpha4 = 3*scale, psi4 = alpha3.
    """
    if alpha3 <= 0.0 or scale <= 0.0:
        raise ConfigurationError("alpha3 and scale must be positive")
    a3 = float(alpha3)
    sc = float(scale)
    return Nonlinearity(
        f=lambda pts, s: a3 * s - sc * s**3,
        df_ds=lambda pts, s: a3 - 3.0 * sc * s**2,
        df_dx=lambda pts, s: np.zeros_like(pts),
        alpha1=sc / 2.0,
        alpha2=sc + 1.0,
        alpha3=a3,
        alpha4=3.0 * sc,
        p=4.0,
        psi1=_const(a3**2 / (2.0 * sc)),
        psi2=_const(2.0 * a3**1.5 / (3.0 * np.sqrt(3.0))),
        psi3=_const(0.0),
        psi4=_const(a3),
    )


def _frozen(a: np.ndarray) -> bool:
    """True when neither ``a`` nor any array it views can be written, so
    its values cannot change under a reader."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def canonical_forcing(amplitude: float, delta: float, width: float = 1.0) -> Forcing:
    """Localized forcing that switches on around t = 0:

    g(t, x) = amplitude * (1 + tanh t)/2 * exp(-|x|^2 / width^2).

    Bounded in time, decaying into the far past, spatially concentrated.
    ``t`` may be a ``(k, 1)`` array of times, giving one row per time.  The
    spatial profile of the last read-only points array (such as
    :attr:`Grid.points`) is kept and reused; any other points array is
    evaluated afresh on every call.
    """
    if width <= 0.0:
        raise ConfigurationError("width must be positive")
    if delta < 0.0:
        raise ConfigurationError("delta must be nonnegative")
    amp = float(amplitude)
    w2 = float(width) ** 2
    kept: list = [None, None]  # the last read-only points array, its profile

    def profile(pts: np.ndarray) -> np.ndarray:
        frozen = _frozen(pts)
        if frozen and pts is kept[0]:
            return kept[1]
        values = np.exp(-(pts**2).sum(axis=1) / w2)
        if frozen:
            kept[:] = pts, values
        return values

    def g(t, pts: np.ndarray) -> np.ndarray:
        return amp * (0.5 * (1.0 + np.tanh(t))) * profile(pts)

    return Forcing(g=g, delta=float(delta))


def zero_forcing(delta: float = 0.0) -> Forcing:
    return Forcing(
        g=lambda t, pts: np.zeros(np.broadcast_shapes(np.shape(t), (len(pts),))),
        delta=float(delta),
    )


# -- quadrature helpers -----------------------------------------------------


def forcing_norm_sq(forcing: Forcing, grid: Grid, t: float) -> float:
    """Squared grid L2 norm of g(t, .), plain quadrature over all points."""
    g = np.asarray(forcing.g(t, grid.points), dtype=float)
    return float(grid.cell_volume * np.sum(g**2))


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
    vals = np.array(
        [np.exp(forcing.delta * si) * forcing_norm_sq(forcing, grid, si) for si in s]
    )
    return float(np.trapezoid(vals, s))


# -- hypothesis certification -----------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Worst slack per structure condition over a deterministic scan lattice.

    Slack is (bound - quantity); negative slack beyond the tolerance means
    the condition fails at the recorded point.  Violations are reported, not
    thrown: the caller decides what a failed certificate means.
    """

    slacks: dict[str, float]
    worst_points: dict[str, tuple[float, ...]]
    tolerance: float
    passed: bool


_CONDITIONS = ("dissipativity", "growth", "slope_bound", "space_gradient", "slope_growth")


def check_hypotheses(
    spec: ProblemSpec, n_samples: int = 17, s_range: float = 5.0, tolerance: float = 1e-12
) -> HypothesisReport:
    """Scan the five structure conditions on a lattice over box x [-s_range, s_range]."""
    if n_samples < 2:
        raise ConfigurationError("n_samples must be at least 2")
    if s_range <= 0.0:
        raise ConfigurationError("s_range must be positive")
    nl = spec.nonlinearity
    ax = np.linspace(-spec.domain_radius, spec.domain_radius, n_samples)
    if spec.dimension == 1:
        xpts = ax[:, None]
    else:
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        xpts = np.stack([xx.ravel(), yy.ravel()], axis=1)
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
    passed = all(v >= -tolerance for v in slacks.values())
    return HypothesisReport(
        slacks=slacks, worst_points=worst, tolerance=tolerance, passed=passed
    )


# -- configuration parsing ---------------------------------------------------


def _reject_unknown(section: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _require(section: Mapping, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"missing key '{key}' in {where}")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    return float(value)


def nonlinearity_from_config(section: Mapping, where: str = "nonlinearity") -> Nonlinearity:
    _reject_unknown(section, {"kind", "alpha3", "scale"}, where)
    kind = _require(section, "kind", where)
    if kind != "cubic":
        raise ConfigurationError(f"{where}.kind: unknown kind {kind!r} (have: cubic)")
    alpha3 = _number(_require(section, "alpha3", where), f"{where}.alpha3")
    scale = _number(section.get("scale", 1.0), f"{where}.scale")
    return canonical_cubic(alpha3, scale)


def forcing_from_config(section: Mapping, where: str = "forcing") -> Forcing:
    _reject_unknown(section, {"kind", "amplitude", "delta", "width"}, where)
    kind = _require(section, "kind", where)
    if kind == "zero":
        _reject_unknown(section, {"kind", "delta"}, where)
        return zero_forcing(_number(section.get("delta", 0.0), f"{where}.delta"))
    if kind != "tanh_gaussian":
        raise ConfigurationError(
            f"{where}.kind: unknown kind {kind!r} (have: tanh_gaussian, zero)"
        )
    amplitude = _number(_require(section, "amplitude", where), f"{where}.amplitude")
    delta = _number(_require(section, "delta", where), f"{where}.delta")
    width = _number(section.get("width", 1.0), f"{where}.width")
    return canonical_forcing(amplitude, delta, width)


def spec_from_config(config: Mapping) -> ProblemSpec:
    """Assemble a ProblemSpec from a plain mapping; unknown keys are rejected."""
    allowed = {"lambda", "epsilon", "dimension", "domain_radius", "nonlinearity", "forcing"}
    _reject_unknown(config, allowed, "spec")
    lam = _number(_require(config, "lambda", "spec"), "spec.lambda")
    epsilon = _number(_require(config, "epsilon", "spec"), "spec.epsilon")
    dimension = _require(config, "dimension", "spec")
    if dimension not in (1, 2):
        raise ConfigurationError(f"spec.dimension must be 1 or 2, got {dimension!r}")
    radius = _number(_require(config, "domain_radius", "spec"), "spec.domain_radius")
    nl_section = _require(config, "nonlinearity", "spec")
    if not isinstance(nl_section, Mapping):
        raise ConfigurationError("spec.nonlinearity must be a mapping")
    fc_section = _require(config, "forcing", "spec")
    if not isinstance(fc_section, Mapping):
        raise ConfigurationError("spec.forcing must be a mapping")
    return ProblemSpec(
        lam=lam,
        epsilon=epsilon,
        dimension=dimension,
        domain_radius=radius,
        nonlinearity=nonlinearity_from_config(nl_section, "spec.nonlinearity"),
        forcing=forcing_from_config(fc_section, "spec.forcing"),
    )

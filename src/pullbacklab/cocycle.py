"""The solution cocycle of the stochastic equation.

For noise intensity eps and a two-sided path omega, the solution operator

    phi(t, tau, omega, u0)

advances initial data u0 given at time tau by a duration t >= 0.  It is
computed pathwise: conjugate the data with z = exp(-eps * omega), march the
conjugated equation along the shifted path (the shift re-bases the path so
the driving increments are read relative to the start of the run), then
unconjugate at the end time.  Written out, with ``w = shift(omega, -tau)``:

    phi(t, tau, omega, u0) = v(tau + t) / z_w(tau + t),
    v solves the conjugated equation on [tau, tau + t] along w,
    v(tau) = z_w(tau) * u0,

where z_w(s) = exp(-eps * w(s)).  Two algebraic identities are load-bearing
and tested bitwise: phi(0, ...) is the identity, and the pullback state
phi(t, tau - t, shift(omega, -t), u0) equals the direct right-hand evaluation
:func:`pullback_state` because nested shifts collapse to one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .field import Field, l2_norm
from .model import ProblemSpec
from .noise import _SNAP, Path, shift, z_factor
from .solver import SolverConfig, final_state, final_states, steps_between


def _check_lattice(value: float, dt: float, name: str) -> None:
    ratio = value / dt
    if abs(ratio - round(ratio)) > _SNAP:
        raise ConfigurationError(
            f"{name}={value!r} does not sit on the dt={dt!r} lattice"
        )


@dataclass(frozen=True)
class CocycleQuery:
    """One cocycle evaluation: duration, start time, path, intensity, data."""

    t: float
    tau: float
    path: Path
    epsilon: float
    u0: Field
    spec: ProblemSpec
    cfg: SolverConfig

    def __post_init__(self):
        if self.t < 0.0:
            raise ConfigurationError(f"duration t must be nonnegative, got {self.t!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must lie in [0, 1], got {self.epsilon!r}"
            )
        _check_lattice(self.t, self.cfg.dt, "t")
        _check_lattice(self.tau, self.cfg.dt, "tau")


def phi(q: CocycleQuery) -> Field:
    """Evaluate the cocycle.  phi(0, ...) returns u0 itself, bit for bit."""
    n = steps_between(0.0, q.t, q.cfg.dt)
    if n == 0:
        return q.u0
    spec = replace(q.spec, epsilon=q.epsilon)
    w = shift(q.path, -q.tau)
    v0 = q.u0.with_values(q.u0.values * z_factor(w, q.epsilon, q.tau))
    v_end = final_state(v0, q.tau, q.tau + q.t, w, spec, q.cfg)
    z_end = z_factor(w, q.epsilon, q.tau + q.t)
    return v_end.with_values(v_end.values / z_end)


def pullback_states(
    ts: Sequence[float],
    tau: float,
    paths: Sequence[Path],
    epsilons: Sequence[float],
    u0s: Sequence[Field],
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> tuple[Field, ...]:
    """:func:`pullback_state` for many columns at once, marched as one stack.

    Column i pulls ``u0s[i]`` back over its own horizon ``ts[i]`` to the
    shared time ``tau`` along ``paths[i]`` at intensity ``epsilons[i]``.
    All columns end at ``tau``, so a column joins the stack when its own
    start time ``tau - ts[i]`` comes (:func:`~pullbacklab.solver.final_states`);
    a column with a zero horizon hands its data back untouched.  Every
    column equals its own :func:`pullback_state` bit for bit; a divergence
    raises at the own time of the first column to diverge.
    """
    if not len(ts) == len(paths) == len(epsilons) == len(u0s):
        raise ConfigurationError(
            "need one horizon, one path and one intensity per initial state"
        )
    for t in ts:
        if t < 0.0:
            raise ConfigurationError(f"horizon t must be nonnegative, got {t!r}")
        _check_lattice(t, cfg.dt, "t")
    _check_lattice(tau, cfg.dt, "tau")
    marched = [i for i, t in enumerate(ts) if steps_between(0.0, t, cfg.dt)]
    if not marched:
        return tuple(u0s)
    ws = {i: shift(paths[i], -tau) for i in marched}
    v0s = [
        u0s[i].with_values(u0s[i].values * z_factor(ws[i], epsilons[i], tau - ts[i]))
        for i in marched
    ]
    ends = final_states(
        v0s,
        [tau - ts[i] for i in marched],
        tau,
        [ws[i] for i in marched],
        [epsilons[i] for i in marched],
        spec,
        cfg,
    )
    out = list(u0s)
    for i, v_end in zip(marched, ends):
        out[i] = v_end.with_values(v_end.values / z_factor(ws[i], epsilons[i], tau))
    return tuple(out)


def pullback_state(
    t: float,
    tau: float,
    path: Path,
    epsilon: float,
    u0: Field,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> Field:
    """State at time tau of the run started at tau - t from u0, along ``path``
    re-based so the observation time is its origin.

    This is the pullback evaluation phi(t, tau - t, shift(path, -t), u0),
    written directly against the right-hand side so no intermediate path
    objects are created; both routes agree bitwise and a test holds them to
    that.  The one-column case of :func:`pullback_states`.
    """
    return pullback_states((t,), tau, (path,), (epsilon,), (u0,), spec, cfg)[0]


def verify_cocycle_property(
    t: float,
    s: float,
    tau: float,
    path: Path,
    epsilon: float,
    u0: Field,
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> float:
    """Relative L2 residual of the composition law

        phi(t + s, tau, omega, u0)  vs  phi(t, tau + s, shift(omega, s), phi(s, tau, omega, u0)).

    Exactly 0.0 when s == 0 or t == 0; otherwise pure floating-point noise,
    since both routes traverse the same lattice of path samples.
    """
    if t < 0.0 or s < 0.0:
        raise ConfigurationError("durations t and s must be nonnegative")
    _check_lattice(t, cfg.dt, "t")
    _check_lattice(s, cfg.dt, "s")
    _check_lattice(tau, cfg.dt, "tau")
    lhs = phi(CocycleQuery(t + s, tau, path, epsilon, u0, spec, cfg))
    mid = phi(CocycleQuery(s, tau, path, epsilon, u0, spec, cfg))
    rhs = phi(CocycleQuery(t, tau + s, shift(path, s), epsilon, mid, spec, cfg))
    num = float(
        np.sqrt(u0.grid.cell_volume * np.sum((lhs.values - rhs.values) ** 2))
    )
    return num / max(1.0, l2_norm(lhs))

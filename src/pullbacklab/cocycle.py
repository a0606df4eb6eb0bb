"""The solution cocycle of the stochastic equation.

For noise intensity eps and a two-sided path omega, the solution operator

    phi(t, tau, omega, u0)

advances initial data u0 given at time tau by a duration t >= 0.  It is
computed pathwise: conjugate the data with z = exp(-eps * omega), march the
conjugated equation along the shifted path, then unconjugate at the end
time.  Written out, with ``w = shift(omega, -tau)``:

    phi(t, tau, omega, u0) = v(tau + t) / z_w(tau + t),
    v solves the conjugated equation on [tau, tau + t] along w,
    v(tau) = z_w(tau) * u0,

where z_w(s) = exp(-eps * w(s)).  Every run of the stochastic equation
enters this change of variables one way, :func:`_rebased`: the path is
re-based at tau, the cocycle's own time, and the data conjugated at the
run's start.  A run that reports u leaves it here too, divided by z_w:
:func:`phi` and :func:`pullback_states` at their end, :func:`phi_states` at
every state it stores.  For a forward run (``phi``, ``phi_states`` and so
``simulate``, and the ``decay-rate`` fit) tau is the start; for a pullback
run, which starts at tau - t, it is the observation time at the run's end,
since phi(t, tau - t, shift(omega, -t), u0) is re-based at tau too.  Two
algebraic identities are load-bearing and tested bitwise: phi(0, ...) is the
identity, and that pullback state equals the direct right-hand evaluation
:func:`pullback_state` because nested shifts collapse to one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .field import Field, Quadrature
from .model import ProblemSpec
from .noise import Path, lattice_steps, shift, z_factor
from .solver import SolverConfig, _warn_boundary_leak, final_states, stored_values


def _rebased(
    path: Path, epsilon: float, tau: float, start: float, u0: Field, dt: float
) -> tuple[Path, Field]:
    """The path re-based at ``tau``, ``w = shift(path, -tau)``, and ``u0``
    conjugated at the run's ``start``, ``z_w(start) * u0``: the one way into
    the conjugated equation, for every run of the stochastic one.  It holds
    the one rule on ``tau``, which must sit on the lattice of the solver
    step ``dt``, so every run refuses an off-lattice tau before any step."""
    lattice_steps(tau, dt, f"tau={tau!r}")
    w = shift(path, -tau)
    return w, u0.with_values(u0.values * z_factor(w, epsilon, start))


def _endpoints(
    starts: Sequence[float],
    end: float,
    tau: float,
    paths: Sequence[Path],
    epsilons: Sequence[float],
    u0s: Sequence[Field],
    spec: ProblemSpec,
    cfg: SolverConfig,
) -> tuple[Field, ...]:
    """phi for every column, marched as one stack: column i from ``u0s[i]``
    at ``starts[i]`` to the shared ``end`` along ``paths[i]`` re-based at
    ``tau``, at intensity ``epsilons[i]``, and unconjugated at ``end``.
    Every column is checked (:func:`~pullbacklab.solver.final_states`); one
    with nothing to march, which ``final_states`` hands back as its own
    object, hands its data back as given."""
    columns = zip(paths, epsilons, starts, u0s, strict=True)
    rebased = [_rebased(path, eps, tau, start, u0, cfg.dt) for path, eps, start, u0 in columns]
    v0s = [v0 for _, v0 in rebased]
    ends = final_states(v0s, starts, end, [w for w, _ in rebased], epsilons, spec, cfg)
    return tuple(
        u0 if v is v0 else v.with_values(v.values / z_factor(w, eps, end))
        for u0, (w, v0), eps, v in zip(u0s, rebased, epsilons, ends)
    )


def phi(
    t: float, tau: float, path: Path, epsilon: float,
    u0: Field, spec: ProblemSpec, cfg: SolverConfig,
) -> Field:
    """Evaluate the cocycle phi(t, tau, path, u0) at intensity ``epsilon``.
    Before any step it rejects a negative or off-lattice ``t``, an
    intensity outside [0, 1] and an off-lattice ``tau``.  phi(0, ...)
    returns u0 itself, bit for bit."""
    return _endpoints((tau,), tau + t, tau, (path,), (epsilon,), (u0,), spec, cfg)[0]


def phi_states(
    t: float, tau: float, path: Path, epsilon: float,
    u0: Field, spec: ProblemSpec, cfg: SolverConfig, stride: int,
):
    """Yield (time, values) for every state the run of :func:`phi` stores,
    as :func:`~pullbacklab.solver.stored_values` streams its one column at
    ``stride``, each unconjugated into one reused buffer that is valid
    until the next ``next``; for t > 0 the last values are
    ``phi(...).values`` bit for bit.  The first ``next`` checks what
    :func:`phi` checks, and the stride, before any step.  No :class:`Field`
    has checked the values, so a consumer reduces them through a
    :class:`~pullbacklab.field.Quadrature` pass, which checks them as a
    Field would."""
    w, v0 = _rebased(path, epsilon, tau, tau, u0, cfg.dt)
    column, u = ((v0,), tau, tau + t, (w,), (epsilon,)), np.empty(u0.grid.shape)
    for s, v in stored_values(*column, spec, cfg, stride):
        np.divide(v[0], z_factor(w, epsilon, float(s)), out=u)
        yield s, u


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
    a column with a zero horizon is checked as any other (its intensity,
    and its path's window at ``tau``) and hands its data back untouched.  Every
    column equals its own :func:`pullback_state` bit for bit; a divergence
    raises at the own time of the first column to diverge.
    """
    if not len(ts) == len(paths) == len(epsilons) == len(u0s):
        raise ConfigurationError(
            "need one horizon, one path and one intensity per initial state"
        )
    return _endpoints([tau - t for t in ts], tau, tau, paths, epsilons, u0s, spec, cfg)


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
    since both routes traverse the same lattice of path samples.  phi(s, ...)
    and phi(t + s, ...) are one run, streamed once: the two calls' bits and leaks.
    """
    for name, duration in (("t", t), ("s", s)):
        if duration < 0.0:
            raise ConfigurationError(f"{name} must be nonnegative, got {duration!r}")
    n_t = lattice_steps(t, cfg.dt, f"t={t!r}")
    n_s = lattice_steps(s, cfg.dt, f"s={s!r}")
    lhs, mid = u0.values, u0  # phi(0, ...) is u0 itself
    if n_t + n_s:
        w, v0 = _rebased(path, epsilon, tau, tau, u0, cfg.dt)
        column = ((v0,), tau, tau + (t + s), (w,), (epsilon,))
        for j, (_, v) in enumerate(stored_values(*column, spec, cfg, n_s or n_t)):
            if j == 1:
                v_s = v.copy()  # at tau + s, or at the end when s == 0
        lhs = v[0] / z_factor(w, epsilon, tau + (t + s))
        if n_s:
            _warn_boundary_leak(v_s)  # the end of phi(s, tau, ...)'s run
            mid = u0.with_values(v_s[0] / z_factor(w, epsilon, tau + s))
    rhs = phi(t, tau + s, shift(path, s), epsilon, mid, spec, cfg)
    quad = Quadrature(u0.grid)
    num = quad.norms(lhs - rhs.values, h1=False)[0]
    return num / max(1.0, quad.norms(lhs, h1=False)[0])

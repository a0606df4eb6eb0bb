"""Solution-operator axioms on the discrete lattice.

Identity and composition hold exactly here, not just to solver accuracy:
both sides of each law traverse the same base-path samples and the same
conjugation factors, so the floating-point sequences coincide.
"""

import warnings

import numpy as np
import pytest

from pullbacklab import cocycle, solver
from pullbacklab.cocycle import (
    phi,
    pullback_state,
    pullback_states,
    verify_cocycle_property,
)
from pullbacklab.errors import ConfigurationError, OutOfWindowError
from pullbacklab.field import Grid, Quadrature, gaussian_bump, l2_norm, zero_field
from pullbacklab.noise import sample_path, shift
from pullbacklab.solver import SolverConfig

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")


@pytest.fixture(scope="module")
def wide_path():
    return sample_path(2, -6.0, 6.0, 1e-3)


def phi_args(desk_spec, desk_cfg, path, **overrides):
    """The arguments of :func:`phi`, in its order."""
    grid = Grid(1, 8.0, 129)
    defaults = dict(
        t=0.5,
        tau=0.25,
        path=path,
        epsilon=0.5,
        u0=gaussian_bump(grid, 1.0, 1.5),
        spec=desk_spec,
        cfg=desk_cfg,
    )
    defaults.update(overrides)
    return tuple(defaults.values())


def test_identity_at_t_zero_is_bitwise(desk_spec, desk_cfg, wide_path):
    q = phi_args(desk_spec, desk_cfg, wide_path, t=0.0)
    out = phi(*q)
    assert out is q[4]


@pytest.mark.parametrize("dimension, m, t", [(1, 129, 0.5), (2, 33, 0.06)])
def test_phi_states_ends_at_phi_and_stores_as_stored_values(
    desk_spec, wide_path, dimension, m, t
):
    # a stride of 7 divides neither 500 nor 60 steps, so the last state is
    # the endpoint, off the stride
    spec, cfg = desk_spec, SolverConfig(dt=1e-3)
    u0 = gaussian_bump(Grid(dimension, 8.0, m), 1.0, 1.5)
    q = (t, 0.25, wide_path, 0.3, u0, spec, cfg)
    stream = [(s, u.copy()) for s, u in cocycle.phi_states(*q, 7)]
    assert stream[-1][1].tobytes() == phi(*q).values.tobytes()
    w, v0 = cocycle._rebased(wide_path, 0.3, 0.25, 0.25, u0, cfg.dt)
    stored = solver.stored_values((v0,), 0.25, 0.25 + t, (w,), (0.3,), spec, cfg, 7)
    assert [s for s, _ in stream] == [s for s, _ in stored]
    assert len(stream) == round(t / 1e-3) // 7 + 2


def test_composition_residual_vanishes(desk_spec, desk_cfg, wide_path):
    grid = Grid(1, 8.0, 129)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    residual = verify_cocycle_property(
        1.0, 0.5, 0.25, wide_path, 0.5, u0, desk_spec, desk_cfg
    )
    # the two routes see identical lattice samples and conjugation factors
    assert residual <= 1e-13


def test_composition_residual_has_the_bits_of_the_plain_quadrature(
    monkeypatch, desk_spec, desk_cfg, wide_path
):
    # the oracle is the formula the residual replaced, sqrt(h^N * sum(d**2))
    # over the two routes' states, relative to the left one's L2 norm; the
    # routes can agree to the last bit, so the right one is moved off by a
    # small bump to make the numerator nonzero whatever the BLAS kernels
    grid = Grid(1, 8.0, 129)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    states = []

    def recorded(*q):
        out = phi(*q)  # the right route's second leg, the one phi call
        out = out.with_values(out.values + 1e-9 * u0.values)
        states.append(out)
        return out

    monkeypatch.setattr(cocycle, "phi", recorded)
    residual = verify_cocycle_property(0.5, 0.25, 0.0, wide_path, 0.5, u0, desk_spec, desk_cfg)
    (rhs,) = states
    lhs = phi(0.75, 0.0, wide_path, 0.5, u0, desk_spec, desk_cfg)
    vol = grid.cell_volume
    num = float(np.sqrt(vol * np.sum((lhs.values - rhs.values) ** 2)))
    den = max(1.0, float(np.sqrt(vol * np.sum(lhs.values**2))))
    assert residual > 0.0
    assert residual == num / den


def test_a_zero_horizon_column_is_checked_as_any_other(desk_spec, desk_cfg, wide_path):
    # an intensity of 5 is refused on a column with nothing to march, alone
    # or beside one that marches, and a good one comes back as u0 itself
    u0 = gaussian_bump(Grid(1, 8.0, 129), 1.0, 1.5)
    with pytest.raises(ConfigurationError, match="intensity"):
        pullback_states((0.0,), 0.0, (wide_path,), (5.0,), (u0,), desk_spec, desk_cfg)
    with pytest.raises(ConfigurationError, match="intensity"):
        pullback_states(
            (0.5, 0.0), 0.0, (wide_path,) * 2, (0.5, 5.0), (u0, u0), desk_spec, desk_cfg
        )
    out = pullback_states(
        (0.5, 0.0), 0.0, (wide_path,) * 2, (0.5, 0.5), (u0, u0), desk_spec, desk_cfg
    )
    assert out[1] is u0


def test_a_zero_horizon_column_must_lie_in_its_path_window(desk_spec, desk_cfg):
    # the path's window [-0.5, 0.5] does not reach tau = 3, where the column
    # is re-based, whether it pulls back over nothing or runs for no time
    short = sample_path(3, -0.5, 0.5, 1e-3)
    u0 = gaussian_bump(Grid(1, 8.0, 129), 1.0, 1.5)
    with pytest.raises(OutOfWindowError):
        pullback_states((0.0,), 3.0, (short,), (0.5,), (u0,), desk_spec, desk_cfg)
    with pytest.raises(OutOfWindowError):
        phi(0.0, 3.0, short, 0.5, u0, desk_spec, desk_cfg)


def test_composition_with_zero_legs_is_exact(desk_spec, desk_cfg, wide_path):
    grid = Grid(1, 8.0, 129)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    assert verify_cocycle_property(0.0, 0.5, 0.0, wide_path, 0.5, u0, desk_spec, desk_cfg) == 0.0
    assert verify_cocycle_property(0.5, 0.0, 0.0, wide_path, 0.5, u0, desk_spec, desk_cfg) == 0.0


@pytest.mark.parametrize("t, s, marches", [(1.0, 0.5, 2), (0.0, 0.5, 1), (1.0, 0.0, 2)])
def test_composition_marches_its_shared_leg_once(
    monkeypatch, desk_spec, desk_cfg, wide_path, t, s, marches
):
    # phi(s, tau, ...) and phi(t + s, tau, ...) are one run, read off one
    # stream; the residual has the bits, and the leak warnings the order and
    # magnitudes, of the three phi calls
    u0 = gaussian_bump(Grid(1, 8.0, 129), 1.0, 3.0)
    tau = 0.25
    with warnings.catch_warnings(record=True) as three:
        warnings.simplefilter("always")
        lhs = phi(t + s, tau, wide_path, 0.5, u0, desk_spec, desk_cfg)
        mid = phi(s, tau, wide_path, 0.5, u0, desk_spec, desk_cfg)
        rhs = phi(t, tau + s, shift(wide_path, s), 0.5, mid, desk_spec, desk_cfg)
    quad = Quadrature(u0.grid)
    num = quad.norms(lhs.values - rhs.values, h1=False)[0]
    want = num / max(1.0, quad.norms(lhs.values, h1=False)[0])
    calls = []
    march = solver._march

    def counted(*args, **kwargs):
        calls.append(None)
        return march(*args, **kwargs)

    monkeypatch.setattr(solver, "_march", counted)
    with warnings.catch_warnings(record=True) as one:
        warnings.simplefilter("always")
        got = verify_cocycle_property(t, s, tau, wide_path, 0.5, u0, desk_spec, desk_cfg)
    assert got == want
    assert [str(w.message) for w in one] == [str(w.message) for w in three]
    assert len(three) == 1 + (s > 0.0) + (t > 0.0)  # every march leaks
    assert got == 0.0 or (t > 0.0 and s > 0.0)
    assert len(calls) == marches


def test_pullback_agrees_with_the_direct_route(desk_spec, desk_cfg, wide_path):
    # starting at tau - t with the noise shifted by -t is the pullback
    # construction spelled out by hand; both routes flatten to the same
    # re-based path and traverse the same samples, so they agree bitwise
    grid = Grid(1, 8.0, 129)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    t, tau, eps = 2.0, 0.5, 0.5
    pulled = pullback_state(t, tau, wide_path, eps, u0, desk_spec, desk_cfg)
    direct = phi(t, tau - t, shift(wide_path, -t), eps, u0, desk_spec, desk_cfg)
    assert np.array_equal(pulled.values, direct.values)


def test_cocycle_contracts_initial_data(desk_spec, desk_cfg, wide_path):
    grid = Grid(1, 8.0, 129)
    a = gaussian_bump(grid, 1.0, 1.5)
    b = zero_field(grid)
    qa = phi_args(desk_spec, desk_cfg, wide_path, t=2.0, u0=a)
    qb = phi_args(desk_spec, desk_cfg, wide_path, t=2.0, u0=b)
    out_gap = l2_norm(phi(*qa).with_values(phi(*qa).values - phi(*qb).values))
    in_gap = l2_norm(a)
    assert out_gap < in_gap


@pytest.mark.parametrize(
    "override, message",
    [
        ({"t": -1.0}, "is negative"),
        ({"t": 0.0015}, "off the lattice"),  # off the dt lattice
        ({"tau": 0.00025}, "tau=0.00025 is not a multiple"),
        ({"epsilon": 1.0001}, r"intensity must lie in \[0, 1\]"),
        ({"epsilon": 1.5}, r"intensity must lie in \[0, 1\]"),
    ],
)
@pytest.mark.parametrize("route", ["phi", "phi_states"])
def test_query_validation(monkeypatch, desk_spec, desk_cfg, wide_path, override, message, route):
    # phi and its stream refuse each bad argument before any step
    def no_march(*args, **kwargs):
        raise AssertionError("the kernel was entered")

    monkeypatch.setattr(solver, "_march", no_march)
    q = phi_args(desk_spec, desk_cfg, wide_path, **override)
    with pytest.raises(ConfigurationError, match=message):
        if route == "phi":
            phi(*q)
        else:
            next(cocycle.phi_states(*q, 1))
    # nothing to march: phi hands the data back as given
    q = phi_args(desk_spec, desk_cfg, wide_path, t=0.0)
    assert phi(*q) is q[4]


@pytest.mark.parametrize("stride", [0, -1, 2.5, True])
def test_phi_states_refuses_a_bad_stride_before_any_step(
    monkeypatch, desk_spec, desk_cfg, wide_path, stride
):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected stride must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    q = phi_args(desk_spec, desk_cfg, wide_path)
    with pytest.raises(ConfigurationError, match="stride must be a positive integer"):
        next(cocycle.phi_states(*q, stride))


def test_pullback_epsilon_zero_ignores_the_path(desk_spec, desk_cfg, wide_path):
    grid = Grid(1, 8.0, 129)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    other = sample_path(99, -6.0, 6.0, 1e-3)
    a = pullback_state(1.0, 0.0, wide_path, 0.0, u0, desk_spec, desk_cfg)
    b = pullback_state(1.0, 0.0, other, 0.0, u0, desk_spec, desk_cfg)
    assert np.array_equal(a.values, b.values)


def test_pushed_pullback_limit_tracks_shifted_driving(desk_spec, desk_cfg):
    # pushing a deep pullback limit forward by s should land (up to the
    # residual attraction error at this depth) on the pullback limit
    # observed at tau + s over the s-shifted driving, from any start
    path = sample_path(2, -14.0, 6.0, 1e-3)
    grid = Grid(1, 8.0, 129)
    depth, tau, s = 10.0, 1.0, 2.0
    u0 = gaussian_bump(grid, 1.0, 1.5)
    other = gaussian_bump(grid, -0.5, 2.0)
    ustar = pullback_state(depth, tau, path, 0.5, u0, desk_spec, desk_cfg)
    pushed = phi(s, tau, path, 0.5, ustar, desk_spec, desk_cfg)
    target = pullback_state(
        depth, tau + s, shift(path, s), 0.5, other, desk_spec, desk_cfg
    )
    gap = l2_norm(pushed.with_values(pushed.values - target.values))
    assert gap <= 1e-4 * (1.0 + l2_norm(target))

"""Shared fixtures: one desk-scale problem instance and a cached noise path.

The boundary-leak monitor fires by design on desk runs with mild damping
(the state sits around 1e-7 next to the artificial boundary, above the 1e-8
trust threshold).  Tests that exercise those runs filter the warning
explicitly so an unexpected leak elsewhere still surfaces.

Every test must leave no child process behind, reaped or running: a forked
march worker that outlives its march is a leak.
"""

import os

import pytest

from pullbacklab.model import (
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
    grid_for,
)
from pullbacklab.noise import sample_path
from pullbacklab.solver import SolverConfig


@pytest.fixture(autouse=True)
def no_child_left_behind():
    yield
    # waitpid(-1) raises only when this process has no child at all; a
    # running child gives (0, 0), an unreaped one its pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def desk_spec() -> ProblemSpec:
    return ProblemSpec(
        lam=2.0,
        epsilon=0.5,
        dimension=1,
        domain_radius=8.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )


@pytest.fixture(scope="session")
def desk_grid(desk_spec):
    return grid_for(desk_spec, 129)


@pytest.fixture()
def desk_cfg() -> SolverConfig:
    return SolverConfig(dt=1e-3)


@pytest.fixture(scope="session")
def desk_path():
    return sample_path(1, -4.0, 4.0, 1e-3)

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


def pytest_report_header(config):
    """numpy, its BLAS and the CPU count: a 1D solve's bits, which the
    stack-against-alone tests compare, come from the BLAS kernels.  A
    DYNAMIC_ARCH OpenBLAS names the core it was built for; the CPU's SIMD
    extensions decide which kernels it picks at run time."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}; cpus {os.cpu_count()}"
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {}).get("found", [])
    return (
        f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}"
        f" (built as: {blas.get('openblas configuration', 'no core named')});"
        f" simd {' '.join(simd) or 'baseline'}; cpus {os.cpu_count()}"
    )


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

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

from pullbacklab.field import Grid
from pullbacklab.model import (
    ProblemSpec,
    canonical_cubic,
    canonical_forcing,
)
from pullbacklab.noise import sample_path
from pullbacklab.solver import SolverConfig


def _openblas_core(np) -> str | None:
    """The core a DYNAMIC_ARCH OpenBLAS picked at run time, asked of the
    library numpy ships under ``numpy.libs``; None where that library or
    its ``scipy_openblas_get_corename64_`` symbol is missing."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pytest_report_header(config):
    """numpy, its BLAS and the CPU count: a 1D solve's bits, which the
    stack-against-alone tests compare, come from the BLAS kernels.  A
    DYNAMIC_ARCH OpenBLAS names the core it was built for in its build
    configuration, but picks its kernels by the core it finds at run time,
    so the header names both."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}; cpus {os.cpu_count()}"
    blas = info.get("Build Dependencies", {}).get("blas", {})
    simd = info.get("SIMD Extensions", {}).get("found", [])
    return (
        f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}"
        f" (built as: {blas.get('openblas configuration', 'no core named')};"
        f" running: {_openblas_core(np) or 'core not reported'});"
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
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )


@pytest.fixture(scope="session")
def desk_grid():
    return Grid(1, 8.0, 129)


@pytest.fixture()
def desk_cfg() -> SolverConfig:
    return SolverConfig(dt=1e-3)


@pytest.fixture(scope="session")
def desk_path():
    return sample_path(1, -4.0, 4.0, 1e-3)

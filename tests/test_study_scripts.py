"""Smoke tests for scripts/equilibrium_study.py and scripts/convergence_study.py.

Both scripts import library names at the top, so loading them by path fails
here, not at their next manual run, when a name they use is removed.
"""

import importlib.util
import os
import sys
import warnings

from pullbacklab.errors import BoundaryLeakWarning
from pullbacklab.field import Grid
from pullbacklab.model import ProblemSpec, zero_forcing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    path = os.path.join(REPO_ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equilibrium_study_runs_a_small_case(tmp_path, monkeypatch):
    study = load_script("equilibrium_study")
    argv = ["equilibrium_study.py", "--taus", "0", "--points", "17", "--dt", "0.01"]
    monkeypatch.setattr(sys, "argv", argv + ["--out", str(tmp_path)])
    # main ignores BoundaryLeakWarning process-wide; keep that to this test
    with warnings.catch_warnings():
        study.main()
    rows = (tmp_path / "equilibrium_study.csv").read_text().splitlines()
    assert rows[0] == "tau,l2,h1,converged,invariance_gap"
    assert len(rows) == 2


def test_convergence_study_loads_and_matches_the_recurrence():
    study = load_script("convergence_study")
    assert callable(study.main)
    spec = ProblemSpec(
        lam=2.0, nonlinearity=study.zero_reaction(), forcing=zero_forcing(),
    )
    with warnings.catch_warnings():
        # a sine mode reaches the ring next to the boundary by construction
        warnings.simplefilter("ignore", BoundaryLeakWarning)
        assert study.eigenmode_error(spec, Grid(1, 8.0, 17), 1, 1e-3, 20) < 1e-12

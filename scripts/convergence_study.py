"""Order-of-accuracy study for the semi-implicit marching scheme.

Reports observed temporal orders on a dt ladder (expected near 1), spatial
orders on a nested grid ladder (expected near 2), and the error of a pure
eigenmode run against the exact one-step recurrence (expected at rounding
level).

Usage:
    python3 scripts/convergence_study.py
"""

from __future__ import annotations

import argparse
import warnings

import numpy as np

from pullbacklab.errors import BoundaryLeakWarning
from pullbacklab.field import Grid, eigenmode, eigenmode_rate, gaussian_bump
from pullbacklab.model import (
    Nonlinearity,
    ProblemSpec,
    canonical_cubic,
    zero_forcing,
)
from pullbacklab.noise import flat_path
from pullbacklab.solver import (
    SolverConfig,
    integrate_deterministic,
    self_convergence,
    spatial_convergence,
)


def zero_reaction() -> Nonlinearity:
    """f identically zero, so the scheme reduces to the exact recurrence."""
    const_one = lambda pts: np.ones(len(pts))
    return Nonlinearity(
        f=lambda pts, s: np.zeros_like(s),
        df_ds=lambda pts, s: np.zeros_like(s),
        df_dx=lambda pts, s: np.zeros_like(s),
        alpha1=1.0, alpha2=1.0, alpha3=0.0, alpha4=1.0, p=2.0,
        psi1=const_one, psi2=const_one, psi3=const_one, psi4=const_one,
    )


def eigenmode_error(spec: ProblemSpec, grid: Grid, mode: int, dt: float, steps: int) -> float:
    """Max abs gap between the marched eigenmode and the exact recurrence."""
    v0 = eigenmode(grid, mode)
    mu = eigenmode_rate(grid, mode)
    cfg = SolverConfig(dt=dt)
    traj = integrate_deterministic(v0, 0.0, steps * dt, spec, cfg)
    factor = (1.0 + dt * (spec.lam + mu)) ** (-steps)
    return float(np.max(np.abs(traj.final.values - factor * v0.values)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=129)
    args = parser.parse_args()
    # sine modes have support up to the ring next to the boundary, so the
    # leak monitor fires by construction on the recurrence runs
    warnings.simplefilter("ignore", BoundaryLeakWarning)

    spec = ProblemSpec(
        lam=2.0,
        nonlinearity=canonical_cubic(1.0),
        forcing=zero_forcing(),
    )
    grid = Grid(1, 8.0, args.points)
    u0 = gaussian_bump(grid, 1.0, 2.0)
    path = flat_path(-1.0, args.horizon + 1.0, 5e-4)

    temporal = self_convergence(
        u0, args.horizon, path, 0.5, spec, [8e-3, 4e-3, 2e-3, 1e-3, 5e-4]
    )
    print("temporal self-convergence")
    for dt, diff in zip(temporal.parameters, temporal.differences):
        print(f"  dt={dt:9.2e}  successive diff={diff:12.6e}")
    print(f"  observed orders: {[round(o, 3) for o in temporal.orders]}")

    spatial = spatial_convergence(
        lambda pts: np.exp(-(pts**2).sum(axis=1) / 4.0),
        0.5, path, 0.5, spec, SolverConfig(dt=5e-4), Grid(1, 8.0, 33), 4,
    )
    print("spatial self-convergence")
    for m, diff in zip(spatial.parameters, spatial.differences):
        print(f"  m={int(m):4d}  successive diff={diff:12.6e}")
    print(f"  observed orders: {[round(o, 3) for o in spatial.orders]}")

    lin_spec = ProblemSpec(
        lam=2.0, nonlinearity=zero_reaction(), forcing=zero_forcing(),
    )
    print("eigenmode recurrence error (reaction switched off)")
    for mode in (1, 3, 7):
        err = eigenmode_error(lin_spec, grid, mode, 1e-3, 200)
        print(f"  mode={mode}  max abs err={err:.3e}")


if __name__ == "__main__":
    main()

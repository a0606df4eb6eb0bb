"""Track the random fixed point along one noise path.

Computes the pullback limit at a ladder of observation times on a shared
path, then checks the defining invariance: pushing the fixed point forward
by one time unit lands on the fixed point of the unit-shifted path.

Usage:
    python3 scripts/equilibrium_study.py --seed 7 --taus 0 1 2 --out results
"""

from __future__ import annotations

import argparse
import os
import warnings

from pullbacklab.attractor import compute_equilibrium
from pullbacklab.cocycle import phi, pullback_state
from pullbacklab.errors import BoundaryLeakWarning
from pullbacklab.field import Grid, gaussian_bump, l2_norm, h1_norm
from pullbacklab.model import ProblemSpec, canonical_cubic, canonical_forcing
from pullbacklab.noise import sample_path, shift
from pullbacklab.solver import SolverConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--lam", type=float, default=2.0)
    parser.add_argument("--taus", type=float, nargs="+", default=[0.0, 1.0, 2.0])
    parser.add_argument("--depth", type=float, default=24.0,
                        help="deepest pullback horizon in the schedule")
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--points", type=int, default=129)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    spec = ProblemSpec(
        lam=args.lam,
        nonlinearity=canonical_cubic(1.0),
        forcing=canonical_forcing(0.5, 0.5, 1.0),
    )
    grid = Grid(1, 8.0, args.points)
    cfg = SolverConfig(dt=args.dt)
    u0 = gaussian_bump(grid, 1.0, 1.5)
    u0_other = gaussian_bump(grid, -0.5, 2.0)

    schedule = [1.0, 2.0, 4.0, 8.0, 16.0]
    if args.depth > schedule[-1]:
        schedule.append(args.depth)
    lo = min(-(max(args.taus) + schedule[-1]), 0.0) - 2.0
    hi = max(args.taus) + 2.0
    path = sample_path(args.seed, lo, hi, args.dt)

    os.makedirs(args.out, exist_ok=True)
    rows = ["tau,l2,h1,converged,invariance_gap"]
    warnings.simplefilter("ignore", BoundaryLeakWarning)
    for tau in args.taus:
        res = compute_equilibrium(tau, path, args.epsilon, spec, cfg, u0, schedule)
        # push the fixed point forward one unit; the result must match the
        # fixed point observed at tau + 1 along the unit-shifted path, no
        # matter which initial data seeded that second pullback
        pushed = phi(1.0, tau, path, args.epsilon, res.state, spec, cfg)
        target = pullback_state(
            schedule[-1], tau + 1.0, shift(path, 1.0), args.epsilon,
            u0_other, spec, cfg,
        )
        gap = l2_norm(pushed.with_values(pushed.values - target.values))
        rows.append(
            f"{tau},{l2_norm(res.state)!r},{h1_norm(res.state)!r},"
            f"{res.converged},{gap!r}"
        )
        print(
            f"tau={tau:6.2f}  l2={l2_norm(res.state):.6f}  h1={h1_norm(res.state):.6f}"
            f"  converged={res.converged}  invariance gap={gap:.3e}"
        )

    target_path = os.path.join(args.out, "equilibrium_study.csv")
    with open(target_path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    print(f"wrote {target_path}")


if __name__ == "__main__":
    main()

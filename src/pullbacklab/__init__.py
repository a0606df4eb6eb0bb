"""Numerical laboratory for the pullback dynamics of a damped reaction-diffusion
equation on the whole space, driven by multiplicative white noise.

The driving noise enters through a scalar conjugation factor, so every
trajectory of the stochastic equation is computed as a pathwise-deterministic
PDE solve.  The subpackages split along that seam:

- ``noise``     two-sided Wiener paths, the time-shift group, conjugation factors
- ``model``     problem data (damping, nonlinearity, forcing) and its certification
- ``field``     grids, discrete fields, norms, quadratures and eigenmodes
- ``solver``    semi-implicit time stepping of the conjugated equation
- ``cocycle``   the solution cocycle and its algebraic checks
- ``attractor`` pullback experiments: equilibria, attraction, tails, truncation
- ``cli``       configuration-driven experiment runner
"""

__version__ = "0.1.0"

"""Numerical workbench for a torus-confined rotating electromagnetic wave.

The package evaluates the closed-form field ansatz, verifies all four
Maxwell equations by one exact-derivative residual each (Faraday also
pinning omega = 2c/R0), computes the electron observables (RMS charge, magnetic
moment, spin angular momentum, total energy) by toroidal-volume
quadrature, solves the three-constraint parameter fit, and compares
everything against the published reference numbers.

Each name is imported from its submodule, e.g.
``from toroidal_em.solver import solve_full``.
"""

__version__ = "0.1.0"

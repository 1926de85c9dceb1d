"""Numerical workbench for a torus-confined rotating electromagnetic wave.

The package evaluates the closed-form field ansatz, verifies all four
Maxwell equations by one finite-difference residual each (Faraday also
pinning omega = 2c/R0), computes the electron observables (RMS charge, magnetic
moment, spin angular momentum, total energy) by toroidal-volume
quadrature, solves the three-constraint parameter fit, and compares
everything against the published reference numbers.
"""

from .constants import (CODATA, DerivedScales, PhysicalConstants,
                        codata_constants, derived_scales)
from .fields import AnsatzParams
from .geometry import TorusGeometry, build_grid, integrate
from .maxwell import ResidualReport, SamplingConfig, full_verification
from .observables import ObservableSet, compute_observables
from .report import FullReport, build_full_report, render
from .solver import (ConstraintSystem, RatioReport, SolveResult,
                     ratio_report, solve_full, solve_thin_torus)

__version__ = "0.1.0"

__all__ = [
    "CODATA",
    "PhysicalConstants",
    "DerivedScales",
    "codata_constants",
    "derived_scales",
    "TorusGeometry",
    "build_grid",
    "integrate",
    "AnsatzParams",
    "SamplingConfig",
    "ResidualReport",
    "full_verification",
    "ObservableSet",
    "compute_observables",
    "ConstraintSystem",
    "SolveResult",
    "RatioReport",
    "solve_thin_torus",
    "solve_full",
    "ratio_report",
    "FullReport",
    "build_full_report",
    "render",
    "__version__",
]

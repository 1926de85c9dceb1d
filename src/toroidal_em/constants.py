"""Physical constants (CODATA 2018) and derived electron reference scales.

Every other module compares its outputs against the scales defined here:
the reduced Compton wavelength, the Schwinger critical field, the Bohr
magneton, the Dirac (zitterbewegung) frequency, and the electron rest
energy.  Values are hard-coded rather than fetched so that results are
reproducible regardless of environment; mu0 is derived as 1/(eps0*c^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

# The two records here are plain frozen dataclasses, not ``scalar._record``
# ones: each is built about once per process, so the cheaper construction
# would save nothing, and ``scalar`` imports this module, so importing the
# decorator from it here would be a cycle.


@dataclass(frozen=True)
class PhysicalConstants:
    """SI electromagnetic constants; mu0 = 1/(eps0*c^2) is derived, not given."""

    c: float        # speed of light [m/s]
    eps0: float     # vacuum permittivity [F/m]
    mu0: float = field(init=False)  # vacuum permeability 1/(eps0*c^2) [H/m]
    hbar: float     # reduced Planck constant [J s]
    e_charge: float  # elementary charge magnitude [C]
    m_e: float      # electron mass [kg]
    alpha: float    # fine-structure constant

    def __post_init__(self):
        object.__setattr__(self, "mu0", 1 / (self.eps0 * self.c**2))

    def alpha_recomputed(self) -> float:
        """e^2/(4*pi*eps0*hbar*c); guards against transcription errors."""
        return self.e_charge**2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)


@dataclass(frozen=True)
class DerivedScales:
    """Electron reference scales derived from :class:`PhysicalConstants`."""

    r_c: float          # reduced Compton wavelength hbar/(m_e c) [m]
    E_S: float          # Schwinger critical field m_e^2 c^3/(e hbar) [V/m]
    mu_B: float         # Bohr magneton e hbar/(2 m_e) [A m^2]
    omega_D: float      # Dirac frequency 2 m_e c^2 / hbar [rad/s]
    rest_energy: float  # m_e c^2 [J]


@cache
def derived_scales(k: PhysicalConstants) -> DerivedScales:
    """Compute the five derived scales from a constant set, once per set.

    Both records are frozen, so every caller can share the one result.
    """
    return DerivedScales(
        r_c=k.hbar / (k.m_e * k.c),
        E_S=k.m_e**2 * k.c**3 / (k.e_charge * k.hbar),
        mu_B=k.e_charge * k.hbar / (2.0 * k.m_e),
        omega_D=2.0 * k.m_e * k.c**2 / k.hbar,
        rest_energy=k.m_e * k.c**2,
    )


# The CODATA 2018 set, shared by every module; pass an explicit
# PhysicalConstants to any function that accepts `k` to work in a
# rescaled unit system instead.
CODATA = PhysicalConstants(
    c=2.99792458e8,            # m/s (exact)
    eps0=8.8541878128e-12,     # F/m
    hbar=1.054571817e-34,      # J s
    e_charge=1.602176634e-19,  # C (exact)
    m_e=9.1093837015e-31,      # kg
    alpha=7.2973525693e-3,     # dimensionless
)

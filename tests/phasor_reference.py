"""Complex phasors of the ansatz, kept as a reference.

The package evaluates the real fields only; these phasors are the model's
written form, E = i*E0*H*e^{i psi}*(a_R + i*(1 + R/R0)*a_phi) and
B = i*(E0/c)*H*e^{i psi}*a_z, which the tests compare the real fields
against.  Components (R, phi, z) run along the leading axis.  The phase
psi = phi - omega*t and the stacking of the components are written here
and shared with no helper of the package, so an error there cannot reach
the reference and the fields alike.
"""

import numpy as np

from toroidal_em.constants import CODATA, PhysicalConstants
from toroidal_em.fields import AnsatzParams, mask


def _expo(phi, t, p: AnsatzParams):
    """e^{i psi} with psi = phi - omega*t."""
    return np.exp(1j * (np.asarray(phi, dtype=float) - p.omega * np.asarray(t, dtype=float)))


def e_phasor(R, phi, z, t, p: AnsatzParams) -> np.ndarray:
    """E_R = i*E0*e^{i psi},  E_phi = -E0*(1 + R/R0)*e^{i psi},  E_z = 0."""
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    expo = _expo(phi, t, p)
    e_r = 1j * p.E0 * h * expo
    e_phi = -p.E0 * (1.0 + R / p.R0) * h * expo
    return np.stack([e_r, e_phi, np.zeros_like(e_r)])


def b_phasor(R, phi, z, t, p: AnsatzParams, k: PhysicalConstants = CODATA) -> np.ndarray:
    """B_z = i*(E0/c)*e^{i psi}, other components zero."""
    b_z = 1j * (p.E0 / k.c) * mask(R, z, p) * _expo(phi, t, p)
    zero = np.zeros_like(b_z)
    return np.stack([zero, zero, b_z])

"""Complex phasors of the ansatz, kept as a reference.

The package evaluates the real fields only; these phasors are the model's
written form, E = i*E0*H*e^{i psi}*(a_R + i*(1 + R/R0)*a_phi) and
B = i*(E0/c)*H*e^{i psi}*a_z, which the tests compare the real fields
against.  Components (R, phi, z) run along the leading axis.
"""

import numpy as np

from toroidal_em.constants import CODATA, PhysicalConstants
from toroidal_em.fields import AnsatzParams, _phase, _vector, mask


def e_phasor(R, phi, z, t, p: AnsatzParams) -> np.ndarray:
    """E_R = i*E0*e^{i psi},  E_phi = -E0*(1 + R/R0)*e^{i psi},  E_z = 0."""
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    expo = np.exp(1j * _phase(phi, t, p))
    e_r = 1j * p.E0 * h * expo
    e_phi = -p.E0 * (1.0 + R / p.R0) * h * expo
    return _vector(e_r, e_phi, None)


def b_phasor(R, phi, z, t, p: AnsatzParams, k: PhysicalConstants = CODATA) -> np.ndarray:
    """B_z = i*(E0/c)*e^{i psi}, other components zero."""
    h = mask(R, z, p)
    b_z = 1j * (p.E0 / k.c) * h * np.exp(1j * _phase(phi, t, p))
    return _vector(None, None, b_z)

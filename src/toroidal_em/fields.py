"""Field evaluation for the torus-confined rotating-wave ansatz.

The model posits, in cylindrical components (R, phi, z) with the phase
psi = phi - omega*t and a mask H that is 1 strictly inside the torus tube
and 0 outside,

    E = i*E0*H*e^{i psi} * (a_R + i*(1 + R/R0)*a_phi)
    B = i*B0*H*e^{i psi} * a_z,           B0 = E0/c, derived from k.c.

Physical fields are the componentwise real parts:

    E_R   = -E0*sin(psi)          E_phi = -E0*(1 + R/R0)*cos(psi)
    B_z   = -(E0/c)*sin(psi)

with all other components zero.  This convention reproduces the model's
real charge density (eps0*E0/R0)*sin(psi) and its time-averaged Poynting
vector -(1/2)*eps0*c*E0^2 * a_phi.

Derived pointwise quantities follow from the real fields: the divergence
of E plays the role of a geometric charge density, the Ampere-Maxwell law
defines the current density, g = eps0*(E x B) and S = (E x B)/mu0 = c^2*g
with mu0 = 1/(eps0*c^2), so E x B is formed once, in g.  Each
formula lives once, in ``fields.py`` or its numpy-free scalar part,
:mod:`.scalar`, which holds :class:`AnsatzParams`, the per-component
field kernels and the closed forms of the four observables: the Maxwell
residuals, the observable quadratures and the field export all evaluate
those kernels.  No time average is typed: the quadratures take each
instantaneous density at the unit phase factor times the mean of sin^2
over the four phases of ``observables._PHASES``, which is its phase mean.

All evaluators broadcast over numpy arrays.  Vector-valued functions
return an array whose leading axis is the cylindrical component
(R, phi, z).  Each one computes the inputs of the :mod:`.scalar` kernels
(R and the phase's sine or cosine) from (R, phi, z, t), multiplies each
kernel's value by :func:`mask` as its last factor, and assembles its
(3, ...) array with the zero components +0.0; so the public fields read
z only through the mask, and where it reads 1.0 they equal the kernels
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .constants import CODATA, PhysicalConstants
from .scalar import (AnsatzParams, _b_z, _charge_density, _e_phi, _e_r,
                     _energy_density_model, _g_phi, _j_phi, _j_r)


def mask(R, z, p: AnsatzParams):
    """Torus-interior indicator: 1.0 where (R - R0)^2 + z^2 < r0^2, else 0.0.

    The boundary counts as outside, so every field vanishes at r = r0.
    Only ``p.R0`` and ``p.r0`` are read; a :class:`TorusGeometry` serves too.
    """
    R = np.asarray(R, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.where((R - p.R0) ** 2 + z**2 < p.r0**2, 1.0, 0.0)


def _phase(phi, t, p: AnsatzParams):
    return np.asarray(phi, dtype=float) - p.omega * np.asarray(t, dtype=float)


def _vector(v_r, v_phi, v_z) -> np.ndarray:
    """Fresh (3, ...) array of the broadcast components; ``None`` is a +0.0 one."""
    parts = (v_r, v_phi, v_z)
    live = [v for v in parts if v is not None]
    out = np.zeros((3, *np.broadcast_shapes(*map(np.shape, live))), np.result_type(*live))
    for i, v in enumerate(parts):
        if v is not None:
            out[i] = v
    return out


def real_fields(R, phi, z, t, p: AnsatzParams,
                k: PhysicalConstants = CODATA) -> tuple[np.ndarray, np.ndarray]:
    """Real instantaneous (E, B), each with component leading axis.

    E_R = -E0*sin(psi), E_phi = -E0*(1+R/R0)*cos(psi), B_z = -(E0/c)*sin(psi).
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    psi = _phase(phi, t, p)
    sin_psi = np.sin(psi)
    return (_vector(_e_r(sin_psi, p) * h, _e_phi(R, np.cos(psi), p) * h, None),
            _vector(None, None, _b_z(sin_psi, p, k) * h))


def charge_density(R, phi, z, t, p: AnsatzParams, k: PhysicalConstants = CODATA):
    """Geometric charge density eps0*div E = (eps0*E0/R0)*sin(psi) inside."""
    return _charge_density(np.sin(_phase(phi, t, p)), p, k) * mask(R, z, p)


def current_density(R, phi, z, t, p: AnsatzParams, k: PhysicalConstants = CODATA) -> np.ndarray:
    """Current density defined by Ampere-Maxwell, J = curl B/mu0 - eps0*dE/dt.

    Closed forms inside the tube:
        J_R   = -eps0*E0*(c/R + omega)*cos(psi)
        J_phi =  eps0*E0*omega*(1 + R/R0)*sin(psi)
        J_z   = 0
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    psi = _phase(phi, t, p)
    return _vector(_j_r(R, np.cos(psi), p, k) * h, _j_phi(R, np.sin(psi), p, k) * h, None)


def poynting_instantaneous(R, phi, z, t, p: AnsatzParams,
                           k: PhysicalConstants = CODATA) -> np.ndarray:
    """Instantaneous Poynting vector S = (E x B)/mu0, computed as c^2*g.

    g is :func:`momentum_density`; mu0 = 1/(eps0*c^2) makes the two equal.
    Inside: S_R = eps0*c*E0^2*(1+R/R0)*sin(psi)*cos(psi),
            S_phi = -eps0*c*E0^2*sin^2(psi), S_z = 0.
    """
    return k.c**2 * momentum_density(R, phi, z, t, p, k)


def momentum_density(R, phi, z, t, p: AnsatzParams,
                     k: PhysicalConstants = CODATA) -> np.ndarray:
    """Electromagnetic momentum density g = eps0*(E x B) from the real fields.

    Inside: g_R = (eps0*E0^2/c)*(1+R/R0)*sin(psi)*cos(psi),
            g_phi = -(eps0*E0^2/c)*sin^2(psi), g_z = 0.
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    psi = _phase(phi, t, p)
    sin_psi = np.sin(psi)
    g_r = k.eps0 * _e_phi(R, np.cos(psi), p) * _b_z(sin_psi, p, k)
    return _vector(g_r * h, _g_phi(sin_psi, p, k) * h, None)


def energy_density_model(R, phi, z, p: AnsatzParams,
                         k: PhysicalConstants = CODATA):
    """The model's normative energy density eps0*E0^2*(1 + R/(4*R0)) inside.

    Time-independent; integrating it over the torus yields the model's
    total-energy closed form.  See :func:`energy_density_em` for the
    textbook-definition diagnostic, which does not coincide with this.
    """
    R = np.asarray(R, dtype=float)
    return _energy_density_model(R, p, k) * mask(R, z, p)


def energy_density_em(R, phi, z, t, p: AnsatzParams,
                      k: PhysicalConstants = CODATA):
    """Textbook instantaneous density (1/2)*eps0*|E|^2 + |B|^2/(2*mu0).

    Diagnostic only: its time average, (1/4)*eps0*E0^2*(2 + (1+R/R0)^2),
    differs from :func:`energy_density_model`, which is the normative
    one; no report reads this function, and demo 01 prints the two side
    by side.
    """
    E, B = real_fields(R, phi, z, t, p, k)
    return 0.5 * k.eps0 * np.sum(E**2, axis=0) + np.sum(B**2, axis=0) / (2.0 * k.mu0)

"""Field evaluation for the torus-confined rotating-wave ansatz.

The model posits, in cylindrical components (R, phi, z) with the phase
psi = phi - omega*t and a mask H that is 1 strictly inside the torus tube
and 0 outside,

    E = i*E0*H*e^{i psi} * (a_R + i*(1 + R/R0)*a_phi)
    B = i*B0*H*e^{i psi} * a_z,           B0 = E0/c.

Physical fields are the componentwise real parts:

    E_R   = -E0*sin(psi)          E_phi = -E0*(1 + R/R0)*cos(psi)
    B_z   = -(E0/c)*sin(psi)

with all other components zero.  This convention reproduces the model's
real charge density (eps0*E0/R0)*sin(psi) and its time-averaged Poynting
vector -(1/2)*eps0*c*E0^2 * a_phi.

Derived pointwise quantities follow from the real fields: the divergence
of E plays the role of a geometric charge density, the Ampere-Maxwell law
defines the current density, and S = (E x B)/mu0.  This module holds the
one copy of each formula: the Maxwell residuals, the observable
quadratures (charge, moment, angular momentum, energy) and the field
export all evaluate the functions here.  So do the closed forms of the
four observables, which the observables module and the constraint solve
both evaluate.

All evaluators broadcast over numpy arrays.  Vector-valued functions
return an array whose leading axis is the cylindrical component
(R, phi, z).

Each nonzero component has one private kernel that holds its formula
and takes the mask and the phase's sine or cosine as arrays: ``_e_r``,
``_e_phi``, ``_b_z``, ``_j_r``, ``_j_phi``, and ``_charge_density`` for
rho.  :func:`real_fields`, :func:`current_density` and
:func:`charge_density` compute those inputs from (R, phi, z, t) and
assemble their (3, ...) arrays from the kernels, with the zero
components +0.0.  The Maxwell verification computes the inputs once per
distinct phase and point of its finite-difference stencil and calls only
the kernels a residual reads (table in :mod:`.maxwell`); the zero
components are never evaluated or differenced there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .geometry import TorusGeometry, inside_torus

# Relative omega mismatch |omega*R0/(2c) - 1| above which a configuration
# is detuned from the Faraday frequency 2c/R0.
FARADAY_OMEGA_TOL = 1e-9


@dataclass(frozen=True)
class AnsatzParams:
    """Free parameters of the field configuration.

    Use :meth:`faraday` to construct with the self-consistent frequency
    omega = 2c/R0; :meth:`with_omega` exists for residual experiments
    with a detuned frequency.
    """

    E0: float      # electric amplitude [V/m]
    R0: float      # major radius [m]
    r0: float      # tube radius [m]
    omega: float   # angular frequency [rad/s]
    B0: float      # magnetic amplitude [T], always E0/c

    def __post_init__(self) -> None:
        for name in ("E0", "R0", "r0", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.E0 < 0.0:
            raise ValueError("E0 must be >= 0")
        TorusGeometry(R0=self.R0, r0=self.r0)  # raises ValueError unless 0 < r0 < R0
        if self.omega < 0.0:
            raise ValueError("omega must be >= 0")

    @classmethod
    def faraday(cls, E0: float, R0: float, r0: float,
                k: PhysicalConstants = CODATA) -> "AnsatzParams":
        """Construct with the unique Faraday-consistent frequency 2c/R0."""
        return cls(E0=E0, R0=R0, r0=r0, omega=2.0 * k.c / R0, B0=E0 / k.c)

    @classmethod
    def with_omega(cls, E0: float, R0: float, r0: float, omega: float,
                   k: PhysicalConstants = CODATA) -> "AnsatzParams":
        """Construct with a free frequency (residual experiments only)."""
        return cls(E0=E0, R0=R0, r0=r0, omega=omega, B0=E0 / k.c)

    @property
    def geometry(self) -> TorusGeometry:
        return TorusGeometry(R0=self.R0, r0=self.r0)

    def is_faraday(self, k: PhysicalConstants = CODATA) -> bool:
        """True when omega matches 2c/R0 within ``FARADAY_OMEGA_TOL`` relative."""
        return abs(self.omega * self.R0 / (2.0 * k.c) - 1.0) < FARADAY_OMEGA_TOL


def mask(R, z, p: AnsatzParams):
    """Torus-interior indicator: 1.0 strictly inside the tube, else 0.0."""
    return np.where(inside_torus(R, z, p), 1.0, 0.0)


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


def e_phasor(R, phi, z, t, p: AnsatzParams) -> np.ndarray:
    """Complex E phasor, components (R, phi, z) on the leading axis.

    E_R = i*E0*e^{i psi},  E_phi = -E0*(1 + R/R0)*e^{i psi},  E_z = 0.
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    expo = np.exp(1j * _phase(phi, t, p))
    e_r = 1j * p.E0 * h * expo
    e_phi = -p.E0 * (1.0 + R / p.R0) * h * expo
    return _vector(e_r, e_phi, None)


def b_phasor(R, phi, z, t, p: AnsatzParams) -> np.ndarray:
    """Complex B phasor: B_z = i*(E0/c)*e^{i psi}, other components zero."""
    h = mask(R, z, p)
    b_z = 1j * p.B0 * h * np.exp(1j * _phase(phi, t, p))
    return _vector(None, None, b_z)


def _e_r(h, sin_psi, p: AnsatzParams):
    """E_R from the mask ``h`` and sin(psi)."""
    return -p.E0 * h * sin_psi


def _e_phi(R, h, cos_psi, p: AnsatzParams):
    """E_phi from the mask ``h`` and cos(psi)."""
    return -p.E0 * (1.0 + R / p.R0) * h * cos_psi


def _b_z(h, sin_psi, p: AnsatzParams):
    """B_z from the mask ``h`` and sin(psi)."""
    return -p.B0 * h * sin_psi


def real_fields(R, phi, z, t, p: AnsatzParams) -> tuple[np.ndarray, np.ndarray]:
    """Real instantaneous (E, B), each with component leading axis.

    E_R = -E0*sin(psi), E_phi = -E0*(1+R/R0)*cos(psi), B_z = -(E0/c)*sin(psi).
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    psi = _phase(phi, t, p)
    sin_psi = np.sin(psi)
    return (_vector(_e_r(h, sin_psi, p), _e_phi(R, h, np.cos(psi), p), None),
            _vector(None, None, _b_z(h, sin_psi, p)))


def _charge_density(h, sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """Kernel of :func:`charge_density` from the mask ``h`` and sin(psi)."""
    return k.eps0 * p.E0 / p.R0 * h * sin_psi


def charge_density(R, phi, z, t, p: AnsatzParams, k: PhysicalConstants = CODATA):
    """Geometric charge density eps0*div E = (eps0*E0/R0)*sin(psi) inside."""
    return _charge_density(mask(R, z, p), np.sin(_phase(phi, t, p)), p, k)


def _j_r(R, h, cos_psi, p: AnsatzParams, k: PhysicalConstants):
    """J_R from the mask ``h`` and cos(psi)."""
    return -k.eps0 * p.E0 * (k.c / R + p.omega) * h * cos_psi


def _j_phi(R, h, sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """J_phi from the mask ``h`` and sin(psi)."""
    return k.eps0 * p.E0 * p.omega * (1.0 + R / p.R0) * h * sin_psi


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
    return _vector(_j_r(R, h, np.cos(psi), p, k), _j_phi(R, h, np.sin(psi), p, k), None)


def poynting_instantaneous(R, phi, z, t, p: AnsatzParams,
                           k: PhysicalConstants = CODATA) -> np.ndarray:
    """Instantaneous Poynting vector S = (E x B)/mu0 from the real fields.

    Inside: S_R = eps0*c*E0^2*(1+R/R0)*sin(psi)*cos(psi),
            S_phi = -eps0*c*E0^2*sin^2(psi), S_z = 0.
    """
    E, B = real_fields(R, phi, z, t, p)
    # cross product in cylindrical components with B = (0, 0, B_z)
    s_r = E[1] * B[2] / k.mu0
    s_phi = -E[0] * B[2] / k.mu0
    return _vector(s_r, s_phi, None)


def poynting_time_average(R, phi, z, p: AnsatzParams,
                          k: PhysicalConstants = CODATA) -> np.ndarray:
    """One-period time average of S: -(1/2)*eps0*c*E0^2 * a_phi inside."""
    h = mask(R, z, p)
    s_phi = -0.5 * k.eps0 * k.c * p.E0**2 * h
    return _vector(None, s_phi, None)


def momentum_density_avg(R, phi, z, p: AnsatzParams,
                         k: PhysicalConstants = CODATA) -> np.ndarray:
    """Time-averaged electromagnetic momentum density S_avg/c^2."""
    return poynting_time_average(R, phi, z, p, k) / k.c**2


def energy_density_model(R, phi, z, p: AnsatzParams,
                         k: PhysicalConstants = CODATA):
    """The model's normative energy density eps0*E0^2*(1 + R/(4*R0)) inside.

    Time-independent; integrating it over the torus yields the model's
    total-energy closed form.  See :func:`energy_density_em` for the
    textbook-definition diagnostic, which does not coincide with this.
    """
    R = np.asarray(R, dtype=float)
    h = mask(R, z, p)
    return k.eps0 * p.E0**2 * (1.0 + R / (4.0 * p.R0)) * h


def energy_density_em(R, phi, z, t, p: AnsatzParams,
                      k: PhysicalConstants = CODATA):
    """Textbook instantaneous density (1/2)*eps0*|E|^2 + |B|^2/(2*mu0).

    Diagnostic only: its time average, (1/4)*eps0*E0^2*(2 + (1+R/R0)^2),
    differs from :func:`energy_density_model`; both are reported and
    neither is silently substituted for the other.
    """
    E, B = real_fields(R, phi, z, t, p)
    return 0.5 * k.eps0 * np.sum(E**2, axis=0) + np.sum(B**2, axis=0) / (2.0 * k.mu0)


# Closed forms of the four observables over the torus volume.  Each
# O(r0^2/R0^2) bracket is the full-corrections value; ``corrections=False``
# sets it to its thin-torus limit, as the thin constraint system does.

def _aspect2(R0, r0, corrections: bool):
    """(r0/R0)^2 as it enters the brackets: 0 without the corrections."""
    return r0**2 / R0**2 if corrections else 0.0


def _q_rms_closed(E0, r0, k: PhysicalConstants):
    """RMS charge sqrt(2)*pi^2*eps0*E0*r0^2; it has no bracket."""
    return np.sqrt(2.0) * np.pi**2 * k.eps0 * E0 * r0**2


def _mu_z_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Magnetic moment sqrt(2)*eps0*pi*c*E0*R0*r0^2*(1 + r0^2/(2R0^2))."""
    return (np.sqrt(2.0) * k.eps0 * np.pi * k.c * E0 * R0 * r0**2
            * (1.0 + _aspect2(R0, r0, corrections) / 2.0))


def _l_z_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Angular momentum (1/c)*eps0*E0^2*pi^2*R0^2*r0^2*(1 + r0^2/(4R0^2))."""
    return (k.eps0 * E0**2 * np.pi**2 * R0**2 * r0**2 / k.c
            * (1.0 + _aspect2(R0, r0, corrections) / 4.0))


def _u_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Total energy eps0*pi^2*R0*r0^2*E0^2*(5/2 + r0^2/(8R0^2))."""
    return (k.eps0 * np.pi**2 * R0 * r0**2 * E0**2
            * (2.5 + _aspect2(R0, r0, corrections) / 8.0))

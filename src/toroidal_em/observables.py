"""Electron observables of the field configuration.

:func:`compute_observables` is the one entry point.  It computes four
quantities both from printed closed forms and by quadrature over the
torus volume, each closed form and each quadrature's pointwise density
from :mod:`.scalar`:

* RMS charge: volume integral of the time-RMS of
  :func:`~toroidal_em.fields.charge_density`; matches
  sqrt(2)*pi^2*eps0*E0*r0^2.
* Magnetic moment: the closed form sqrt(2)*eps0*pi*c*E0*R0*r0^2*
  (1 + r0^2/(2R0^2)) is normative.  The quadrature member is the (1/2)
  integral of R times the time-RMS of the azimuthal
  :func:`~toroidal_em.fields.current_density`, kept as a labeled
  diagnostic: it is exactly 2*pi times the closed form for
  omega = 2c/R0, by the identity integral of R*(1 + R/R0) dV =
  4*pi^2*R0^2*r0^2*(1 + r0^2/(2R0^2)).  Reports record the ratio.
* Angular momentum about z: integral of R times the magnitude of the
  time mean of the momentum density g = eps0*(E x B)
  (:func:`~toroidal_em.fields.momentum_density`); matches
  (1/c)*eps0*E0^2*pi^2*R0^2*r0^2*(1 + r0^2/(4R0^2)).  Magnitudes are
  reported: the mean momentum circulates along -phi.
* Total energy: integral of the normative energy density, matching
  eps0*pi^2*R0*r0^2*E0^2*(5/2 + r0^2/(8R0^2)).

Plus the phase velocity omega*R0 of the wave along the axis circle,
measured from the configuration's own omega: 2c at omega = 2c/R0
(:meth:`~toroidal_em.scalar.AnsatzParams.faraday`) to within one ulp, since
the product rounds the quotient 2c/R0 back (848 of 100,000 log-uniform R0
in [1e-15, 1] m read one ulp off, 2.2e-16 relative at most; the electron
solution reads 2c exactly), and off 2c by the same relative detune
otherwise.

The wave rotates rigidly in phi, so a time-RMS or mean at fixed phi
equals one over phi at t = 0; the quadratures take the one over phi,
which a static omega = 0 configuration has too.  Every integrand is then
independent of phi: each is evaluated on the grid's (r, theta) meridian
plane and integrated with
:func:`~toroidal_em.geometry.integrate_axisymmetric`.

rho, J_phi and g_phi are each an amplitude times sin(psi) or its square,
so each time mean is the kernel at the unit phase factor
``scalar._UNIT`` (sin(psi) = 1: its amplitude, with no pass that
multiplies by 1.0) times ``_MEAN_SIN2`` = 0.5, the time average of
sin^2: the RMS of a kernel of amplitude a is sqrt(a*a*<sin^2>), and the
mean of g_phi is g_phi(1)*<sin^2>.  Each density is evaluated once on the plane,
from the :mod:`.scalar` kernels imported by name.  The mean over the four
phases 0, pi/2, pi and 3pi/2 is the same in floats: their sines are 0, 1,
1.2e-16 and -1, and (1.2e-16*a)^2 lies below half an ulp of a*a, so the
four squares sum to exactly 2*a*a.  Each quadrature therefore equals, bit
for bit, the integral of the mean or RMS of the public density functions
over those four phases on the plane, wherever that stacked mean is finite.
Every Gauss-Legendre node lies strictly inside the tube (r < r0), where
the mask reads 1.0, so no mask is evaluated.
"""

from __future__ import annotations

import numpy as np

from .constants import CODATA, PhysicalConstants
from .geometry import QuadratureGrid, integrate_axisymmetric
from .scalar import (_UNIT, AnsatzParams, _charge_density, _energy_density_model, _g_phi,
                     _j_phi, _l_z_closed, _mu_z_closed, _q_rms_closed, _record, _u_closed)

# <sin^2>, the time average of sin^2(psi).
_MEAN_SIN2 = 0.5


@_record
class ValuePair:
    """An observable evaluated by closed form and by quadrature."""

    closed_form: float
    quadrature: float

    @property
    def rel_difference(self) -> float:
        """(quadrature - closed)/closed; 0/0 for a vanishing observable."""
        if self.closed_form == 0.0:
            return 0.0 if self.quadrature == 0.0 else float("inf")
        return (self.quadrature - self.closed_form) / self.closed_form


@_record
class ObservableSet:
    """All observables for one parameter set on one grid."""

    Q_rms: ValuePair        # C
    mu_z: ValuePair         # A m^2; quadrature member is the diagnostic
    L_z: ValuePair          # J s (magnitude)
    U: ValuePair            # J
    v_phase: float          # m/s
    mu_quadrature_ratio: float  # diagnostic / closed form, 2*pi when omega = 2c/R0


def compute_observables(p: AnsatzParams, grid: QuadratureGrid,
                        k: PhysicalConstants = CODATA) -> ObservableSet:
    """Evaluate every observable for one parameter set on one grid."""
    R = grid.plane_R
    rho = _charge_density(_UNIT, p, k)
    j_phi = _j_phi(R, _UNIT, p, k)
    q = ValuePair(
        closed_form=float(_q_rms_closed(p.E0, p.r0, k)),
        quadrature=integrate_axisymmetric(np.sqrt(rho * rho * _MEAN_SIN2), grid))
    mu = ValuePair(
        closed_form=float(_mu_z_closed(p.E0, p.R0, p.r0, k)),
        quadrature=0.5 * integrate_axisymmetric(
            R * np.sqrt(j_phi * j_phi * _MEAN_SIN2), grid))
    l_z = ValuePair(
        closed_form=float(_l_z_closed(p.E0, p.R0, p.r0, k)),
        quadrature=integrate_axisymmetric(
            R * np.abs(_g_phi(_UNIT, p, k) * _MEAN_SIN2), grid))
    u = ValuePair(
        closed_form=float(_u_closed(p.E0, p.R0, p.r0, k)),
        quadrature=integrate_axisymmetric(_energy_density_model(R, p, k), grid))
    return ObservableSet(
        Q_rms=q, mu_z=mu, L_z=l_z, U=u, v_phase=p.omega * p.R0,
        mu_quadrature_ratio=(mu.quadrature / mu.closed_form
                             if mu.closed_form != 0.0 else float("nan")),
    )

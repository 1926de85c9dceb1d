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
measured from the configuration's own omega: exactly 2c at omega = 2c/R0
(:meth:`~toroidal_em.scalar.AnsatzParams.faraday`), and off 2c by the
same relative detune otherwise.

The wave rotates rigidly in phi, so a time-RMS or mean at fixed phi
equals one over phi at t = 0; each is taken over the four phases of
``_PHASES`` (through phi, so a static omega = 0 configuration is averaged too).
Every integrand is then independent of phi: each is evaluated on the
grid's (r, theta) meridian plane and integrated with
:func:`~toroidal_em.geometry.integrate_axisymmetric`.

Each plane is evaluated once, with one set of phase sines shared by
rho, J_phi and g_phi (``_PHASE_SINES``; at t = 0 the phase is phi itself,
so the set is a module constant).  The densities come from the
:mod:`.scalar` kernels, imported by name.  Every
Gauss-Legendre node lies strictly inside the tube (r < r0), where the
mask reads 1.0, so no mask is evaluated and the densities equal, bit for
bit, the public density functions evaluated on the plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .geometry import QuadratureGrid, integrate_axisymmetric
from .scalar import (AnsatzParams, _charge_density, _energy_density_model, _g_phi, _j_phi,
                     _l_z_closed, _mu_z_closed, _q_rms_closed, _u_closed)

# Equally spaced phases over one period.  For N >= 3 such phases the means
# of sin^2 and cos^2 are exactly 1/2, so the mean over them of a density
# that is quadratic in sin/cos of the phase equals its time average.
_PHASES = 0.5 * np.pi * np.arange(4)

# sin(psi) at the phases on a leading axis; psi = phi - omega*t is the
# phase itself at t = 0.
_PHASE_SINES = np.sin(_PHASES)[:, None]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ObservableSet:
    """All observables for one parameter set on one grid."""

    Q_rms: ValuePair        # C
    mu_z: ValuePair         # A m^2; quadrature member is the diagnostic
    L_z: ValuePair          # J s (magnitude)
    U: ValuePair            # J
    v_phase: float          # m/s
    mu_quadrature_ratio: float  # diagnostic / closed form, 2*pi when omega = 2c/R0


def _phase_rms(values: np.ndarray) -> np.ndarray:
    """RMS along the leading axis, which runs over ``_PHASES``."""
    return np.sqrt(np.mean(values**2, axis=0))


def compute_observables(p: AnsatzParams, grid: QuadratureGrid,
                        k: PhysicalConstants = CODATA) -> ObservableSet:
    """Evaluate every observable for one parameter set on one grid."""
    R = grid.plane_R
    q = ValuePair(
        closed_form=float(_q_rms_closed(p.E0, p.r0, k)),
        quadrature=integrate_axisymmetric(
            _phase_rms(_charge_density(_PHASE_SINES, p, k)), grid))
    mu = ValuePair(
        closed_form=float(_mu_z_closed(p.E0, p.R0, p.r0, k)),
        quadrature=0.5 * integrate_axisymmetric(
            R * _phase_rms(_j_phi(R, _PHASE_SINES, p, k)), grid))
    l_z = ValuePair(
        closed_form=float(_l_z_closed(p.E0, p.R0, p.r0, k)),
        quadrature=integrate_axisymmetric(
            R * np.abs(np.mean(_g_phi(_PHASE_SINES, p, k), axis=0)), grid))
    u = ValuePair(
        closed_form=float(_u_closed(p.E0, p.R0, p.r0, k)),
        quadrature=integrate_axisymmetric(_energy_density_model(R, p, k), grid))
    return ObservableSet(
        Q_rms=q, mu_z=mu, L_z=l_z, U=u, v_phase=p.omega * p.R0,
        mu_quadrature_ratio=(mu.quadrature / mu.closed_form
                             if mu.closed_form != 0.0 else float("nan")),
    )

"""Property tests: the observables over the whole parameter space.

For any R0 in 10^[-15, 1] m, r0/R0 in [0.01, 0.99] and E0 in
{0} U 10^[0, 20] V/m, the quadratures of Q_rms, L_z and U match their
closed forms, the moment diagnostic is 2*pi times its closed form, and
the amplitude power laws hold, at the default grid and at the coarsest
grid ``build_grid`` accepts.  On that coarsest (4, 4, 4) grid every
quadrature is its closed form to within a few ulps, the evidence a choice
of the smallest exact ``DEFAULT_RESOLUTION`` rests on.

sympy proves why: each quadrature's integrand, formed as
``compute_observables`` forms it from the ``scalar.py`` kernels at
``_UNIT``, times the Jacobian r*R with R = R0 + r*cos(theta), is a
polynomial in r and cos(theta) whose degree in r is at most 2*4 - 1 and
in cos(theta) below 4.  The 4-node Gauss-Legendre rule in r integrates
such a polynomial exactly, and so does the 4-node rectangle rule in
theta, whose error terms are the Fourier modes of theta that are
multiples of 4; every integrand is independent of phi.  So the (4, 4, 4)
grid is exact, up to rounding, for every observable.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from toroidal_em import scalar
from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams, charge_density, current_density
from toroidal_em.geometry import (DEFAULT_RESOLUTION, MIN_RESOLUTION, _torus_map,
                                  build_grid)
from toroidal_em.observables import _MEAN_SIN2, compute_observables

RESOLUTIONS = [DEFAULT_RESOLUTION, (MIN_RESOLUTION,) * 3]
CLOSED_FORM_TOL = 1e-14
COARSEST_TOL = 2e-15
SCALING_TOL = 1e-12

radii = st.tuples(st.floats(-15.0, 0.0).map(lambda e: 10.0**e), st.floats(0.01, 0.99))
amplitudes = st.floats(0.0, 20.0).map(lambda e: 10.0**e)


def observables(E0, R0, aspect, resolution):
    p = AnsatzParams.faraday(E0, R0, aspect * R0)
    return compute_observables(p, build_grid(p.geometry, resolution))


@pytest.mark.parametrize("resolution", RESOLUTIONS, ids=str)
@given(radii=radii, E0=st.one_of(st.just(0.0), amplitudes))
def test_quadratures_match_closed_forms(resolution, radii, E0):
    obs = observables(E0, *radii, resolution)
    for name in ("Q_rms", "L_z", "U"):
        assert abs(getattr(obs, name).rel_difference) <= CLOSED_FORM_TOL, name
    if E0 == 0.0:
        assert math.isnan(obs.mu_quadrature_ratio)
    else:
        assert abs(obs.mu_quadrature_ratio / (2.0 * math.pi) - 1.0) <= CLOSED_FORM_TOL


@pytest.mark.parametrize("resolution", RESOLUTIONS, ids=str)
@given(radii=radii, E0=amplitudes)
def test_amplitude_power_laws(resolution, radii, E0):
    base = observables(E0, *radii, resolution)
    tenfold = observables(10.0 * E0, *radii, resolution)
    for name, factor in (("Q_rms", 10.0), ("mu_z", 10.0), ("L_z", 100.0), ("U", 100.0)):
        for member in ("closed_form", "quadrature"):
            ratio = getattr(getattr(tenfold, name), member) / getattr(getattr(base, name), member)
            assert abs(ratio / factor - 1.0) <= SCALING_TOL, (name, member)


@given(radii=radii, E0=amplitudes)
def test_coarsest_grid_is_exact(radii, E0):
    obs = observables(E0, *radii, (MIN_RESOLUTION,) * 3)
    # the moment's quadrature member is the 2*pi diagnostic (observables.py)
    for name, factor in (("Q_rms", 1.0), ("mu_z", 2.0 * math.pi), ("L_z", 1.0), ("U", 1.0)):
        pair = getattr(obs, name)
        assert abs(pair.quadrature / (factor * pair.closed_form) - 1.0) <= COARSEST_TOL, name


R, E0, R0, omega, c, eps0 = sp.symbols("R E0 R0 omega c eps0", positive=True)
r, cos_theta, sin_theta = sp.symbols("r cos_theta sin_theta", real=True)


def integrands(j_phi=scalar._j_phi):
    """Each observable's quadrature integrand at a point of radius R, formed
    from the kernels at ``_UNIT`` as ``compute_observables`` forms it: the
    RMS of rho, (1/2)*R times the RMS of J_phi, R*|<g_phi>| and the energy
    density.  R is a positive symbol, so each RMS is the kernel's amplitude
    over sqrt(2) and each magnitude the amplitude's."""
    p = SimpleNamespace(E0=E0, R0=R0, omega=omega)
    k = dataclasses.replace(CODATA, c=c, eps0=eps0)
    mean_sin2 = sp.Rational(_MEAN_SIN2)
    rho = scalar._charge_density(scalar._UNIT, p, k)
    j = j_phi(R, scalar._UNIT, p, k)
    return {
        "Q_rms": sp.sqrt(rho * rho * mean_sin2),
        "mu_z": sp.Rational(1, 2) * R * sp.sqrt(j * j * mean_sin2),
        "L_z": R * sp.Abs(scalar._g_phi(scalar._UNIT, p, k) * mean_sin2),
        "U": scalar._energy_density_model(R, p, k),
    }


def degrees(integrand) -> tuple[int, int]:
    """(degree in r, degree in cos(theta)) of the integrand times the
    Jacobian r*R on the torus map; a PolynomialError if it is no polynomial."""
    R_map, _ = _torus_map(r, cos_theta, sin_theta, R0)
    poly = sp.Poly(sp.expand(integrand.subs(R, R_map) * r * R_map), r, cos_theta)
    return poly.degree(r), poly.degree(cos_theta)


def exact_on_the_coarsest_rule(degree_r: int, degree_cos: int) -> bool:
    """Whether n = MIN_RESOLUTION nodes per axis integrate a polynomial of
    these degrees exactly: at most 2n - 1 in r (Gauss-Legendre) and below n
    in cos(theta) (the rectangle rule)."""
    return degree_r <= 2 * MIN_RESOLUTION - 1 and degree_cos < MIN_RESOLUTION


@pytest.mark.parametrize("name", ["Q_rms", "mu_z", "L_z", "U"])
def test_coarsest_rule_is_exact_for_every_integrand(name):
    found = degrees(integrands()[name])
    assert exact_on_the_coarsest_rule(*found), (name, found)


def test_a_higher_degree_kernel_fails_the_degree_proof():
    def j_phi(R, sin_psi, p, k):  # J_phi with an added (R/R0)**4 term
        return scalar._j_phi(R, sin_psi, p, k) + k.eps0 * p.E0 * p.omega * (R / p.R0)**4 * sin_psi
    assert not exact_on_the_coarsest_rule(*degrees(integrands(j_phi)["mu_z"]))


# The net charge and the net z-moment: Q_rms and mu_z are RMS amplitudes of
# sources whose net values vanish at every instant.
phi, t = sp.symbols("phi t", real=True)
# Net value over its RMS counterpart: at most 1.8e-15 measured over 300
# random configurations, detuned ones included.
NET_TOL = 1e-13


def test_net_charge_and_net_z_moment_vanish_exactly():
    p = SimpleNamespace(E0=E0, R0=R0, omega=omega)
    k = dataclasses.replace(CODATA, c=c, eps0=eps0)
    sin_psi = sp.sin(phi - omega * t)
    rho = scalar._charge_density(sin_psi, p, k)
    R_j_phi = R * scalar._j_phi(R, sin_psi, p, k)
    for density in (rho, R_j_phi):
        assert sp.simplify(density) != 0
        assert sp.simplify(sp.integrate(density, (phi, 0, 2 * sp.pi))) == 0, density


@given(radii=radii, E0=amplitudes, omega_scale=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
       phase=st.floats(0.0, 1.0))
def test_net_charge_and_net_z_moment_vanish_at_every_instant(radii, E0, omega_scale, phase):
    R0_, aspect = radii
    tuned = AnsatzParams.faraday(E0, R0_, aspect * R0_)
    p = dataclasses.replace(tuned, omega=omega_scale * tuned.omega)
    grid = build_grid(p.geometry, DEFAULT_RESOLUTION)
    n_phi = grid.resolution[2]
    # the plane weights hold the 2*pi of the phi integral, so the uniform
    # phi rule is the mean over its nodes
    phi_ = (2.0 * math.pi / n_phi * np.arange(n_phi))[:, None]
    t_ = phase * 2.0 * math.pi / p.omega
    R_, z_ = grid.plane_R, grid.plane_z
    net_q = grid.plane_weights @ charge_density(R_, phi_, z_, t_, p).mean(axis=0)
    net_mu = 0.5 * grid.plane_weights @ (R_ * current_density(R_, phi_, z_, t_, p)[1]).mean(axis=0)
    assert abs(net_q) <= NET_TOL * scalar._q_rms_closed(p.E0, p.r0, CODATA)
    assert abs(net_mu) <= NET_TOL * scalar._mu_z_closed(p.E0, p.R0, p.r0, CODATA)

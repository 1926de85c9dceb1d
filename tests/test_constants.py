"""Constant set and derived scales."""

import dataclasses

import numpy as np
import pytest

from toroidal_em.constants import CODATA, PhysicalConstants

# the seven fields, in the order of the report JSON's `constants` object
FIELDS = ["c", "eps0", "mu0", "hbar", "e_charge", "m_e", "alpha"]


def test_speed_of_light_exact(k):
    assert k.c == 2.99792458e8


def test_em_constant_identity(k):
    # mu0 = 1/(eps0*c^2) is derived: 1.2566370621200548e-06, +4.37e-14 from
    # the printed CODATA 1.25663706212e-6 and inside its 1.5e-10 uncertainty
    assert abs(k.mu0 * k.eps0 * k.c**2 - 1.0) <= 4.5e-16
    assert k.mu0 == pytest.approx(1.25663706212e-6, rel=1.5e-10)


def test_field_order_and_six_inputs():
    fields = dataclasses.fields(PhysicalConstants)
    assert [f.name for f in fields] == FIELDS
    assert [f.name for f in fields if not f.init] == ["mu0"]
    assert list(dataclasses.asdict(CODATA)) == FIELDS


def test_mu0_is_not_an_input():
    inputs = {name: getattr(CODATA, name) for name in FIELDS if name != "mu0"}
    assert PhysicalConstants(**inputs) == CODATA
    with pytest.raises(TypeError):
        PhysicalConstants(**inputs, mu0=CODATA.mu0)
    with pytest.raises(ValueError):
        dataclasses.replace(CODATA, mu0=CODATA.mu0)


def test_alpha_consistency(k):
    assert abs(k.alpha_recomputed() / k.alpha - 1.0) < 1e-9


def test_compton_length(ds):
    np.testing.assert_allclose(ds.r_c, 3.8616e-13, rtol=1e-4)


def test_schwinger_field(ds):
    np.testing.assert_allclose(ds.E_S, 1.3233e18, rtol=1e-4)


def test_published_codata_2018(ds, k):
    # r_c and mu_B read -6.10e-10 and -6.06e-10 off the published values, as
    # the stored hbar sits 6.13e-10 below h/(2*pi); m_e c^2 reads -7.5e-12,
    # inside the rounding of its 11 published digits.  Each tolerance is the
    # gap rounded up, until hbar is derived from h.
    assert ds.r_c == pytest.approx(3.8615926796e-13, rel=6.11e-10)
    assert ds.mu_B == pytest.approx(9.2740100783e-24, rel=6.07e-10)
    assert ds.rest_energy / (k.e_charge * 1e6) == pytest.approx(0.51099895000, rel=7.6e-12)


def test_dirac_frequency_identity(ds, k):
    assert abs(ds.omega_D * ds.r_c / (2.0 * k.c) - 1.0) < 1e-12


def test_all_scales_positive(ds):
    assert min(ds.r_c, ds.E_S, ds.mu_B, ds.omega_D, ds.rest_energy) > 0.0


def test_reference_amplitude_against_schwinger_field(ds):
    # the reference amplitude 3.783e17 V/m sits at ~0.286 of E_S
    assert 0.285 < 3.783e17 / ds.E_S < 0.287

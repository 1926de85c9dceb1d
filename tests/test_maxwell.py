"""The four Maxwell residual checks, and the finite-difference reference
operators of ``fd_reference``."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toroidal_em import fields, maxwell, scalar
from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams, real_fields
from toroidal_em.maxwell import (SamplingConfig, SamplingError, full_verification,
                                 interior_samples)
from toroidal_em.observables import compute_observables

from fd_reference import BoundaryProximityError, fd_curl_cylindrical, fd_div_cylindrical

P = AnsatzParams.faraday(E0=1.0, R0=2.0, r0=0.5)
GOLDEN = json.loads((Path(__file__).parent / "data" / "residual_golden.json").read_text())


def fixed_points(n=100, seed=5, frac=0.4):
    rng = np.random.default_rng(seed)
    s = frac * P.r0 * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return P.R0 + s * np.cos(theta), phi, s * np.sin(theta)


class TestFiniteDifferenceOperators:
    def test_div_of_uniform_axial_field_is_zero(self):
        R, phi, z = fixed_points()
        div = fd_div_cylindrical(
            lambda R_, phi_, z_: np.broadcast_arrays(0.0 * R_, 0.0 * R_, 1.0 + 0.0 * R_),
            R, phi, z, 1e-5, P)
        assert np.all(div == 0.0)

    def test_curl_of_uniform_cartesian_field_is_tiny(self):
        # a constant Cartesian vector expressed on the cylindrical basis
        a, b, w = 1.3, -0.7, 0.4

        def field(R_, phi_, z_):
            return np.broadcast_arrays(
                a * np.cos(phi_) + b * np.sin(phi_),
                -a * np.sin(phi_) + b * np.cos(phi_),
                w + 0.0 * R_)

        R, phi, z = fixed_points()
        curl = fd_curl_cylindrical(field, R, phi, z, 1e-5, P)
        np.testing.assert_allclose(curl, 0.0, atol=1e-10)

    def test_div_B_is_exactly_zero(self):
        R, phi, z = fixed_points()
        div = fd_div_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[1],
            R, phi, z, 1e-5, P)
        assert np.max(np.abs(div)) == 0.0

    def test_div_E_matches_closed_form(self):
        R, phi, z = fixed_points()
        div = fd_div_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[0],
            R, phi, z, 1e-5, P)
        expected = (P.E0 / P.R0) * np.sin(phi)
        np.testing.assert_allclose(div, expected, atol=1e-6 * P.E0 / P.R0)

    def test_curl_components_match_closed_forms(self):
        R, phi, z = fixed_points()
        curlE = fd_curl_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[0],
            R, phi, z, 1e-5, P)
        np.testing.assert_allclose(curlE[2], -2.0 * P.E0 / P.R0 * np.cos(phi),
                                   atol=1e-6 * P.E0 / P.R0)
        np.testing.assert_allclose(curlE[:2], 0.0, atol=1e-6 * P.E0 / P.R0)
        curlB = fd_curl_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[1],
            R, phi, z, 1e-5, P)
        np.testing.assert_allclose(curlB[0], -P.E0 / (CODATA.c * R) * np.cos(phi),
                                   atol=1e-6 * P.E0 / (CODATA.c * P.R0))

    def test_second_order_convergence_in_h(self):
        R, phi, z = fixed_points(n=50, seed=6)
        exact = -2.0 * P.E0 / P.R0 * np.cos(phi)

        def err(h):
            curl = fd_curl_cylindrical(
                lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[0],
                R, phi, z, h, P)
            return np.max(np.abs(curl[2] - exact))

        e1, e2, e3 = err(4e-4), err(2e-4), err(1e-4)
        assert 3.0 < e1 / e2 < 5.0
        assert 3.0 < e2 / e3 < 5.0

    def test_boundary_proximity_rejected(self):
        R = P.R0 + P.r0 - 1e-6
        with pytest.raises(BoundaryProximityError):
            fd_div_cylindrical(
                lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[0],
                R, 0.0, 0.0, 1e-5, P)
        with pytest.raises(BoundaryProximityError):
            fd_curl_cylindrical(
                lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, P)[0],
                R, 0.0, 0.0, 1e-5, P)


class TestDifferenceHelperSplit:
    """The FD operators equal, byte for byte, their formulas written inline."""

    H = 1e-5

    @staticmethod
    def field(R, phi, z):
        # every component nonzero and dependent on R, phi and z
        return np.broadcast_arrays(R**2 * np.cos(phi) + z,
                                   np.sin(phi) * z**2 + R,
                                   R * z * np.cos(2.0 * phi) + 1.5)

    @classmethod
    def reference(cls, R, phi, z):
        R, dl, h = np.asarray(R, dtype=float), cls.H * P.R0, cls.H
        f_rp, f_rm = cls.field(R + dl, phi, z), cls.field(R - dl, phi, z)
        f_pp, f_pm = cls.field(R, phi + h, z), cls.field(R, phi - h, z)
        f_zp, f_zm = cls.field(R, phi, z + dl), cls.field(R, phi, z - dl)
        d_r = ((R + dl) * f_rp[0] - (R - dl) * f_rm[0]) / (2.0 * dl * R)
        d_phi = (f_pp[1] - f_pm[1]) / (2.0 * h * R)
        d_z = (f_zp[2] - f_zm[2]) / (2.0 * dl)
        curl_r = (f_pp[2] - f_pm[2]) / (2.0 * h * R) - (f_zp[1] - f_zm[1]) / (2.0 * dl)
        curl_phi = (f_zp[0] - f_zm[0]) / (2.0 * dl) - (f_rp[2] - f_rm[2]) / (2.0 * dl)
        curl_z = ((R + dl) * f_rp[1] - (R - dl) * f_rm[1]) / (2.0 * dl * R) \
            - (f_pp[0] - f_pm[0]) / (2.0 * h * R)
        return d_r + d_phi + d_z, np.stack(np.broadcast_arrays(curl_r, curl_phi, curl_z))

    @staticmethod
    def points(kind):
        if kind == "scalar":
            return P.R0 + 0.1, 0.7, -0.05
        return fixed_points(n=64, seed=13)

    @staticmethod
    def same_bytes(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["scalar", "array"])
    def test_operators_equal_inline_formulas(self, kind):
        R, phi, z = self.points(kind)
        div, curl = self.reference(R, phi, z)
        assert np.all(div != 0.0) and np.all(curl != 0.0)
        assert self.same_bytes(fd_div_cylindrical(self.field, R, phi, z, self.H, P), div)
        assert self.same_bytes(fd_curl_cylindrical(self.field, R, phi, z, self.H, P), curl)


def faraday_omega(R0):
    """omega of the Faraday-consistent configuration with major radius R0."""
    return AnsatzParams.faraday(1.0, R0, 0.25 * R0).omega


class TestFaradayOmega:
    def test_value_for_subpicometre_ring(self):
        assert abs(faraday_omega(6.073e-13) / 9.873e20 - 1.0) < 1e-3

    def test_major_radius_two_gives_c(self):
        assert faraday_omega(2.0) == CODATA.c

    def test_doubling_radius_halves_frequency(self):
        assert faraday_omega(4.0) == 0.5 * faraday_omega(2.0)

    def test_unit_frequency_radius(self):
        assert faraday_omega(2.0 * CODATA.c) == 1.0


class TestSamplingConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_points": 0}, {"n_points": -5},
        {"h": 0.0}, {"h": -1e-5}, {"h": float("nan")}, {"h": float("inf")},
    ], ids=repr)
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(SamplingError):
            SamplingConfig(**kwargs)

    def test_sampling_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            SamplingConfig(n_points=0)

    @pytest.mark.parametrize("change", [{"omega": 1e300}, {"E0": 1e300}],
                             ids=["residual-overflow", "normalization-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_residual_is_a_sampling_error(self, params, change):
        # omega*dB_z/dpsi overflows at omega = 1e300; E0 = 1e300 overflows
        # every normalization but gauss_B's
        p = dataclasses.replace(params, **change)
        with pytest.raises(SamplingError, match="not finite"):
            full_verification(p, SamplingConfig(n_points=200))

    @pytest.mark.parametrize("h", [1e-320, 1e-12, 0.03, 1.0, 1e300])
    def test_h_is_read_by_nothing(self, params, h):
        default = full_verification(params, SamplingConfig(n_points=300, seed=5))
        assert full_verification(params, SamplingConfig(n_points=300, seed=5, h=h)) == default
        for a, b in zip(interior_samples(params, SamplingConfig(n_points=300, seed=5, h=h)),
                        interior_samples(params, SamplingConfig(n_points=300, seed=5))):
            assert a.tobytes() == b.tobytes()


class TestInteriorSamples:
    def test_deterministic_for_fixed_seed(self):
        cfg = SamplingConfig(n_points=200, seed=9, h=1e-5)
        a = interior_samples(P, cfg)
        b = interior_samples(P, cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_cover_the_whole_tube_and_one_period(self):
        cfg = SamplingConfig(n_points=5000, seed=1, h=1e-5)
        R, phi, z, t = interior_samples(P, cfg)
        s = np.sqrt((R - P.R0) ** 2 + z**2)
        assert 0.999 * P.r0 < np.max(s) <= P.r0 * (1.0 + 1e-12)
        assert np.min(t) >= 0.0
        assert np.max(t) <= 2.0 * np.pi / P.omega

    def test_static_interval_uses_callers_speed_of_light(self):
        k = dataclasses.replace(CODATA, c=CODATA.c / 1000.0)
        q = AnsatzParams.with_omega(P.E0, P.R0, P.r0, omega=0.0)
        _, _, _, t = interior_samples(q, SamplingConfig(n_points=2000, seed=4), k=k)
        span = q.R0 / k.c
        assert np.min(t) >= 0.0
        assert 0.99 * span < np.max(t) <= span


class TestIndividualChecks:
    def test_gauss_B_passes(self, sampling):
        rep = full_verification(P, sampling)[0]
        assert rep.passed
        assert rep.equation == "gauss_B"
        assert rep.max_abs_residual == 0.0
        assert rep.normalization_value == P.E0 / (CODATA.c * P.R0)
        assert rep.note == "identity: B_z reads z only through the mask"

    def test_gauss_E_passes(self, sampling):
        rep = full_verification(P, sampling)[1]
        assert rep.passed and rep.max_rel_residual < 1e-14
        assert rep.n_points == 1000

    def test_gauss_E_detects_missing_source(self, monkeypatch, sampling):
        # dropping the charge source must leave an O(1) normalized residual
        monkeypatch.setattr(maxwell, "_charge_density", lambda sin, p, k: 0.0 * sin)
        bad = full_verification(P, sampling)[1].max_rel_residual
        assert 0.95 < bad < 1.0001

    def test_faraday_passes_on_tune(self, sampling):
        rep = full_verification(P, sampling)[2]
        assert rep.passed and rep.max_rel_residual < 1e-14 and rep.note == ""

    def test_faraday_fails_when_detuned(self, sampling):
        q = AnsatzParams.with_omega(P.E0, P.R0, P.r0, omega=1.1 * P.omega)
        rep = full_verification(q, sampling)[2]
        assert not rep.passed
        assert rep.max_rel_residual > 0.05
        assert "detuned" in rep.note

    def test_faraday_fails_static(self, sampling):
        q = AnsatzParams.with_omega(P.E0, P.R0, P.r0, omega=0.0)
        rep = full_verification(q, sampling)[2]
        assert not rep.passed and rep.max_rel_residual > 0.5

    def test_continuity_passes(self, sampling):
        rep = full_verification(P, sampling)[3]
        assert rep.passed and rep.max_rel_residual < 1e-14
        assert rep.equation == "ampere_continuity"
        assert rep.normalization == "eps0*E0*(omega + c/R)/R"
        # the value is the normalization at R = R0
        assert rep.normalization_value == CODATA.eps0 * P.E0 * (P.omega + CODATA.c / P.R0) / P.R0

    def test_continuity_detects_missing_azimuthal_current(self, monkeypatch, sampling):
        monkeypatch.setattr(maxwell, "_j_phi", lambda R, sin, p, k: 0.0 * sin)
        bad = full_verification(P, sampling)[3].max_rel_residual
        assert bad > 0.5

    def test_sources_periodic_in_time(self):
        from toroidal_em.fields import charge_density, current_density

        R, phi, z = fixed_points(n=20, seed=12)
        period = 2.0 * np.pi / P.omega
        t = 0.3 * period
        rho_scale = CODATA.eps0 * P.E0 / P.R0
        np.testing.assert_allclose(charge_density(R, phi, z, t, P),
                                   charge_density(R, phi, z, t + period, P),
                                   atol=1e-12 * rho_scale)
        np.testing.assert_allclose(current_density(R, phi, z, t, P),
                                   current_density(R, phi, z, t + period, P),
                                   atol=1e-12 * rho_scale * CODATA.c)

    @pytest.mark.parametrize("omega_scale", [1.0, 1.1, 0.0])
    def test_zero_amplitude_reports_the_unit_profile(self, sampling, omega_scale):
        # E0 = 0 is no special case: the relative residuals, verdicts and
        # notes are those at E0 = 1, and only the two SI echoes read 0.0
        unit = AnsatzParams.with_omega(1.0, P.R0, P.r0, omega=omega_scale * P.omega)
        expected = full_verification(unit, sampling)
        reports = full_verification(dataclasses.replace(unit, E0=0.0), sampling)
        for rep, ref in zip(reports, expected):
            assert (rep.normalization_value, rep.max_abs_residual) == (0.0, 0.0)
            assert math.copysign(1.0, rep.max_abs_residual) == 1.0
            assert dataclasses.replace(rep, max_abs_residual=ref.max_abs_residual,
                                       normalization_value=ref.normalization_value) == ref
            assert "vacuous" not in rep.note
        assert {r.equation for r in reports if not r.passed} == (
            set() if omega_scale == 1.0 else {"faraday"})

    @pytest.mark.parametrize("omega_scale", [1.0, 1e-3, 1e-6, 1e-10, 0.0])
    def test_slow_or_static_configuration_fails_faraday_alone(self, params, sampling,
                                                               omega_scale):
        # a static or slow configuration still has real residuals: every law
        # but faraday passes on them
        q = dataclasses.replace(params, omega=omega_scale * params.omega)
        reports = full_verification(q, sampling)
        assert all(r.normalization_value > 0.0 for r in reports)
        assert reports[3].passed and reports[3].max_rel_residual < 1e-15
        assert {r.equation for r in reports if not r.passed} == (
            set() if omega_scale == 1.0 else {"faraday"})


class TestFullVerification:
    def test_all_four_pass_at_solved_parameters(self, params, sampling):
        reports = full_verification(params, sampling)
        assert [r.equation for r in reports] == [
            "gauss_B", "gauss_E", "faraday", "ampere_continuity"]
        for r in reports:
            assert r.passed, r.equation
            assert r.max_rel_residual < 1e-14
            assert r.max_rel_residual >= r.mean_rel_residual >= 0.0

    @pytest.mark.parametrize("aspect", [1e-3, 0.0965, 0.5, 0.9])
    def test_tuned_configuration_passes_at_every_aspect(self, aspect):
        p = AnsatzParams.faraday(1.0, 1.0, aspect)
        assert all(r.passed for r in full_verification(p, SamplingConfig(n_points=10)))

    @pytest.mark.parametrize("R0", [1e-15, 1.0])
    @pytest.mark.parametrize("E0", [1e-288, 1e-292, 1e-295, 1e-300])
    def test_tuned_configuration_passes_at_a_tiny_amplitude(self, E0, R0):
        # The profile is evaluated at unit amplitude, so no R-step forms a
        # subnormal R0*delta*E0 imaginary part: evaluated at E0 itself, gauss_E
        # and faraday read 1.4 and 3.4 at R0 = 1e-15 m, E0 = 1e-300, and
        # continuity 1.5e-12 at R0 = 1 m.
        p = AnsatzParams.faraday(E0, R0, 0.3 * R0)
        reports = full_verification(p, SamplingConfig(n_points=1000))
        assert all(r.passed for r in reports), reports
        assert max(r.max_rel_residual for r in reports) <= 1e-14

    @pytest.mark.parametrize("R0", [1e-15, 6e-13, 1.0])
    @pytest.mark.parametrize("omega_scale", [1.0, 1.1, 0.0],
                             ids=["tuned", "detuned", "static"])
    def test_one_rule_for_every_amplitude(self, R0, omega_scale):
        # every relative residual, and so every verdict, is the unit
        # profile's at any E0 >= 0, zero, negative zero and subnormal included:
        # E0 scales only the two SI echoes, and a normalization at R0 that
        # rounds to 0 (continuity's at E0 = 5e-324, R0 = 1e-15 m) is no error
        unit = AnsatzParams(1.0, R0, 0.3 * R0, omega_scale * 2.0 * CODATA.c / R0)
        sampling = SamplingConfig(n_points=1000)
        expected = full_verification(unit, sampling)
        for E0 in (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e20):
            for rep, ref in zip(full_verification(dataclasses.replace(unit, E0=E0), sampling),
                                expected):
                assert rep.max_abs_residual == E0 * ref.max_abs_residual
                for echo in (rep.max_abs_residual, rep.normalization_value):
                    assert math.copysign(1.0, echo) == 1.0
                assert dataclasses.replace(rep, max_abs_residual=ref.max_abs_residual,
                                           normalization_value=ref.normalization_value) == ref
        assert {r.equation for r in expected if not r.passed} == (
            set() if omega_scale == 1.0 else {"faraday"})

    def test_detuned_frequency_fails_only_faraday(self, params, sampling):
        q = dataclasses.replace(params, omega=1.1 * params.omega)
        reports = full_verification(q, sampling)
        failures = {r.equation for r in reports if not r.passed}
        assert failures == {"faraday"}

    def test_normalized_residuals_amplitude_invariant(self, params, sampling):
        # the profile is evaluated at unit amplitude: normalized residuals are
        # the same bits at any E0, and the raw ones scale with it
        q = dataclasses.replace(params, E0=7.0 * params.E0)
        base = full_verification(params, sampling)
        scaled = full_verification(q, sampling)
        for rb, rs in zip(base, scaled):
            assert rs.passed and rb.passed
            assert abs(rs.max_abs_residual - 7.0 * rb.max_abs_residual) \
                <= 1e-14 * rs.normalization_value
            assert rs.max_rel_residual == rb.max_rel_residual
            assert rs.mean_rel_residual == rb.mean_rel_residual


class TestVerificationReadsTheFieldFormulas:
    """full_verification evaluates the kernels of scalar.py, so an error in
    any one field formula fails the laws that read it.  Unpatched, the same
    parameters and sampling pass all four laws
    (``TestFullVerification.test_all_four_pass_at_solved_parameters``)."""

    KERNELS = ("_e_r", "_e_phi", "_b_z", "_j_r", "_j_phi", "_charge_density")

    @pytest.mark.parametrize("name", KERNELS)
    def test_kernels_are_the_field_formulas(self, name):
        assert getattr(maxwell, name) is getattr(scalar, name)

    READERS = [
        ("_e_r", {"gauss_E", "faraday"}),
        ("_e_phi", {"gauss_E", "faraday"}),
        ("_b_z", {"faraday"}),
        ("_j_r", {"ampere_continuity"}),
        ("_j_phi", {"ampere_continuity"}),
        ("_charge_density", {"gauss_E", "ampere_continuity"}),
    ]

    @pytest.mark.parametrize("name, failing", READERS)
    def test_scaled_kernel_fails_the_laws_reading_it(self, monkeypatch, params, sampling,
                                                     name, failing):
        kernel = getattr(maxwell, name)
        monkeypatch.setattr(maxwell, name, lambda *args: 1.01 * kernel(*args))
        reports = full_verification(params, sampling)
        assert {r.equation for r in reports if not r.passed} == failing

    @pytest.mark.parametrize("name, failing", READERS)
    def test_kernel_off_by_1e_9_fails_at_the_default_tolerance(self, monkeypatch, params,
                                                               sampling, name, failing):
        # the residuals sit at ~1e-15, so a 1e-9 error in one kernel shows
        kernel = getattr(maxwell, name)
        monkeypatch.setattr(maxwell, name, lambda *args: (1.0 + 1e-9) * kernel(*args))
        reports = full_verification(params, sampling)
        assert {r.equation for r in reports if not r.passed} == failing
        assert min(r.max_rel_residual for r in reports if r.equation in failing) > 1e-10


# The constants with c and eps0 as Fractions; mu0 follows from them exactly.
EXACT_K = dataclasses.replace(CODATA, c=Fraction(CODATA.c), eps0=Fraction(CODATA.eps0))
OMEGA_SCALES = {"tuned": 1, "detuned": Fraction(11, 10), "static": 0}


def exact_rows(p, omega_scale):
    """(rows, faraday term): the gauss_E, faraday and continuity rows of
    ``_rows`` in Fractions at the nodes R0 + r0*j/4, j = -3..3, at unit
    amplitude and phase factors 1, with each float of ``p`` taken exactly
    and omega scaled by ``omega_scale``; and faraday's exact term 2*d/R0,
    d = omega*R0/(2c) - 1."""
    R0, r0 = Fraction(p.R0), Fraction(p.r0)
    unit = AnsatzParams(1, R0, r0, Fraction(p.omega) * omega_scale)
    rows = []
    for j in range(-3, 4):
        out = [None] * 3
        maxwell._rows(out, R0 + r0 * j / 4, 1, 1, unit, EXACT_K)
        rows.append(out)
    return rows, 2 * (unit.omega * R0 / (2 * EXACT_K.c) - 1) / R0


class TestRowsAreExactInFractions:
    """The kernels hold integer literals only, so ``_rows`` runs unmodified
    on Fractions and each residual is exact: gauss_E and continuity are 0,
    and faraday is 2*d/R0 at every node, d = 8.7e-18 at the solved electron.
    A verified kernel off by one part in 2**53 breaks the laws that read it,
    where the float profile passes one off by 1e-13."""

    @pytest.mark.parametrize("omega_scale", OMEGA_SCALES.values(), ids=OMEGA_SCALES)
    def test_each_row_is_its_exact_term_at_every_node(self, params, omega_scale):
        rows, faraday = exact_rows(params, omega_scale)
        for out in rows:
            assert [type(v) for v in out] == [Fraction] * 3
            assert out == [0, faraday, 0]

    @pytest.mark.parametrize("name, failing", TestVerificationReadsTheFieldFormulas.READERS)
    def test_kernel_off_by_one_part_in_2_53_breaks_the_laws_reading_it(
            self, monkeypatch, params, name, failing):
        kernel = getattr(maxwell, name)
        monkeypatch.setattr(maxwell, name,
                            lambda *args: (1 + Fraction(1, 2**53)) * kernel(*args))
        rows, faraday = exact_rows(params, 1)
        laws = ("gauss_E", "faraday", "ampere_continuity")
        for out in rows:
            assert {law for law, v, term in zip(laws, out, (0, faraday, 0))
                    if v != term} == failing


class TestLayersReadNoMask:
    """The verification and the quadrature read interior points only and
    call the kernels of scalar.py without the mask, so an inverted mask
    changes only the public fields: every report stays as it was, and a
    detuned omega still fails Faraday alone."""

    def test_inverted_mask_moves_no_report(self, monkeypatch, params, sampling, grid):
        residuals = full_verification(params, sampling)
        observables = compute_observables(params, grid)
        mask = fields.mask
        monkeypatch.setattr(fields, "mask", lambda R, z, p: 1.0 - mask(R, z, p))
        E, B = real_fields(params.R0, 0.3, 0.0, 0.0, params)
        assert np.all(E == 0.0) and np.all(B == 0.0)  # the axis circle now reads outside
        assert full_verification(params, sampling) == residuals
        assert compute_observables(params, grid) == observables
        detuned = dataclasses.replace(params, omega=1.1 * params.omega)
        reports = full_verification(detuned, sampling)
        assert {r.equation for r in reports if not r.passed} == {"faraday"}


class TestProfileDrawsNothing:
    """The verification evaluates the radial profile at Chebyshev nodes, so
    it draws no random sample and forms no z: with the random generator made
    to raise, every report stays as it was, and no seed changes a report."""

    @pytest.mark.parametrize("n", [1000, 20001], ids=["one-block", "three-blocks"])
    def test_reports_without_a_random_draw(self, monkeypatch, params, n):
        sampling = SamplingConfig(n_points=n, seed=2)
        expected = full_verification(params, sampling)

        def no_draw(*args):
            raise AssertionError("random samples drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(AssertionError, match="drawn"):
            interior_samples(params, sampling)  # the patch is live
        assert full_verification(params, sampling) == expected

    def test_seed_is_read_by_nothing(self, params):
        default = full_verification(params, SamplingConfig(n_points=300))
        for seed in (0, 7, 2**32 - 1):
            assert full_verification(params, SamplingConfig(n_points=300, seed=seed)) == default


class TestNodes:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 8192, 8193, 20001])
    def test_chebyshev_nodes_strictly_inside_the_tube(self, n):
        R = np.concatenate(list(maxwell._node_blocks(P, n)))
        expected = P.R0 + P.r0 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        assert R.size == n
        np.testing.assert_allclose(np.sort(R), np.sort(expected), rtol=0.0,
                                   atol=4.0 * math.ulp(P.R0))
        assert np.all(np.abs(R - P.R0) < P.r0)
        assert np.count_nonzero(R >= P.R0) >= 1  # where faraday reads twice the detune


# Configurations of the sampled cross-check: tuned, detuned either way,
# static, a fat torus near its walls and a metre-scale one.
CROSS_CHECK = {
    "tuned": P,
    "detuned+10%": AnsatzParams(P.E0, P.R0, P.r0, 1.1 * P.omega),
    "detuned-3%": AnsatzParams(P.E0, P.R0, P.r0, 0.97 * P.omega),
    "static": AnsatzParams(P.E0, P.R0, P.r0, 0.0),
    "fat": AnsatzParams.faraday(3.8e17, 6.0e-13, 0.999 * 6.0e-13),
    "metre": AnsatzParams.faraday(2500.0, 1.0, 0.61),
}


class TestProfileCoversTheSamples:
    """The premise of the profile: at seeded random interior points, each
    law's residual is its profile value at that R times its phase factor
    (sin for gauss_E, cos for the others), to 1e-14 of the normalization at
    that R, so no sample reads above the profile's maximum by more."""

    @staticmethod
    def normalizations(p, R):
        return np.stack([p.E0 / np.minimum(R, p.R0), p.E0 / np.minimum(R, p.R0),
                         CODATA.eps0 * p.E0 * (p.omega + CODATA.c / R) / R])

    @pytest.mark.parametrize("name", CROSS_CHECK)
    def test_sampled_rows_are_the_profile_times_the_phase_factor(self, name):
        p = CROSS_CHECK[name]
        R, phi, _, t = interior_samples(p, SamplingConfig(n_points=2000, seed=17))
        psi = phi - p.omega * t
        sin, cos = np.sin(psi), np.cos(psi)
        rows, profile = np.empty((2, 3, R.size))
        maxwell._rows(rows, R, sin, cos, p, CODATA)
        maxwell._rows(profile, R, 1.0, 1.0, p, CODATA)
        norm = self.normalizations(p, R)
        assert np.all(np.abs(rows - profile * np.stack([sin, cos, cos])) <= 1e-14 * norm)
        sampled = np.max(np.abs(rows) / norm, axis=1)
        reports = full_verification(p, SamplingConfig(n_points=1000))
        assert np.all(sampled <= np.array([r.max_rel_residual for r in reports[1:]]) + 1e-14)


class TestFootprint:
    """The nodes run in blocks on the calling thread and each block is
    reduced as it is made, into one row buffer, so the traced peak of a large
    verification is one block's temporaries, about 0.66 MiB at any node
    count: one more full-length float64 array (0.76 MiB at 1e5 nodes) fails
    the bound."""

    @pytest.mark.parametrize("n", [100_000, 1_000_000], ids=["1e5", "1e6"])
    def test_traced_peak_per_node(self, params, n):
        sampling = SamplingConfig(n_points=n)
        full_verification(params, sampling)
        tracemalloc.start()
        try:
            full_verification(params, sampling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestGoldenResiduals:
    """Reports match, bit for bit, those of ``data/residual_golden.json``.

    The file holds every ResidualReport field of ``full_verification`` at
    each case, written by ``residual_anchor.py``, which first checked every
    float residual at the case's nodes against its exact value from an
    mpmath evaluation of the law's terms.  The node counts straddle the
    first block boundary of the verification (8192 nodes).  Each case also stores the B0 = E0/c
    its parameters held before B0 became derived; the kernels must derive
    exactly that value.
    """

    IDS = [f"{c['name']}-n{c['sampling']['n_points']}" for c in GOLDEN["cases"]]

    @staticmethod
    def params(case):
        stored = dict(case["params"])
        B0 = stored.pop("B0")
        assert B0 == stored["E0"] / CODATA.c
        return AnsatzParams(**stored)

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=IDS)
    def test_reports_bit_identical(self, case):
        sampling = SamplingConfig(**case["sampling"])
        reports = full_verification(self.params(case), sampling)
        assert [dataclasses.asdict(r) for r in reports] == case["reports"]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=IDS)
    def test_stored_residual_is_within_a_few_ulp_of_the_exact_one(self, case):
        # the exact residual is 0 for every law but a detuned or static
        # faraday; the float one is roundoff of the law's largest term
        residual_anchor = pytest.importorskip("residual_anchor")
        for report, anchor in zip(case["reports"], case["anchor"]):
            assert report["equation"] == anchor["equation"]
            assert (abs(report["max_abs_residual"] - anchor["max_abs_exact_residual"])
                    <= residual_anchor.ULPS * math.ulp(anchor["max_term"]))
            if report["passed"]:
                assert anchor["max_abs_exact_residual"] \
                    <= 1e-15 * max(report["normalization_value"], anchor["max_term"])

    @pytest.mark.parametrize("case", [c for c in GOLDEN["cases"]
                                      if c["sampling"]["n_points"] == 1],
                             ids=[i for i in IDS if i.endswith("-n1")])
    def test_anchor_is_reproduced(self, case):
        residual_anchor = pytest.importorskip("residual_anchor")
        assert residual_anchor.check_rows(self.params(case),
                                          SamplingConfig(**case["sampling"])) == case["anchor"]


def sequential_draws(p, sampling):
    """The toroidal samples (s, theta, phi, t) as drawn in one pass: n of s,
    then of theta, phi and t."""
    rng = np.random.default_rng(sampling.seed)
    n = sampling.n_points
    s = p.r0 * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = rng.uniform(0.0, 2.0 * np.pi / p.omega, size=n)
    return s, theta, phi, t


@pytest.mark.parametrize("n", [1, 8193, 20001])
def test_interior_samples_are_the_sequential_draw(n):
    cfg = SamplingConfig(n_points=n, seed=11)
    s, theta, phi, t = sequential_draws(P, cfg)
    expected = P.R0 + s * np.cos(theta), phi, s * np.sin(theta), t
    for got, want in zip(interior_samples(P, cfg), expected):
        assert got.tobytes() == want.tobytes()


class TestBlocks:
    """Every block of nodes is reduced: a non-finite residual in a later
    block, or an overflow in any, is a SamplingError with no warning."""

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_residual_in_a_later_block_fails(self, monkeypatch, params, value):
        # the first node of the last of three blocks; its faraday residual
        # alone is poked
        target = list(maxwell._node_blocks(params, 20001))[-1][0]
        rows = maxwell._rows
        poked = []

        def poke(out, R, *args):
            rows(out, R, *args)
            hit = R == target
            out[1, hit] = value
            poked.append(np.count_nonzero(hit))

        monkeypatch.setattr(maxwell, "_rows", poke)
        with pytest.raises(SamplingError, match="the faraday residual is not finite"):
            full_verification(params, SamplingConfig(n_points=20001))
        assert poked == [0, 0, 1]

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_many_blocks_is_a_sampling_error(self, params):
        # the --omega-scale 1e280 configuration
        p = dataclasses.replace(params, omega=params.omega * 1e280)
        with pytest.raises(SamplingError, match="not finite"):
            full_verification(p, SamplingConfig(n_points=20001))

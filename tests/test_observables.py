"""Volume-integral observables: closed forms vs quadrature, and targets."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toroidal_em import observables
from toroidal_em.constants import derived_scales
from toroidal_em.fields import (AnsatzParams, charge_density, current_density,
                                energy_density_model, momentum_density)
from toroidal_em.geometry import TorusGeometry, build_grid, integrate_axisymmetric
from toroidal_em.observables import _PHASES, ValuePair, compute_observables
from toroidal_em.report import build_full_report


class TestValuePair:
    def test_rel_difference(self):
        assert ValuePair(2.0, 2.0 + 2e-9).rel_difference == pytest.approx(1e-9)
        assert ValuePair(0.0, 0.0).rel_difference == 0.0
        assert ValuePair(0.0, 1.0).rel_difference == float("inf")


class TestChargeRms:
    def test_quadrature_matches_closed_form(self, params, grid, k):
        v = compute_observables(params, grid, k).Q_rms
        assert abs(v.rel_difference) < 1e-10

    def test_linear_in_amplitude(self, params, grid, k):
        doubled = AnsatzParams.faraday(2.0 * params.E0, params.R0, params.r0, k)
        v1 = compute_observables(params, grid, k).Q_rms
        v2 = compute_observables(doubled, grid, k).Q_rms
        assert v2.quadrature == pytest.approx(2.0 * v1.quadrature, rel=1e-14)


def closed_moment(p, k):
    """The closed form of mu_z; it does not depend on the grid."""
    return compute_observables(p, build_grid(p.geometry, (4, 4, 4)), k).mu_z.closed_form


class TestMagneticMoment:
    def test_hits_anomalous_moment_target(self, params, k, ds):
        mu = closed_moment(params, k)
        target = ds.mu_B * (1.0 + k.alpha / (2.0 * np.pi))
        assert abs(mu / target - 1.0) < 1e-3

    def test_thin_limit_drops_correction(self, k):
        p = AnsatzParams.faraday(1.0, 1.0, 1e-8, k)
        thin_form = np.sqrt(2.0) * k.eps0 * np.pi * k.c * p.E0 * p.R0 * p.r0**2
        assert closed_moment(p, k) == pytest.approx(thin_form, rel=1e-15)

    def test_doubling_major_radius_slightly_less_than_doubles(self, k):
        # mu ~ R0*(1 + r0^2/(2 R0^2)): growing R0 weakens the correction term
        p1 = AnsatzParams.faraday(1.0, 1.0, 0.3, k)
        p2 = AnsatzParams.faraday(1.0, 2.0, 0.3, k)
        ratio = closed_moment(p2, k) / closed_moment(p1, k)
        assert 1.9 < ratio < 2.0

    def test_diagnostic_ratio_is_two_pi(self, params, grid, k):
        mu = compute_observables(params, grid, k).mu_z
        assert np.isfinite(mu.quadrature) and mu.quadrature > 0.0
        ratio = compute_observables(params, grid, k).mu_quadrature_ratio
        assert ratio == mu.quadrature / mu.closed_form
        assert abs(ratio / (2.0 * np.pi) - 1.0) < 1e-10

    def test_diagnostic_ratio_stable_across_resolutions(self, params, k):
        g = params.geometry
        lo = compute_observables(params, build_grid(g, (16, 32, 32)), k).mu_z
        hi = compute_observables(params, build_grid(g, (32, 64, 64)), k).mu_z
        assert abs(lo.quadrature / hi.quadrature - 1.0) < 1e-8

    @pytest.mark.parametrize("aspect", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("E0", [1.0, 3.7e18])
    def test_diagnostic_is_two_pi_times_closed_form(self, aspect, E0, k):
        # (1/2) int R*J_phi,rms dV = 2*pi*mu_closed, by
        # int R*(1 + R/R0) dV = 4*pi^2*R0^2*r0^2*(1 + r0^2/(2R0^2))
        p = AnsatzParams.faraday(E0, 2.0e-12, aspect * 2.0e-12, k)
        mu = compute_observables(p, build_grid(p.geometry, (8, 16, 16)), k).mu_z
        assert abs(mu.quadrature / (2.0 * np.pi * mu.closed_form) - 1.0) <= 1e-13

    def test_zero_amplitude_degenerate(self, k):
        p = AnsatzParams.faraday(0.0, 1.0, 0.3, k)
        grid = build_grid(p.geometry, (8, 16, 16))
        assert compute_observables(p, grid, k).mu_z.quadrature == 0.0
        assert np.isnan(compute_observables(p, grid, k).mu_quadrature_ratio)


class TestAngularMomentum:
    def test_quadrature_matches_closed_form(self, params, grid, k):
        v = compute_observables(params, grid, k).L_z
        assert abs(v.rel_difference) < 1e-10

    def test_quadratic_in_amplitude(self, params, grid, k):
        doubled = AnsatzParams.faraday(2.0 * params.E0, params.R0, params.r0, k)
        v1 = compute_observables(params, grid, k).L_z
        v2 = compute_observables(doubled, grid, k).L_z
        assert v2.quadrature == pytest.approx(4.0 * v1.quadrature, rel=1e-14)


class TestTotalEnergy:
    def test_quadrature_matches_closed_form(self, params, grid, k):
        v = compute_observables(params, grid, k).U
        assert abs(v.rel_difference) < 1e-10

    def test_near_imputed_mass_fraction(self, params, grid, k, ds):
        v = compute_observables(params, grid, k).U
        assert abs(v.quadrature / (0.795 * ds.rest_energy) - 1.0) < 5e-3

    def test_thin_limit_coefficient(self, k):
        # U -> (5/2) eps0 pi^2 R0 r0^2 E0^2 as r0/R0 -> 0
        p = AnsatzParams.faraday(1.0, 1.0, 1e-7, k)
        grid = build_grid(p.geometry, (8, 16, 16))
        v = compute_observables(p, grid, k).U
        lead = 2.5 * k.eps0 * np.pi**2 * p.R0 * p.r0**2 * p.E0**2
        assert v.closed_form == pytest.approx(lead, rel=1e-13)
        assert v.quadrature == pytest.approx(lead, rel=1e-12)


class TestPhaseVelocity:
    def test_exactly_twice_c_when_tuned(self, params, grid, k):
        assert compute_observables(params, grid, k).v_phase == 2.0 * k.c

    def test_independent_of_radius(self, k):
        p = AnsatzParams.faraday(1.0, 7.3, 0.5, k)
        grid = build_grid(p.geometry, (4, 4, 4))
        assert compute_observables(p, grid, k).v_phase == 2.0 * k.c

    @pytest.mark.filterwarnings("error")
    def test_detuned_is_omega_times_R0_without_a_warning(self, k):
        p = AnsatzParams.with_omega(1.0, 2.0, 0.5, omega=k.c / 2.0)
        grid = build_grid(p.geometry, (4, 4, 4))
        v = compute_observables(p, grid, k).v_phase
        assert v == p.omega * p.R0 == k.c


class TestScalingLaws:
    def test_amplitude_power_laws(self, params, grid, k):
        base = compute_observables(params, grid, k)
        for m in (10.0 ** (1.0 / 3.0), 10.0 ** (2.0 / 3.0), 10.0):
            scaled = compute_observables(
                AnsatzParams.faraday(m * params.E0, params.R0, params.r0, k), grid, k)
            assert scaled.Q_rms.quadrature == pytest.approx(
                m * base.Q_rms.quadrature, rel=1e-12)
            assert scaled.mu_z.closed_form == pytest.approx(
                m * base.mu_z.closed_form, rel=1e-12)
            assert scaled.L_z.quadrature == pytest.approx(
                m**2 * base.L_z.quadrature, rel=1e-12)
            assert scaled.U.quadrature == pytest.approx(
                m**2 * base.U.quadrature, rel=1e-12)
            assert scaled.v_phase == base.v_phase


def phase_rms(density, R, z):
    """Time-RMS of density(R, phi, t=0, z) at (R, z), as the RMS over _PHASES in phi."""
    return np.sqrt(np.mean(density(R, _PHASES[:, None], z) ** 2, axis=0))


def phase_mean(density, R, z):
    """Time mean of density(R, phi, t=0, z) at (R, z), as the mean over _PHASES in phi."""
    return np.mean(density(R, _PHASES[:, None], z), axis=0)


def _integrands(p, k):
    """Each observable's phi-independent integrand f(R, phi, z) and the
    factor that multiplies its integral."""
    return {
        "Q_rms": (1.0, lambda R, phi, z: phase_rms(
            lambda R_, phi_, z_: charge_density(R_, phi_, z_, 0.0, p, k), R, z)),
        "mu_z": (0.5, lambda R, phi, z: R * phase_rms(
            lambda R_, phi_, z_: current_density(R_, phi_, z_, 0.0, p, k)[1], R, z)),
        "L_z": (1.0, lambda R, phi, z: R * np.abs(phase_mean(
            lambda R_, phi_, z_: momentum_density(R_, phi_, z_, 0.0, p, k)[1], R, z))),
        "U": (1.0, lambda R, phi, z: energy_density_model(R, phi, z, p, k)),
    }


def _hand_typed_integrands(p, k):
    """The time-RMS charge and moment integrands as printed closed forms."""
    return {
        "Q_rms": lambda R, phi, z: np.full(np.shape(R),
                                           k.eps0 * p.E0 / (np.sqrt(2.0) * p.R0)),
        "mu_z": lambda R, phi, z: R * (k.eps0 * p.omega * p.E0 * (1.0 + R / p.R0)
                                       / np.sqrt(2.0)),
    }


class TestQuadraturesReadTheFieldFormulas:
    """Q_rms, L_z and the moment diagnostic integrate the kernels of
    scalar.py, so an error in any of those formulas shows in the report."""

    @staticmethod
    def scale(monkeypatch, name, factor=1.01):
        kernel = getattr(observables, name)
        monkeypatch.setattr(observables, name, lambda *args: factor * kernel(*args))

    def test_scaled_charge_density_fails_the_charge_claim(self, monkeypatch, k):
        self.scale(monkeypatch, "_charge_density")
        report = build_full_report(k)
        claim = {c.id: c for c in report.claims}["target.Q_rms"]
        assert not claim.passed
        assert claim.rel_deviation == pytest.approx(0.01, rel=1e-3)
        assert not report.overall_pass

    def test_scaled_momentum_density_fails_the_spin_claim(self, monkeypatch, k):
        self.scale(monkeypatch, "_g_phi")
        report = build_full_report(k)
        claim = {c.id: c for c in report.claims}["target.L_z"]
        assert not claim.passed
        assert claim.rel_deviation == pytest.approx(0.01, rel=1e-3)
        assert not report.overall_pass

    def test_scaled_current_density_moves_the_moment_ratio(self, monkeypatch, params, grid, k):
        self.scale(monkeypatch, "_j_phi")
        ratio = compute_observables(params, grid, k).mu_quadrature_ratio
        assert ratio / (2.0 * np.pi) == pytest.approx(1.01, rel=1e-12)


class TestMeridianPlaneCollapse:
    """The phi-independent observables integrate exactly on the (r, theta) plane."""

    @pytest.mark.parametrize("resolution", [(8, 16, 16), (32, 64, 64), (9, 17, 13)])
    @pytest.mark.parametrize("aspect", [None, 0.9])
    def test_plane_integral_equals_full_grid(self, resolution, aspect, params, k):
        p = params if aspect is None else AnsatzParams.faraday(2.5e3, 1.0, aspect, k)
        grid = build_grid(p.geometry, resolution)
        obs = compute_observables(p, grid, k)
        n_plane = grid.plane_weights.size
        for name, (factor, f) in _integrands(p, k).items():
            plane = f(grid.plane_R, 0.0, grid.plane_z)
            full = f(grid.R, grid.phi, grid.z).reshape(n_plane, -1)
            # bit-identical in every phi-plane of the full grid
            assert np.array_equal(full, np.repeat(plane[:, None], full.shape[1], axis=1)), name
            on_plane = factor * integrate_axisymmetric(plane, grid)
            assert getattr(obs, name).quadrature == on_plane, name
            on_full = factor * np.dot(grid.weights, full.ravel())
            assert abs(on_plane / on_full - 1.0) <= 1e-14, name

    @pytest.mark.parametrize("resolution", [(8, 16, 16), (32, 64, 64), (9, 17, 13)])
    @pytest.mark.parametrize("aspect", [None, 0.05, 0.9])
    def test_phase_rms_matches_hand_typed_integrands(self, resolution, aspect, params, k):
        p = params if aspect is None else AnsatzParams.faraday(2.5e3, 1.0, aspect, k)
        grid = build_grid(p.geometry, resolution)
        derived = _integrands(p, k)
        for name, reference in _hand_typed_integrands(p, k).items():
            expected = reference(grid.plane_R, 0.0, grid.plane_z)
            got = derived[name][1](grid.plane_R, 0.0, grid.plane_z)
            assert np.all(np.abs(got / expected - 1.0) <= 1e-15), name

    def test_observables_never_build_the_flat_nodes(self, params, k):
        grid = build_grid(params.geometry, (32, 64, 64))
        compute_observables(params, grid, k)
        for name in ("phi_nodes", "r", "theta", "phi", "weights", "R", "z"):
            assert name not in grid.__dict__, name


class TestQuadraturesEqualThePublicDensities:
    """Each quadrature equals, bit for bit, the integral of the public
    density functions evaluated on the meridian plane."""

    @staticmethod
    def configuration(case, params, k):
        if case == "tuned":
            return params
        if case == "detuned":
            return AnsatzParams.with_omega(params.E0, params.R0, params.r0,
                                           omega=1.07 * params.omega)
        if case == "zero-amplitude":
            return AnsatzParams.faraday(0.0, params.R0, params.r0, k)
        return AnsatzParams.faraday(params.E0, params.R0, 0.9 * params.R0, k)

    @pytest.mark.parametrize("case", ["tuned", "detuned", "zero-amplitude", "fat"])
    def test_quadratures_equal_plane_integrals(self, case, params, k):
        p = self.configuration(case, params, k)
        grid = build_grid(p.geometry, (32, 64, 64))
        obs = compute_observables(p, grid, k)
        for name, (factor, f) in _integrands(p, k).items():
            plane = f(grid.plane_R, 0.0, grid.plane_z)
            assert getattr(obs, name).quadrature == factor * integrate_axisymmetric(plane, grid), \
                name

    def test_quadratures_equal_plane_integrals_across_the_parameter_space(self, k):
        # E0 = 0 and four decades-wide bands: subnormal densities, ordinary
        # ones, squares near the float range, and E0**2 beyond it
        amplitudes = st.one_of(st.just(0.0), *(
            st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(lo, hi))
            for lo, hi in ((-300, -250), (-20, 20), (120, 160), (161, 299))))

        @given(
            E0=amplitudes, R0=st.floats(-15.0, 0.0).map(lambda e: 10.0**e),
            aspect=st.floats(0.01, 0.99),
            omega_scale=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.5, 2.0)),
            n_r=st.integers(4, 40), n_theta=st.integers(4, 40))
        def check(E0, R0, aspect, omega_scale, n_r, n_theta):
            tuned = AnsatzParams.faraday(E0, R0, aspect * R0, k)
            p = dataclasses.replace(tuned, omega=omega_scale * tuned.omega)
            grid = build_grid(p.geometry, (n_r, n_theta, 4))
            with np.errstate(over="ignore", invalid="ignore"):
                if E0 > math.sqrt(np.finfo(float).max):
                    # E0**2 overflows U's density and closed form, if no
                    # non-finite integrand has stopped the quadratures first
                    with pytest.raises((OverflowError, ValueError)):
                        compute_observables(p, grid, k)
                    return
                planes = {name: (factor, f(grid.plane_R, 0.0, grid.plane_z))
                          for name, (factor, f) in _integrands(p, k).items()}
                finite = {name: bool(np.all(np.isfinite(plane)))
                          for name, (_, plane) in planes.items()}
                try:
                    obs = compute_observables(p, grid, k)
                except ValueError:
                    assert not all(finite.values())
                    return
            for name, (factor, plane) in planes.items():
                quadrature = getattr(obs, name).quadrature
                if finite[name]:
                    assert quadrature == factor * integrate_axisymmetric(plane, grid), name
                else:  # the stacked mean overflowed; the unit-phase-factor form did not
                    assert math.isfinite(quadrature), name

        check()

    def test_finite_where_the_stacked_sum_of_squares_overflows(self, k):
        # rho's amplitude a has a*a finite but 2*a*a beyond the float range:
        # the mean of the stacked squares overflows, a*a*<sin^2> does not
        p = AnsatzParams(E0=1.36e150, R0=1e-15, r0=0.5e-15, omega=0.0)
        a = k.eps0 * p.E0 / p.R0
        assert math.isfinite(a * a) and not math.isfinite(2.0 * a * a)
        grid = build_grid(p.geometry, (8, 16, 4))
        with np.errstate(over="ignore"):
            stacked = _integrands(p, k)["Q_rms"][1](grid.plane_R, 0.0, grid.plane_z)
        assert np.all(np.isinf(stacked))
        obs = compute_observables(p, grid, k)
        assert abs(obs.Q_rms.rel_difference) < 1e-14
        for name in ("L_z", "U"):
            assert abs(getattr(obs, name).rel_difference) < 1e-14, name


class TestGridIndependence:
    def test_doubling_resolution_changes_nothing(self, params, grid, k):
        fine = build_grid(params.geometry, (64, 128, 128))
        a = compute_observables(params, grid, k)
        b = compute_observables(params, fine, k)
        for name in ("Q_rms", "mu_z", "L_z", "U"):
            va = getattr(a, name).quadrature
            vb = getattr(b, name).quadrature
            assert abs(vb / va - 1.0) < 1e-8, name


class TestUnitScaleInvariance:
    def test_dimensionless_outputs_survive_unit_rescale(self, params, grid, k, ds, rescaled):
        # stretch length and velocity units by 100; alpha and the
        # dimensionless observable ratios must not move
        lam = 100.0
        k2 = rescaled(k, lam)
        ds2 = derived_scales(k2)
        assert ds2.r_c == pytest.approx(lam * ds.r_c, rel=1e-12)
        p2 = AnsatzParams.faraday(params.E0 * lam, params.R0 * lam,
                                  params.r0 * lam, k2)
        grid2 = build_grid(TorusGeometry(p2.R0, p2.r0), (32, 64, 64))
        a = compute_observables(params, grid, k)
        b = compute_observables(p2, grid2, k2)
        assert b.Q_rms.quadrature / k2.e_charge == pytest.approx(
            a.Q_rms.quadrature / k.e_charge, rel=1e-12)
        assert b.L_z.quadrature / k2.hbar == pytest.approx(
            a.L_z.quadrature / k.hbar, rel=1e-12)
        assert b.U.quadrature / ds2.rest_energy == pytest.approx(
            a.U.quadrature / ds.rest_energy, rel=1e-12)
        assert b.mu_z.closed_form / ds2.mu_B == pytest.approx(
            a.mu_z.closed_form / ds.mu_B, rel=1e-12)
        assert b.v_phase / k2.c == a.v_phase / k.c == 2.0


class TestObservableSet:
    def test_all_fields_populated(self, params, grid, k):
        obs = compute_observables(params, grid, k)
        for name in ("Q_rms", "mu_z", "L_z", "U"):
            pair = getattr(obs, name)
            assert np.isfinite(pair.closed_form) and np.isfinite(pair.quadrature)
            assert pair.closed_form > 0.0
        assert obs.v_phase == 2.0 * k.c
        assert obs.mu_quadrature_ratio == pytest.approx(2.0 * np.pi, rel=1e-10)

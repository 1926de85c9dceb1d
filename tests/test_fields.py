"""Field evaluators: phasors, real fields, and derived pointwise quantities."""

import dataclasses

import numpy as np
import pytest

from toroidal_em.constants import CODATA
from toroidal_em.fields import (AnsatzParams, charge_density, current_density,
                                energy_density_em, energy_density_model, mask,
                                momentum_density, poynting_instantaneous, real_fields)
from toroidal_em.geometry import toroidal_to_cylindrical
from toroidal_em.maxwell import SamplingConfig, full_verification

from phasor_reference import b_phasor, e_phasor

# round-number configuration for hand checks; omega = 2c/R0 = c
P = AnsatzParams.faraday(E0=1.0, R0=2.0, r0=0.5)


def interior_points(p, n, seed=0):
    rng = np.random.default_rng(seed)
    s = 0.95 * p.r0 * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = rng.uniform(0.0, 2.0 * np.pi / p.omega, size=n)
    R, z = toroidal_to_cylindrical(s, theta, p.geometry)
    return R, phi, z, t


class TestParams:
    def test_faraday_constructor(self):
        assert abs(P.omega * P.R0 / (2.0 * CODATA.c) - 1.0) < 1e-15
        assert P == AnsatzParams.faraday(P.E0, P.R0, P.r0)

    def test_b0_locked_to_e0(self):
        _, B = real_fields(P.R0, np.pi / 2.0, 0.0, 0.0, P)
        assert abs(-B[2] * CODATA.c / P.E0 - 1.0) < 1e-12

    def test_b0_is_not_a_parameter(self):
        assert [f.name for f in dataclasses.fields(AnsatzParams)] == ["E0", "R0", "r0", "omega"]
        with pytest.raises(TypeError):
            AnsatzParams(E0=1.0, R0=1.0, r0=0.1, omega=2.0 * CODATA.c, B0=5.0)

    def test_b0_follows_the_callers_speed_of_light(self):
        # c tripled alone: mu0 = 1/(eps0*c^2) follows it, divided by 9
        k = dataclasses.replace(CODATA, c=3.0 * CODATA.c)
        assert k.mu0 == pytest.approx(CODATA.mu0 / 9.0, rel=4.5e-16, abs=0.0)
        p = AnsatzParams.faraday(2.5, 1.7, 0.6, k)
        R, phi, z, t = interior_points(p, 200, seed=5)
        _, B = real_fields(R, phi, z, t, p, k)
        np.testing.assert_array_equal(B[2], -(p.E0 / k.c) * np.sin(phi - p.omega * t))
        np.testing.assert_allclose(real_fields(R, phi, z, t, p)[1][2], 3.0 * B[2], rtol=1e-15)
        reports = full_verification(p, SamplingConfig(n_points=500, seed=3), k)
        assert all(r.passed for r in reports), [r.equation for r in reports if not r.passed]

    def test_free_omega_constructor(self):
        q = AnsatzParams.with_omega(1.0, 2.0, 0.5, omega=1.0)
        assert q.omega == 1.0
        assert q != AnsatzParams.faraday(1.0, 2.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnsatzParams.faraday(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            AnsatzParams.faraday(1.0, 2.0, 2.5)
        with pytest.raises(ValueError):
            AnsatzParams.with_omega(1.0, 2.0, 0.5, omega=-1.0)

    @pytest.mark.parametrize("name", ["E0", "R0", "r0", "omega"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(P, **{name: value})


class TestPhasors:
    def test_e_on_axis_circle(self):
        E = e_phasor(P.R0, 0.0, 0.0, 0.0, P)
        np.testing.assert_allclose(E[0], 1j * P.E0, atol=1e-15)
        np.testing.assert_allclose(E[1], -2.0 * P.E0, atol=1e-15)
        assert E[2] == 0.0

    def test_e_quarter_phase(self):
        E = e_phasor(P.R0, np.pi / 2.0, 0.0, 0.0, P)
        np.testing.assert_allclose(E[0], -P.E0 + 0j, atol=1e-15)
        np.testing.assert_allclose(E[1], -2.0 * P.E0 * 1j, atol=1e-15)

    def test_b_on_axis_circle(self):
        B = b_phasor(P.R0, 0.0, 0.0, 0.0, P)
        np.testing.assert_allclose(B[2], 1j * P.E0 / CODATA.c, rtol=1e-12)
        assert B[0] == 0.0 and B[1] == 0.0

    def test_b_corotating_phase_cancels(self):
        for t in (0.0, 1.7e-9, 4.2e-9):
            B = b_phasor(P.R0, P.omega * t, 0.0, t, P)
            np.testing.assert_allclose(B[2], 1j * P.E0 / CODATA.c, rtol=1e-9)

    def test_outside_zero(self):
        E = e_phasor(P.R0 + 2.0 * P.r0, 0.3, 0.0, 0.0, P)
        B = b_phasor(P.R0 + 2.0 * P.r0, 0.3, 0.0, 0.0, P)
        assert np.all(E == 0.0) and np.all(B == 0.0)


class TestMask:
    def test_zero_outside_everywhere(self):
        # points covering outside-tube radii, including the boundary itself
        rng = np.random.default_rng(3)
        n = 10_000
        s = P.r0 * (1.0 + 2.0 * rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        s[0], theta[0] = P.r0, 0.0  # exact boundary point counts as outside
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        t = rng.uniform(0.0, 1e-8, size=n)
        R = P.R0 + s * np.cos(theta)
        z = s * np.sin(theta)
        assert np.all(mask(R, z, P) == 0.0)
        E, B = real_fields(R, phi, z, t, P)
        assert np.all(E == 0.0) and np.all(B == 0.0)
        assert np.all(charge_density(R, phi, z, t, P) == 0.0)
        assert np.all(current_density(R, phi, z, t, P) == 0.0)
        assert np.all(poynting_instantaneous(R, phi, z, t, P) == 0.0)
        assert np.all(momentum_density(R, phi, z, t, P) == 0.0)
        assert np.all(energy_density_model(R, phi, z, P) == 0.0)
        assert np.all(energy_density_em(R, phi, z, t, P) == 0.0)


class TestRealFields:
    def test_matches_phasor_real_part(self):
        R, phi, z, t = interior_points(P, 1000, seed=11)
        E, B = real_fields(R, phi, z, t, P)
        Ec = e_phasor(R, phi, z, t, P)
        Bc = b_phasor(R, phi, z, t, P)
        np.testing.assert_allclose(E, Ec.real, rtol=1e-14, atol=1e-14 * P.E0)
        np.testing.assert_allclose(B, Bc.real, rtol=1e-14, atol=1e-14 * P.E0 / CODATA.c)

    def test_phase_zero(self):
        E, B = real_fields(P.R0, 0.0, 0.0, 0.0, P)
        np.testing.assert_allclose(E[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(E[1], -2.0 * P.E0, rtol=1e-15)
        np.testing.assert_allclose(B[2], 0.0, atol=1e-15)

    def test_quarter_phase(self):
        E, B = real_fields(P.R0, np.pi / 2.0, 0.0, 0.0, P)
        np.testing.assert_allclose(E[0], -P.E0, rtol=1e-15)
        np.testing.assert_allclose(E[1], 0.0, atol=1e-12 * P.E0)
        np.testing.assert_allclose(B[2], -P.E0 / CODATA.c, rtol=1e-15)

    def test_e_r_squared_time_average(self):
        # uniform sampling over one period integrates trig polynomials exactly
        t = np.arange(64) / 64.0 * (2.0 * np.pi / P.omega)
        E, _ = real_fields(P.R0, 0.7, 0.0, t, P)
        np.testing.assert_allclose(np.mean(E[0] ** 2), P.E0**2 / 2.0, rtol=1e-12)


class TestVectorArrays:
    """real_fields, current_density and momentum_density return fresh
    (3, *shape) arrays."""

    @staticmethod
    def inputs(kind):
        R, phi, z, t = interior_points(P, 4, seed=21)
        if kind == "scalar":
            return float(R[0]), float(phi[0]), float(z[0]), float(t[0]), ()
        if kind == "1d":
            return R, phi, z, t, (4,)
        if kind == "z-only":
            # the mask alone carries the shape: z is the only array
            return P.R0, float(phi[0]), z, float(t[0]), (4,)
        # (n,1) positions against a (1,m) row of azimuths and times
        return R[:, None], phi[None, :3], z[:, None], t[None, :3], (4, 3)

    @pytest.mark.parametrize("kind", ["scalar", "1d", "z-only", "broadcast"])
    def test_shape_writability_and_positive_zero_components(self, kind):
        R, phi, z, t, shape = self.inputs(kind)
        E, B = real_fields(R, phi, z, t, P)
        J = current_density(R, phi, z, t, P)
        g = momentum_density(R, phi, z, t, P)
        for arr in (E, B, J, g):
            assert arr.shape == (3, *shape)
            assert arr.dtype == np.float64 and arr.flags.writeable
        for zero in (E[2], B[0], B[1], J[2], g[2]):
            assert np.all(zero == 0.0) and not np.any(np.signbit(zero))
        for live in (E[0], E[1], B[2], J[0], J[1], g[0], g[1]):
            assert np.all(live != 0.0)

    def test_writing_a_component_leaves_later_results_intact(self):
        R, phi, z, t, _ = self.inputs("1d")
        J = current_density(R, phi, z, t, P)
        J[1] = 0.0
        assert np.all(current_density(R, phi, z, t, P)[1] != 0.0)
        E, B = real_fields(R, phi, z, t, P)
        E[0] = 1.0
        B[2] = 1.0
        assert np.all(E[1] != 1.0) and np.all(real_fields(R, phi, z, t, P)[0][0] != 1.0)

class TestKernelSplit:
    """The public evaluators equal, bit for bit, their formulas written inline.

    Each public function hands sin/cos of the phase to a private kernel
    and multiplies its value by the mask, as the last factor.  The
    reference below does the whole evaluation in one place, with the mask
    inside each product: the mask is 0.0 or 1.0, so where it stands moves
    no bit, nor the sign of a zero.
    """

    @staticmethod
    def reference(R, phi, z, t, p, k=CODATA):
        R = np.asarray(R, dtype=float)
        z = np.asarray(z, dtype=float)
        h = np.where((R - p.R0) ** 2 + z**2 < p.r0**2, 1.0, 0.0)
        psi = np.asarray(phi, dtype=float) - p.omega * np.asarray(t, dtype=float)
        shape = (3, *np.broadcast_shapes(h.shape, psi.shape))
        E, B, J = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        E[0] = -p.E0 * h * np.sin(psi)
        E[1] = -p.E0 * (1.0 + R / p.R0) * h * np.cos(psi)
        B[2] = -(p.E0 / k.c) * h * np.sin(psi)
        rho = k.eps0 * p.E0 / p.R0 * h * np.sin(psi)
        J[0] = -k.eps0 * p.E0 * (k.c / R + p.omega) * h * np.cos(psi)
        J[1] = k.eps0 * p.E0 * p.omega * (1.0 + R / p.R0) * h * np.sin(psi)
        # S = c^2*g with g = eps0*(E x B); g_phi in its kernel's form
        g_phi = -k.eps0 * p.E0 * (p.E0 / k.c) * h * np.sin(psi) ** 2
        S = k.c**2 * np.stack(np.broadcast_arrays(k.eps0 * E[1] * B[2], g_phi,
                                                  np.zeros_like(E[0])))
        return E, B, rho, J, S

    @staticmethod
    def inputs(kind):
        # radii from the axis circle out past the tube wall (r0 = 0.5), then
        # random points of which about half lie outside the tube
        rng = np.random.default_rng(8)
        R = P.R0 + np.concatenate([[0.0, 0.2, -0.45, 0.49, 0.5, -0.7, 1.3],
                                   rng.uniform(-0.8, 0.8, 57)])
        z = np.concatenate([[0.0, -0.3, 0.1, 0.0, 0.0, 0.2, -0.1],
                            rng.uniform(-0.6, 0.6, 57)])
        phi = rng.uniform(0.0, 2.0 * np.pi, R.size)
        t = rng.uniform(0.0, 2.0e-8, R.size)
        if kind == "scalar-inside":
            return float(R[1]), float(phi[1]), float(z[1]), float(t[1])
        if kind == "scalar-outside":
            return float(R[5]), float(phi[5]), float(z[5]), float(t[5])
        if kind == "1d-scalar-t":
            return R, phi, z, 3.0e-9
        if kind == "1d-array-t":
            return R, phi, z, t
        # (n,1) positions against a (1,m) row of azimuths and times
        return R[:, None], phi[None, :5], z[:, None], t[None, :5]

    @pytest.mark.parametrize("kind", ["scalar-inside", "scalar-outside", "1d-scalar-t",
                                      "1d-array-t", "broadcast"])
    @pytest.mark.parametrize("E0, scale, detuning", [
        (1.0, 1.0, 1.0), (3.7e17, 1e-13, 1.1), (1.9e12, 0.737, 0.93)],
        ids=["unit", "small-detuned", "irregular-detuned"])
    def test_public_evaluators_equal_inline_formulas(self, kind, E0, scale, detuning):
        # P shrunk by ``scale``, with its amplitude and frequency changed
        p = AnsatzParams.with_omega(E0, P.R0 * scale, P.r0 * scale,
                                    omega=detuning * P.omega / scale)
        R, phi, z, t = (x * scale if i != 1 else x
                        for i, x in enumerate(self.inputs(kind)))
        E, B = real_fields(R, phi, z, t, p)
        got = (E, B, charge_density(R, phi, z, t, p, CODATA),
               current_density(R, phi, z, t, p, CODATA),
               poynting_instantaneous(R, phi, z, t, p, CODATA))
        for name, a, b in zip(("E", "B", "rho", "J", "S"), got, self.reference(R, phi, z, t, p)):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64, name
            assert a.tobytes() == b.tobytes(), name
        h = np.asarray(mask(R, z, p))
        assert np.any(h == 1.0) if kind != "scalar-outside" else np.all(h == 0.0)
        if kind in ("1d-scalar-t", "1d-array-t", "broadcast"):
            assert np.any(h == 0.0)


class TestChargeDensity:
    def test_phase_zero(self):
        assert charge_density(P.R0, 0.0, 0.0, 0.0, P) == 0.0

    def test_quarter_phase_amplitude(self):
        rho = charge_density(P.R0, np.pi / 2.0, 0.0, 0.0, P)
        np.testing.assert_allclose(rho, CODATA.eps0 * P.E0 / P.R0, rtol=1e-15)

    def test_integrates_to_zero_over_torus(self, params, grid, k):
        rho0 = k.eps0 * params.E0 / params.R0
        for t in (0.0, 3.3e-22):
            total = np.dot(grid.weights,
                           charge_density(grid.R, grid.phi, grid.z, t, params, k))
            assert abs(total) < 1e-12 * rho0 * grid.geometry.volume


class TestCurrentDensity:
    def test_radial_component_vanishes_at_quarter_phase(self):
        J = current_density(P.R0 + 0.1, np.pi / 2.0, 0.0, 0.0, P)
        np.testing.assert_allclose(J[0], 0.0, atol=1e-18)
        assert J[2] == 0.0

    def test_matches_ampere_maxwell_definition(self):
        # J must equal curl B/mu0 - eps0*dE/dt evaluated by finite differences
        from fd_reference import fd_curl_cylindrical

        R, phi, z, t = interior_points(P, 100, seed=21)
        h = 1e-6
        curlB = fd_curl_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, t, P)[1],
            R, phi, z, h, P)
        dt = h / P.omega
        dEdt = (real_fields(R, phi, z, t + dt, P)[0]
                - real_fields(R, phi, z, t - dt, P)[0]) / (2.0 * dt)
        J_def = curlB / CODATA.mu0 - CODATA.eps0 * dEdt
        J = current_density(R, phi, z, t, P)
        scale = np.max(np.linalg.norm(J, axis=0))
        np.testing.assert_allclose(J, J_def, atol=1e-6 * scale)

    def test_divergence_closed_form(self):
        from fd_reference import fd_div_cylindrical

        R, phi, z, t = interior_points(P, 100, seed=22)
        div = fd_div_cylindrical(
            lambda R_, phi_, z_: current_density(R_, phi_, z_, t, P),
            R, phi, z, 1e-5, P)
        expected = CODATA.eps0 * P.omega * P.E0 / P.R0 * np.cos(phi - P.omega * t)
        scale = CODATA.eps0 * P.omega * P.E0 / P.R0
        np.testing.assert_allclose(div, expected, atol=1e-6 * scale)


class TestPoynting:
    def test_zero_at_phase_zero(self):
        S = poynting_instantaneous(P.R0, 0.0, 0.0, 0.0, P)
        assert np.all(S == 0.0)  # B vanishes at this phase

    def test_closed_form_components(self):
        R, phi, z, t = interior_points(P, 200, seed=31)
        S = poynting_instantaneous(R, phi, z, t, P)
        psi = phi - P.omega * t
        pref = CODATA.eps0 * CODATA.c * P.E0**2
        np.testing.assert_allclose(
            S[0], pref * (1.0 + R / P.R0) * np.sin(psi) * np.cos(psi),
            rtol=1e-10, atol=1e-12 * pref)
        np.testing.assert_allclose(S[1], -pref * np.sin(psi) ** 2,
                                   rtol=1e-10, atol=1e-12 * pref)
        assert np.all(S[2] == 0.0)

    def test_time_average(self):
        R, phi, z, _ = interior_points(P, 50, seed=32)
        t = np.arange(64) / 64.0 * (2.0 * np.pi / P.omega)
        S_num = np.mean(
            [poynting_instantaneous(R, phi, z, ti, P) for ti in t], axis=0)
        S_avg = np.zeros_like(S_num)
        S_avg[1] = -0.5 * CODATA.eps0 * CODATA.c * P.E0**2
        np.testing.assert_allclose(S_num, S_avg, rtol=1e-10,
                                   atol=1e-12 * CODATA.eps0 * CODATA.c * P.E0**2)

    def test_is_e_cross_b_over_mu0(self):
        # S is computed as c^2*g; the textbook (E x B)/mu0, formed here from
        # the real fields, agrees to a few roundings since mu0 = 1/(eps0*c^2)
        R, phi, z, t = interior_points(P, 200, seed=35)
        E, B = real_fields(R, phi, z, t, P)
        S = poynting_instantaneous(R, phi, z, t, P)
        np.testing.assert_allclose(S[0], E[1] * B[2] / CODATA.mu0, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(S[1], -E[0] * B[2] / CODATA.mu0, rtol=1e-15, atol=0.0)
        assert np.all(S[2] == 0.0)


class TestMomentumDensity:
    def test_closed_form_components(self):
        R, phi, z, t = interior_points(P, 200, seed=33)
        g = momentum_density(R, phi, z, t, P)
        psi = phi - P.omega * t
        pref = CODATA.eps0 * P.E0**2 / CODATA.c
        np.testing.assert_allclose(
            g[0], pref * (1.0 + R / P.R0) * np.sin(psi) * np.cos(psi),
            rtol=1e-10, atol=1e-12 * pref)
        np.testing.assert_allclose(g[1], -pref * np.sin(psi) ** 2,
                                   rtol=1e-10, atol=1e-12 * pref)
        assert np.all(g[2] == 0.0)

    def test_time_average(self):
        R, phi, z, _ = interior_points(P, 50, seed=34)
        t = np.arange(64) / 64.0 * (2.0 * np.pi / P.omega)
        g_num = np.mean([momentum_density(R, phi, z, ti, P)[1] for ti in t], axis=0)
        np.testing.assert_allclose(g_num, -0.5 * CODATA.eps0 * P.E0**2 / CODATA.c,
                                   rtol=1e-12)


class TestEnergyDensity:
    def test_model_on_axis_circle(self):
        u = energy_density_model(P.R0, 0.0, 0.0, P)
        np.testing.assert_allclose(u, 1.25 * CODATA.eps0 * P.E0**2, rtol=1e-15)

    def test_model_linear_in_radius(self):
        hi = energy_density_model(P.R0 + P.r0 * 0.999999, 0.0, 0.0, P)
        lo = energy_density_model(P.R0 - P.r0 * 0.999999, 0.0, 0.0, P)
        np.testing.assert_allclose(
            hi - lo, CODATA.eps0 * P.E0**2 * 0.999999 * P.r0 / (2.0 * P.R0),
            rtol=1e-9)

    def test_model_volume_integral(self, params, grid, k):
        quad = np.dot(grid.weights,
                      energy_density_model(grid.R, grid.phi, grid.z, params, k))
        closed = (k.eps0 * np.pi**2 * params.R0 * params.r0**2 * params.E0**2
                  * (2.5 + params.r0**2 / (8.0 * params.R0**2)))
        np.testing.assert_allclose(quad, closed, rtol=1e-10)

    def test_em_convention_at_phase_zero(self):
        u = energy_density_em(P.R0, 0.0, 0.0, 0.0, P)
        np.testing.assert_allclose(u, 2.0 * CODATA.eps0 * P.E0**2, rtol=1e-12)

    def test_em_convention_time_average(self):
        # the textbook density does NOT average to the model's closed form
        t = np.arange(64) / 64.0 * (2.0 * np.pi / P.omega)
        R = P.R0 + 0.3 * P.r0
        u_avg = np.mean(energy_density_em(R, 0.4, 0.0, t, P))
        expected = 0.25 * CODATA.eps0 * P.E0**2 * (2.0 + (1.0 + R / P.R0) ** 2)
        np.testing.assert_allclose(u_avg, expected, rtol=1e-12)
        at_axis = np.mean(energy_density_em(P.R0, 0.4, 0.0, t, P))
        np.testing.assert_allclose(at_axis, 1.5 * CODATA.eps0 * P.E0**2, rtol=1e-12)
        assert not np.isclose(u_avg, float(energy_density_model(R, 0.4, 0.0, P)),
                              rtol=1e-2, atol=0.0)


class TestSamples:
    def test_phasor_structure(self):
        E = e_phasor(P.R0, 0.25, 0.1, 0.0, P)
        B = b_phasor(P.R0, 0.25, 0.1, 0.0, P)
        assert E[2] == 0.0 and B[0] == 0.0 and B[1] == 0.0

    def test_scaled_params_replace(self):
        q = dataclasses.replace(P, E0=7.0 * P.E0)
        E, B = real_fields(P.R0, 0.3, 0.0, 0.0, q)
        E1, B1 = real_fields(P.R0, 0.3, 0.0, 0.0, P)
        np.testing.assert_allclose(E, 7.0 * E1, rtol=1e-15)
        np.testing.assert_allclose(B, 7.0 * B1, rtol=1e-15)

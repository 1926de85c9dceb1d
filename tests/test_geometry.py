"""Coordinate transforms, torus membership, and quadrature grids."""

import numpy as np
import pytest

from toroidal_em.fields import mask
from toroidal_em.geometry import (MIN_RESOLUTION, QuadratureGrid, TorusGeometry,
                                  _gauss_legendre, _theta_rule, build_grid,
                                  integrate_axisymmetric, toroidal_to_cylindrical)

G = TorusGeometry(R0=2.0, r0=0.5)


class TestCoordinates:
    def test_axis_circle(self):
        R, z = toroidal_to_cylindrical(0.0, 1.3, G)
        assert (R, z) == (2.0, 0.0)

    def test_outboard_midplane(self):
        R, z = toroidal_to_cylindrical(0.5, 0.0, G)
        np.testing.assert_allclose([R, z], [2.5, 0.0], atol=1e-15)

    def test_top_of_tube(self):
        R, z = toroidal_to_cylindrical(0.5, np.pi / 2.0, G)
        np.testing.assert_allclose([R, z], [2.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("r", [-0.1, np.nan, [0.1, np.nan]], ids=str)
    def test_negative_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be >= 0"):
            toroidal_to_cylindrical(r, 0.0, G)

    def test_roundtrip_membership(self):
        # mask must agree with r < r0 across the tube and beyond
        rng = np.random.default_rng(7)
        r = rng.uniform(0.0, 2.0 * G.r0, size=10_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=10_000)
        R, z = toroidal_to_cylindrical(r, theta, G)
        np.testing.assert_array_equal(mask(R, z, G), r < G.r0)


class TestMembership:
    def test_axis_inside(self):
        assert mask(G.R0, 0.0, G)

    def test_far_outside(self):
        assert not mask(G.R0 + 2.0 * G.r0, 0.0, G)

    def test_boundary_excluded(self):
        assert not mask(G.R0 + G.r0, 0.0, G)


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(R0=1.0, r0=1.5)
    with pytest.raises(ValueError):
        TorusGeometry(R0=1.0, r0=0.0)


class TestGrid:
    def test_volume_coarse(self):
        g = build_grid(G, (8, 16, 16))
        np.testing.assert_allclose(g.weights.sum(), G.volume, rtol=1e-8)

    def test_volume_default(self):
        g = build_grid(G, (32, 64, 64))
        np.testing.assert_allclose(g.weights.sum(), G.volume, rtol=1e-12)

    def test_nodes_strictly_interior(self):
        g = build_grid(G, (8, 16, 16))
        assert np.all(g.r > 0.0) and np.all(g.r < G.r0)
        assert np.all(g.weights > 0.0)

    @pytest.mark.parametrize("n", [4, 7, 32, 64])
    def test_cached_rule_is_leggauss_and_read_only(self, n):
        x, w = _gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == x_ref.tobytes() and w.tobytes() == w_ref.tobytes()
        assert _gauss_legendre(n)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert x.tobytes() == x_ref.tobytes() and w.tobytes() == w_ref.tobytes()
        _gauss_legendre(n + 1)  # only the most recent n's rule stays
        assert _gauss_legendre.cache_info().currsize == 1

    def test_cached_theta_factors_are_read_only_and_hold_n_theta_floats(self):
        g = build_grid(G, (512, 512, 4))
        factors = _theta_rule(512)
        theta = 2.0 * np.pi * np.arange(512) / 512
        reference = (theta, np.cos(theta), np.sin(theta))
        assert _theta_rule(512) is factors
        for a, ref in zip(factors, reference):
            assert a.shape == (512,) and not a.flags.writeable
            assert a.tobytes() == ref.tobytes()
        assert g.plane_theta.tobytes() == np.tile(theta, 512).tobytes()
        build_grid(G, (8, 16, 4))  # only the most recent n_theta's factors stay
        assert _theta_rule.cache_info().currsize == 1

    def test_grids_do_not_share_the_cached_rule(self):
        g = build_grid(G, (6, 8, 4))
        g.r_weights[0] = -1.0
        g.plane_theta[1] = -1.0
        fresh = build_grid(G, (6, 8, 4))
        assert fresh.r_weights[0] > 0.0 and fresh.plane_theta[1] > 0.0

    @pytest.mark.parametrize("resolution, count", [
        ((3, 16, 16), "n_r"),
        ((8, 8.5, 8), "n_theta"),
        ((4.5, 8, 8), "n_r"),
        ((8, 8, np.int64(8)), "n_phi"),
        ((8, True, 8), "n_theta"),
        ((8, 8, 3), "n_phi"),
        ((4, 4), "three counts"),
        ((4, 4, 4, 4), "three counts"),
    ], ids=str)
    def test_rejects_tiny_resolution(self, resolution, count):
        with pytest.raises(ValueError, match=count):
            build_grid(G, resolution)

    def test_accepts_any_sequence_of_three_counts(self):
        g = build_grid(G, [MIN_RESOLUTION] * 3)
        assert g.resolution == (MIN_RESOLUTION,) * 3

    def test_phi_count_allocates_nothing(self):
        g = build_grid(G, (4, 4, 10**12))
        assert g.resolution == (4, 4, 10**12)
        assert g.n_nodes == 16 * 10**12
        assert "phi_nodes" not in g.__dict__
        assert all(a.size <= 16 for a in vars(g).values() if isinstance(a, np.ndarray))

    def test_moment_integral(self):
        g = build_grid(G, (32, 64, 64))
        exact = 2.0 * np.pi**2 * G.R0**2 * G.r0**2 * (1.0 + G.r0**2 / (4.0 * G.R0**2))
        np.testing.assert_allclose(integrate_axisymmetric(g.plane_R, g), exact, rtol=1e-10)

    def test_second_moment_integral(self):
        g = build_grid(G, (32, 64, 64))
        exact = 2.0 * np.pi**2 * G.R0**3 * G.r0**2 * (1.0 + 3.0 * G.r0**2 / (4.0 * G.R0**2))
        np.testing.assert_allclose(integrate_axisymmetric(g.plane_R**2, g), exact,
                                   rtol=1e-10)


class TestIntegrate:
    def setup_method(self):
        self.g = build_grid(G, (16, 32, 32))

    def test_constant_one(self):
        np.testing.assert_allclose(
            integrate_axisymmetric(np.ones(self.g.plane_weights.size), self.g),
            G.volume, rtol=1e-12)

    def test_zero_exact(self):
        assert integrate_axisymmetric(np.zeros(self.g.plane_weights.size), self.g) == 0.0

    def test_linearity(self):
        f = np.exp(self.g.plane_r / G.r0)
        g2 = np.cos(self.g.plane_theta)
        lhs = integrate_axisymmetric(3.0 * f - 2.0 * g2, self.g)
        rhs = 3.0 * integrate_axisymmetric(f, self.g) - 2.0 * integrate_axisymmetric(g2, self.g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            integrate_axisymmetric(bad, self.g)

    def test_axisymmetric_non_finite_rejected(self):
        bad = np.ones(self.g.plane_weights.size)
        bad[5] = np.nan
        with pytest.raises(ValueError):
            integrate_axisymmetric(bad, self.g)


RESOLUTIONS = [(8, 16, 16), (32, 64, 64), (9, 17, 13)]


class TestTensorFactors:
    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_flat_nodes_match_meshgrid_construction(self, resolution):
        n_r, n_theta, n_phi = resolution
        x, w = np.polynomial.legendre.leggauss(n_r)
        r3, t3, p3 = np.meshgrid(0.5 * G.r0 * (x + 1.0),
                                 2.0 * np.pi * np.arange(n_theta) / n_theta,
                                 2.0 * np.pi * np.arange(n_phi) / n_phi,
                                 indexing="ij")
        w3 = (0.5 * G.r0 * w)[:, None, None] * (2.0 * np.pi / n_theta) \
            * (2.0 * np.pi / n_phi) * (r3 * (G.R0 + r3 * np.cos(t3)))
        reference = {"r": r3, "theta": t3, "phi": p3, "weights": w3,
                     "R": G.R0 + r3 * np.cos(t3), "z": r3 * np.sin(t3)}
        g = build_grid(G, resolution)
        assert g.n_nodes == n_r * n_theta * n_phi
        for name, ref in reference.items():
            flat = getattr(g, name)
            assert flat.shape == (g.n_nodes,), name
            assert np.array_equal(flat, ref.ravel()), name

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_plane_matches_meshgrid_construction(self, resolution):
        n_r, n_theta, _ = resolution
        x, w = np.polynomial.legendre.leggauss(n_r)
        r2, t2 = np.meshgrid(0.5 * G.r0 * (x + 1.0),
                             2.0 * np.pi * np.arange(n_theta) / n_theta, indexing="ij")
        w2 = (0.5 * G.r0 * w)[:, None] * (2.0 * np.pi / n_theta) * (2.0 * np.pi) \
            * (r2 * (G.R0 + r2 * np.cos(t2)))
        reference = {"r": r2, "theta": t2, "R": G.R0 + r2 * np.cos(t2),
                     "z": r2 * np.sin(t2), "weights": w2}
        g = build_grid(G, resolution)
        for name, ref in reference.items():
            plane = getattr(g, "plane_" + name)
            assert plane.shape == (n_r * n_theta,), name
            assert plane.tobytes() == ref.tobytes(), name  # bit for bit, signed zeros too

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_plane_is_every_phi_slice_of_the_flat_nodes(self, resolution):
        g = build_grid(G, resolution)
        n_r, n_theta, n_phi = resolution
        for name in ("r", "theta", "R", "z"):
            plane = getattr(g, "plane_" + name)
            slices = getattr(g, name).reshape(n_r * n_theta, n_phi)
            assert np.array_equal(slices, np.repeat(plane[:, None], n_phi, axis=1)), name
        np.testing.assert_allclose(
            g.plane_weights, g.weights.reshape(n_r * n_theta, n_phi).sum(axis=1),
            rtol=1e-14)

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_axisymmetric_volume_and_moment(self, resolution):
        g = build_grid(G, resolution)
        np.testing.assert_allclose(integrate_axisymmetric(1.0, g), G.volume, rtol=1e-14)
        np.testing.assert_allclose(integrate_axisymmetric(g.plane_R, g),
                                   np.dot(g.weights, g.R), rtol=1e-14)


class TestConvergence:
    """Rectangle rule is spectral in the angles; Gauss in r."""

    @staticmethod
    def _integral(resolution):
        g = build_grid(G, resolution)
        return integrate_axisymmetric(np.exp(np.cos(g.plane_theta))
                                      * np.exp(g.plane_r / G.r0), g)

    def _err(self, resolution, reference):
        return abs(self._integral(resolution) - reference)

    def test_angle_and_radial_rates(self):
        reference = self._integral((48, 96, 96))
        floor = 1e-13 * abs(reference)
        # doubling n_theta: error drops at least 4x (spectral, typically far more)
        e1 = self._err((12, 6, 32), reference)
        e2 = self._err((12, 12, 32), reference)
        assert e2 < max(e1 / 4.0, floor)
        # doubling n_r: Gauss-Legendre converges superalgebraically
        e1 = self._err((4, 32, 32), reference)
        e2 = self._err((8, 32, 32), reference)
        assert e2 < max(e1 / 4.0, floor)


def test_grid_record_fields():
    g = build_grid(G, (8, 16, 16))
    assert isinstance(g, QuadratureGrid)
    assert g.resolution == (8, 16, 16)
    assert g.n_nodes == 8 * 16 * 16
    np.testing.assert_allclose(g.R, G.R0 + g.r * np.cos(g.theta), rtol=1e-15)

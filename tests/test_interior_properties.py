"""Property test: the mask reads 1.0 at every point the verification and
the quadrature evaluate.

Neither layer evaluates the mask; both call the interior kernels of
``scalar`` directly.  That equals the masked public fields because every
point they read lies inside the tube: the Gauss-Legendre nodes have
r < r0, and the samples s = r0*sqrt(u) with u < 1.  The mask is evaluated
on the rounded (R, z), so a sample drawn with u within about 2^-45 of 1
could still read 0.0 there, a chance below 1e-9 in 20,000 samples.  For
R0 in 10^[-15, 0] m, r0/R0 in [0.01, 0.99] and n_r, n_theta in
[4, 128], every node and every sample reads 1.0.

At those samples the field's two Lorentz invariants, formed from
``real_fields``, keep their closed forms (sympy proves them from the
kernels in ``test_maxwell_symbolic.py``): E.B is 0.0 exactly, and
E^2 - c^2*B^2 = E0^2*(1 + R/R0)^2*cos^2(psi) stays at or below its peak
E0^2*(2 + r0/R0)^2 over the tube, tuned or with omega detuned 0.5-2x, and
reaches that peak within rounding at the outermost interior R and psi = 0.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, strategies as st

from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams, mask, real_fields
from toroidal_em.geometry import MIN_RESOLUTION, build_grid
from toroidal_em.maxwell import SamplingConfig, interior_samples

SAMPLES = 20_000

configurations = st.tuples(st.floats(-15.0, 0.0).map(lambda e: 10.0**e),
                           st.floats(0.01, 0.99))
counts = st.integers(MIN_RESOLUTION, 128)


@given(radii=configurations, n_r=counts, n_theta=counts, seed=st.integers(0, 2**32 - 1))
def test_mask_reads_one_at_every_node_and_sample(radii, n_r, n_theta, seed):
    R0, aspect = radii
    p = AnsatzParams.faraday(1.0, R0, aspect * R0)
    grid = build_grid(p.geometry, (n_r, n_theta, MIN_RESOLUTION))
    assert np.all(mask(grid.plane_R, grid.plane_z, p) == 1.0)
    R, _, z, _ = interior_samples(p, SamplingConfig(n_points=SAMPLES, seed=seed))
    assert np.all(mask(R, z, p) == 1.0)


@given(radii=configurations, E0=st.floats(0.0, 20.0).map(lambda e: 10.0**e),
       omega_scale=st.one_of(st.just(1.0), st.floats(0.5, 2.0)), seed=st.integers(0, 2**32 - 1))
def test_sampled_lorentz_invariants_stay_at_or_below_their_peak(radii, E0, omega_scale, seed):
    # E.B = 0 and E^2 - c^2*B^2 = E0^2*(1 + R/R0)^2*cos^2(psi), whose peak
    # over the tube is E0^2*(2 + r0/R0)^2 at R = R0 + r0 and psi = 0
    R0, aspect = radii
    tuned = AnsatzParams.faraday(E0, R0, aspect * R0)
    p = dataclasses.replace(tuned, omega=omega_scale * tuned.omega)
    peak = E0**2 * (2.0 + p.r0 / R0) ** 2

    def invariants(R, phi, z, t):
        E, B = real_fields(R, phi, z, t, p)
        return np.sum(E * B, axis=0), np.sum(E**2, axis=0) - CODATA.c**2 * np.sum(B**2, axis=0)

    dot, electric = invariants(*interior_samples(p, SamplingConfig(n_points=2_000, seed=seed)))
    assert np.all(dot == 0.0)
    assert np.all(electric <= peak * (1.0 + 1e-12))
    # the largest R inside the tube, at psi = 0
    R = R0 + p.r0
    while mask(R, 0.0, p) != 1.0:
        R = math.nextafter(R, 0.0)
    dot, electric = invariants(R, 0.0, 0.0, 0.0)
    assert dot == 0.0 and abs(electric / peak - 1.0) <= 1e-14

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
"""

import numpy as np
from hypothesis import given, strategies as st

from toroidal_em.fields import AnsatzParams, mask
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

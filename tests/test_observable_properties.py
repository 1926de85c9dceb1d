"""Property tests: the observables over the whole parameter space.

For any R0 in 10^[-15, 1] m, r0/R0 in [0.01, 0.99] and E0 in
{0} U 10^[0, 20] V/m, the quadratures of Q_rms, L_z and U match their
closed forms, the moment diagnostic is 2*pi times its closed form, and
the amplitude power laws hold, at the default grid and at the coarsest
grid ``build_grid`` accepts.  On that coarsest (4, 4, 4) grid every
quadrature is its closed form to within a few ulps, the evidence a choice
of the smallest exact ``DEFAULT_RESOLUTION`` rests on.
"""

import math

import pytest
from hypothesis import given, strategies as st

from toroidal_em.fields import AnsatzParams
from toroidal_em.geometry import (DEFAULT_RESOLUTION, MIN_RESOLUTION,
                                  build_grid)
from toroidal_em.observables import compute_observables

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

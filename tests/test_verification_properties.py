"""Property tests: full_verification over the whole parameter space.

For any r0/R0 from 0.01 to 0.95, R0 from 1e-15 to 1 m and E0 from 1 to
1e20 V/m, the complex-step residuals of a tuned configuration are
roundoff, at most 1e-13 relative, and a detuned (1-20%) or static omega
fails Faraday's law and no other.

Over the parameter space of the ``verify_dense`` benchmark, the Faraday
check passes exactly when its residual is below the tolerance, and that
residual reads twice the relative detune d = omega*R0/(2c) - 1.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toroidal_em.constants import CODATA  # noqa: E402
from toroidal_em.fields import AnsatzParams  # noqa: E402
from toroidal_em.maxwell import SamplingConfig, full_verification  # noqa: E402

# Largest relative residual of a tuned law: 1e-13, against a 1e-12 default
# tolerance and about 2e-14 measured over these ranges.
TUNED_MAX = 1e-13


@st.composite
def configurations(draw):
    """(params, tuning, sampling): log-uniform E0 and R0, r0/R0 in [0.01, 0.95]."""
    E0 = 10.0 ** draw(st.floats(0.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.01, 0.95)) * R0
    tuning = draw(st.sampled_from(["tuned", "detuned", "static"]))
    p = AnsatzParams.faraday(E0, R0, r0)
    if tuning == "detuned":
        factor = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 0.2))
        p = AnsatzParams.with_omega(E0, R0, r0, omega=factor * p.omega)
    elif tuning == "static":
        p = AnsatzParams.with_omega(E0, R0, r0, omega=0.0)
    sampling = SamplingConfig(n_points=draw(st.integers(1, 300)),
                              seed=draw(st.integers(0, 2**32 - 1)))
    return p, tuning, sampling


@given(configurations())
def test_tuned_laws_hold_to_roundoff_and_detuning_fails_faraday_alone(configuration):
    p, tuning, sampling = configuration
    reports = full_verification(p, sampling)
    failed = [r.equation for r in reports if not r.passed]
    if tuning == "tuned":
        assert failed == []
        assert max(r.max_rel_residual for r in reports) <= TUNED_MAX
    else:
        assert failed == ["faraday"]
        assert max(r.max_rel_residual for r in reports if r.equation != "faraday") <= TUNED_MAX


@st.composite
def detuned_configurations(draw):
    """(params, detuned): log-uniform E0 in [1, 1e20] V/m and R0 in
    [1e-15, 1] m, r0/R0 in [0.05, 0.9], and omega = 2c/R0 or detuned by
    1e-11 to 0.2 relative."""
    E0 = 10.0 ** draw(st.floats(0.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.05, 0.9)) * R0
    p = AnsatzParams.faraday(E0, R0, r0)
    detuned = draw(st.booleans())
    if detuned:
        detune = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, math.log10(0.2)))
        p = AnsatzParams(E0, R0, r0, omega=p.omega * (1.0 + detune))
    return p, detuned


@given(detuned_configurations())
def test_faraday_passes_iff_its_residual_is_below_tol_and_reads_twice_the_detune(configuration):
    p, detuned = configuration
    # curl E + dB/dt = (2*E0/R0)*d*cos(psi): over these samples the largest
    # |cos(psi)| is within 1e-4 of 1
    d = p.omega * p.R0 / (2.0 * CODATA.c) - 1.0
    note = f"omega detuned from 2c/R0 by {d:+.3e} relative" if d else ""
    for tol in (1e-12, 1e-6, 1e-2):
        faraday = full_verification(p, SamplingConfig(n_points=64, seed=3), tol=tol)[2]
        assert faraday.passed == (faraday.max_rel_residual < tol)
        assert faraday.note == note
    if detuned:
        assert 1.99 <= faraday.max_rel_residual / abs(d) <= 2.01
    else:
        assert faraday.max_rel_residual <= TUNED_MAX

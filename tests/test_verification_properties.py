"""Property tests: full_verification over the whole parameter space.

The shared-trigonometry evaluation in ``full_verification`` must give,
bit for bit, the reports of the unshared evaluation written here from the
public field functions and FD operators, for any 0 < r0 < R0, any E0 >= 0
and a tuned, detuned or static omega.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toroidal_em.constants import CODATA  # noqa: E402
from toroidal_em.fields import (AnsatzParams, charge_density,  # noqa: E402
                                current_density, real_fields)
from toroidal_em.maxwell import (DEFAULT_TOLERANCE,  # noqa: E402
                                 SamplingConfig, _reports, fd_curl_cylindrical,
                                 fd_div_cylindrical, full_verification,
                                 interior_samples)


def unshared_verification(p, sampling, k=CODATA, tol=DEFAULT_TOLERANCE):
    """Every field, current and charge evaluated by its own public call."""
    R, phi, z, t = interior_samples(p, sampling, k=k)
    h = sampling.h
    dt = h * (2.0 * np.pi / p.omega if p.omega > 0.0 else p.R0 / k.c) / (2.0 * np.pi)

    def fd(operator, field):
        return operator(field, R, phi, z, h, p)

    div_B = fd(fd_div_cylindrical, lambda R_, phi_, z_: real_fields(R_, phi_, z_, t, p)[1])
    div_E = fd(fd_div_cylindrical, lambda R_, phi_, z_: real_fields(R_, phi_, z_, t, p)[0])
    curl_E = fd(fd_curl_cylindrical, lambda R_, phi_, z_: real_fields(R_, phi_, z_, t, p)[0])
    div_J = fd(fd_div_cylindrical, lambda R_, phi_, z_: current_density(R_, phi_, z_, t, p, k))
    source = charge_density(R, phi, z, t, p, k) / k.eps0
    fd_dbdt = (real_fields(R, phi, z, t + dt, p)[1]
               - real_fields(R, phi, z, t - dt, p)[1]) / (2.0 * dt)
    fd_drho = (charge_density(R, phi, z, t + dt, p, k)
               - charge_density(R, phi, z, t - dt, p, k)) / (2.0 * dt)

    omega_ok = p.is_faraday(k)
    note = "" if omega_ok else \
        f"omega detuned from 2c/R0 by {p.omega * p.R0 / (2.0 * k.c) - 1.0:+.3e} relative"
    rows = np.array([div_B, div_E - source, np.linalg.norm(curl_E + fd_dbdt, axis=0),
                     div_J + fd_drho])
    return _reports(rows, sampling, [
        ("gauss_B", "E0/(c*R0)", p.E0 / (k.c * p.R0), True, ""),
        ("gauss_E", "E0/R0", p.E0 / p.R0, True, ""),
        ("faraday", "E0/R0", p.E0 / p.R0, omega_ok, note),
        ("ampere_continuity", "eps0*omega*E0/R0", k.eps0 * p.omega * p.E0 / p.R0, True, ""),
    ], tol)


@st.composite
def configurations(draw):
    """(params, tuning, sampling): log-uniform E0 and R0, r0/R0 in [0.05, 0.9]."""
    E0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0).map(lambda e: 10.0**e)))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.05, 0.9)) * R0
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
def test_shared_evaluation_equals_unshared_reference(configuration):
    p, tuning, sampling = configuration
    reports = full_verification(p, sampling)
    assert ([dataclasses.asdict(r) for r in reports]
            == [dataclasses.asdict(r) for r in unshared_verification(p, sampling)])

    failed = [r.equation for r in reports if not r.passed]
    if p.E0 == 0.0 or tuning == "tuned":
        # a zero amplitude makes every law hold vacuously
        assert failed == []
    else:
        assert failed == ["faraday"]

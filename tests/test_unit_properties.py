"""Property test: the full report is exact under power-of-two changes of unit.

Measuring length, time, mass and charge in units 2^a times smaller, with
an independent integer exponent |a| <= 10 for each, multiplies c, eps0,
hbar, e and m_e by powers of two and leaves alpha as it is (E.
Buckingham, Phys. Rev. 4, 345, 1914).  A power of two changes only a
float's exponent, so no operation rounds differently: every dimensionless
output of ``build_full_report`` is the same double, and every SI output
scales exactly by its dimension.  The five ratios, each residual's
relative maximum, mean and verdict, ``mu_quadrature_ratio``, each
observable's ``rel_difference`` and every claim but the ``si.*`` ones,
whose reference numbers are SI and do not follow the units, must be
bit-identical; the solved radii scale by exactly L.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toroidal_em.constants import CODATA  # noqa: E402
from toroidal_em.report import build_full_report  # noqa: E402

EXPONENT = st.integers(-10, 10)


def dimensionless(report) -> dict:
    """Every output of a report that no change of unit may move."""
    rr, obs = report.ratios, report.observables
    return {
        "ratios": [rr.E0_over_ES, rr.R0_over_rc, rr.r0_over_rc, rr.U_over_mec2,
                   rr.omega_over_omegaD],
        "residuals": [(r.equation, r.max_rel_residual, r.mean_rel_residual, r.passed)
                      for r in report.residual_checks],
        "mu_quadrature_ratio": obs.mu_quadrature_ratio,
        "rel_difference": [getattr(obs, name).rel_difference
                           for name in ("Q_rms", "mu_z", "L_z", "U")],
        "claims": [(c.id, c.rel_deviation, c.passed) for c in report.claims
                   if not c.id.startswith("si.")],
    }


@pytest.fixture(scope="module")
def reference():
    return build_full_report(CODATA)


@given(a=st.tuples(EXPONENT, EXPONENT, EXPONENT, EXPONENT))
def test_report_is_exact_under_power_of_two_units(reference, rescaled, a):
    L, T, M, Q = (2.0**x for x in a)
    report = build_full_report(rescaled(CODATA, L, T, M, Q))
    assert dimensionless(report) == dimensionless(reference)
    for solution in ("solve_thin", "solve_full"):
        scaled, base = getattr(report, solution), getattr(reference, solution)
        assert (scaled.R0, scaled.r0) == (L * base.R0, L * base.r0)

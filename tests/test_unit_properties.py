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
bit-identical; the solved radii scale by exactly L, and every other SI
output scales exactly by its dimension: E0, omega and U of both solves,
the SI echoes of ``ratios`` and U_MeV, each ``si.*`` claim's
``computed_value``, and each residual report's ``normalization_value``
and ``max_abs_residual``.

The same holds for the constraint solve on its own: ``solve_full`` and
``ratio_report`` of either mode, with or without the Schwinger factor,
give bit-identical residuals and ratios, and E0, R0, r0, omega and U
scale exactly by their dimensions.  So does ``compute_observables`` on
its own, for the tuned and a detuned omega: each closed form and each
quadrature of Q_rms, mu_z, L_z and U, and v_phase, scale exactly by their
dimensions, and each ``rel_difference`` and ``mu_quadrature_ratio`` is
bit-identical.
"""

import pytest
from hypothesis import given, strategies as st

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.fields import AnsatzParams
from toroidal_em.geometry import build_grid
from toroidal_em.observables import compute_observables
from toroidal_em.report import build_full_report
from toroidal_em.solver import (FULL, THIN, ConstraintSystem, ratio_report,
                                solve_full)

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


def si_outputs(report) -> dict:
    """Every SI output of a report but the solved radii, keyed by (where,
    what) with ``what`` naming its dimension: a quantity, or for a residual
    report the law whose residual it measures."""
    out = {}
    for solution in ("solve_thin", "solve_full"):
        sr = getattr(report, solution)
        out |= {(solution, name): getattr(sr, name) for name in ("E0", "omega", "U")}
    out |= {("ratios", name): getattr(report.ratios, name)
            for name in ("E0", "R0", "r0", "omega", "U", "U_MeV")}
    out |= {tuple(c.id.split(".")): c.computed_value for c in report.claims
            if c.id.startswith("si.")}
    for r in report.residual_checks:
        out |= {("normalization_value", r.equation): r.normalization_value,
                ("max_abs_residual", r.equation): r.max_abs_residual}
    return out


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
    # E in V/m = M*L/(T^2*Q), omega in 1/T, U in J = M*L^2/T^2 and U_MeV in
    # V = J/C = M*L^2/(T^2*Q); div B in T/m = M/(T*Q*L), div E and curl E in
    # V/m^2 = M/(T^2*Q), and div J in A/m^3 = Q/(T*L^3)
    E, U = M * L / (T**2 * Q), M * L**2 / T**2
    dimension = {"E0": E, "R0": L, "r0": L, "omega": 1 / T, "U": U, "U_MeV": U / Q,
                 "gauss_B": M / (T * Q * L), "gauss_E": E / L, "faraday": E / L,
                 "ampere_continuity": Q / (T * L**3)}
    assert si_outputs(report) == {key: dimension[key[1]] * value
                                  for key, value in si_outputs(reference).items()}


def solve(k, mode, include_schwinger):
    """The electron fit of one mode alone, with its ratios."""
    sr = solve_full(k, ConstraintSystem.for_electron(k, mode, include_schwinger))
    return sr, ratio_report(sr, derived_scales(k), k)


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "no-schwinger"])
@pytest.mark.parametrize("mode", [FULL, THIN])
@given(a=st.tuples(EXPONENT, EXPONENT, EXPONENT, EXPONENT))
def test_solve_is_exact_under_power_of_two_units(rescaled, mode, include_schwinger, a):
    L, T, M, Q = (2.0**x for x in a)
    base, base_ratios = solve(CODATA, mode, include_schwinger)
    sr, ratios = solve(rescaled(CODATA, L, T, M, Q), mode, include_schwinger)
    assert sr.residuals == base.residuals
    names = ("E0_over_ES", "R0_over_rc", "r0_over_rc", "U_over_mec2", "omega_over_omegaD")
    assert [getattr(ratios, n) for n in names] == [getattr(base_ratios, n) for n in names]
    # E in V/m = M*L/(T^2*Q), omega in 1/T, U in J = M*L^2/T^2
    assert (sr.E0, sr.R0, sr.r0, sr.omega, sr.U) == (
        M * L / (T**2 * Q) * base.E0, L * base.R0, L * base.r0, base.omega / T,
        M * L**2 / T**2 * base.U)


@pytest.mark.parametrize("detune", [1.0, 1.1], ids=["tuned", "detuned"])
@given(a=st.tuples(EXPONENT, EXPONENT, EXPONENT, EXPONENT))
def test_observables_are_exact_under_power_of_two_units(params, rescaled, detune, a):
    L, T, M, Q = (2.0**x for x in a)
    p = AnsatzParams(params.E0, params.R0, params.r0, detune * params.omega)
    # E in V/m = M*L/(T^2*Q), omega in 1/T
    scaled = AnsatzParams(M * L / (T**2 * Q) * p.E0, L * p.R0, L * p.r0, p.omega / T)
    base = compute_observables(p, build_grid(p.geometry, (8, 16, 4)), CODATA)
    obs = compute_observables(scaled, build_grid(scaled.geometry, (8, 16, 4)),
                              rescaled(CODATA, L, T, M, Q))
    # Q_rms in C, mu_z in A m^2 = Q*L^2/T, L_z in J s = M*L^2/T, U in J = M*L^2/T^2
    for name, unit in [("Q_rms", Q), ("mu_z", Q * L**2 / T), ("L_z", M * L**2 / T),
                       ("U", M * L**2 / T**2)]:
        pair, ref = getattr(obs, name), getattr(base, name)
        assert (pair.closed_form, pair.quadrature) == (
            unit * ref.closed_form, unit * ref.quadrature), name
        assert pair.rel_difference == ref.rel_difference, name
    assert obs.v_phase == L / T * base.v_phase
    assert obs.mu_quadrature_ratio == base.mu_quadrature_ratio

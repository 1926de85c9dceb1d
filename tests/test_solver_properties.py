"""Property tests of the constraint solve.

Rescaling the constants as a change of the length-time unit by a factor
lambda, drawn log-uniform in 10^[-3, 3], moves every SI output of the
solve but none of the dimensionless ratios, in thin and full mode, with
and without the Schwinger factor.

For any targets with a = Q^2/(2*pi^2*eps0*c*S) in (1e-4, 0.8), the range
where both modes have a torus with r0 < R0, the closed-form solution
meets all three constraints and has r0 < R0.  For any targets at all,
log-uniform over 10^[-300, 300], the solve returns such a solution or
raises ValueError or ConvergenceError.

The solve runs in Python floats; it gives the same bits as the same
formulas in numpy float64, which the reference below keeps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.solver import (FULL, THIN, ConstraintSystem,
                                ConvergenceError, constraint_residuals, ratio_report,
                                solve_full, solve_thin_torus)

RATIOS = ("E0_over_ES", "R0_over_rc", "r0_over_rc", "U_over_mec2", "omega_over_omegaD")


def ratios(mode, include_schwinger, k):
    if mode == "thin":
        sr = solve_thin_torus(k, include_schwinger=include_schwinger)
    else:
        sr = solve_full(k, sys=ConstraintSystem.for_electron(k, FULL, include_schwinger))
    rr = ratio_report(sr, derived_scales(k), k)
    return {name: getattr(rr, name) for name in RATIOS}


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "bare"])
@pytest.mark.parametrize("mode", ["thin", "full"])
@given(lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_unit_rescale_leaves_ratios_invariant(mode, include_schwinger, lam, rescaled):
    reference = ratios(mode, include_schwinger, CODATA)
    scaled = ratios(mode, include_schwinger, rescaled(CODATA, lam))
    for name in RATIOS:
        assert scaled[name] == pytest.approx(reference[name], rel=1e-12), name


# Just below 4/5: a drawn a few ulps below it could round up to 4/5 when
# the solve recomputes a from the targets.
A_MAX = 0.8 * (1.0 - 1e-12)


@pytest.mark.parametrize("mode", [THIN, FULL])
@given(a=st.floats(1e-4, A_MAX, exclude_min=True),
       spin_decades=st.floats(-3.0, 3.0), moment_decades=st.floats(-3.0, 3.0))
def test_any_admissible_targets_solve(mode, a, spin_decades, moment_decades):
    electron = ConstraintSystem.for_electron(CODATA)
    S = electron.spin_target * 10.0**spin_decades
    Q = math.sqrt(a * 2.0 * math.pi**2 * CODATA.eps0 * CODATA.c * S)
    sys = ConstraintSystem(S, Q, electron.moment_target * 10.0**moment_decades, mode)
    sr = solve_full(CODATA, sys)
    assert sr.r0 < sr.R0
    assert np.max(np.abs(constraint_residuals((sr.E0, sr.R0, sr.r0), sys, CODATA))) < 1e-12


@pytest.mark.parametrize("mode", [THIN, FULL])
@given(decades=st.tuples(*3 * [st.floats(-300.0, 300.0)]))
def test_any_targets_solve_or_raise_a_clean_error(mode, decades):
    sys = ConstraintSystem(*(10.0**d for d in decades), mode)
    try:
        sr = solve_full(CODATA, sys)
    except (ValueError, ConvergenceError):
        return
    assert all(map(math.isfinite, (sr.E0, sr.R0, sr.r0)))
    assert 0.0 < sr.r0 < sr.R0


# Reference: the solve, the closed forms and the residuals written in
# numpy float64 arithmetic.

def reference_closed_forms(E0, R0, r0, k, corrections):
    """(L_z, Q_rms, mu_z, U) in numpy float64."""
    aspect2 = r0**2 / R0**2 if corrections else 0.0
    return (k.eps0 * E0**2 * np.pi**2 * R0**2 * r0**2 / k.c * (1.0 + aspect2 / 4.0),
            np.sqrt(2.0) * np.pi**2 * k.eps0 * E0 * r0**2,
            np.sqrt(2.0) * k.eps0 * np.pi * k.c * E0 * R0 * r0**2 * (1.0 + aspect2 / 2.0),
            k.eps0 * np.pi**2 * R0 * r0**2 * E0**2 * (2.5 + aspect2 / 8.0))


def reference_residuals(x, sys, k):
    E0, R0, r0 = (float(v) for v in x)
    lhs = np.array(reference_closed_forms(E0, R0, r0, k, sys.mode == FULL)[:3])
    return lhs / (sys.spin_target, sys.charge_target, sys.moment_target) - 1.0


def reference_solve(sys, k):
    """(E0, R0, r0, omega, U, residuals) of the closed-form solve."""
    S, Q, M = sys.spin_target, sys.charge_target, sys.moment_target
    w = 1.0 if sys.mode == FULL else 0.0
    a = Q**2 / (2.0 * np.pi**2 * k.eps0 * k.c * S)
    x2 = a / (1.0 - w * a / 4.0)
    R0 = np.pi * M / (k.c * Q * (1.0 + w * x2 / 2.0))
    E0 = float(np.sqrt(2.0) * k.c * S / (Q * R0**2 * (1.0 + w * x2 / 4.0)))
    r0 = float(np.sqrt(Q / (np.sqrt(2.0) * np.pi**2 * k.eps0 * E0)))
    res = tuple(float(r) for r in reference_residuals((E0, R0, r0), sys, k))
    U = float(reference_closed_forms(E0, R0, r0, k, sys.mode == FULL)[3])
    return E0, R0, r0, 2.0 * k.c / R0, U, res


def assert_bit_identical(sr, sys, k):
    """``sr``, its ratios, its field parameters and the residuals near it
    equal the numpy reference."""
    E0, R0, r0, omega, U, res = reference_solve(sys, k)
    assert (sr.E0, sr.R0, sr.r0, sr.omega, sr.U, sr.residuals) == (E0, R0, r0, omega, U, res)
    assert (sr.iterations, sr.mode) == (0, sys.mode)
    assert all(type(v) is float for v in (sr.E0, sr.R0, sr.r0, sr.omega, sr.U, *sr.residuals))
    ds = derived_scales(k)
    rr = ratio_report(sr, ds, k)
    assert (rr.E0_over_ES, rr.R0_over_rc, rr.r0_over_rc, rr.U_over_mec2,
            rr.omega_over_omegaD, rr.E0, rr.R0, rr.r0, rr.omega, rr.U, rr.U_MeV) == (
        E0 / ds.E_S, R0 / ds.r_c, r0 / ds.r_c, U / ds.rest_energy, omega / ds.omega_D,
        E0, R0, r0, omega, U, U / (k.e_charge * 1e6))
    p = sr.as_params(k)
    assert (p.E0, p.R0, p.r0, p.omega) == (E0, R0, r0, omega) and omega == 2.0 * k.c / R0
    assert all(type(v) is float for v in (p.E0, p.R0, p.r0, p.omega))
    for x in ((E0, R0, r0), (2.0 * E0, R0, r0), (E0, 0.5 * R0, r0), (E0, R0, 3.0 * r0)):
        got = constraint_residuals(x, sys, k)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert got == tuple(reference_residuals(x, sys, k))


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "bare"])
@pytest.mark.parametrize("mode", [THIN, FULL])
@given(lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_electron_solve_matches_numpy_reference_bit_for_bit(mode, include_schwinger, lam,
                                                            rescaled):
    for k in (CODATA, rescaled(CODATA, lam)):
        sys = ConstraintSystem.for_electron(k, mode, include_schwinger)
        factor = 1.0 + k.alpha / (2.0 * np.pi) if include_schwinger else 1.0
        assert (sys.spin_target, sys.charge_target, sys.moment_target) == (
            k.hbar / 2.0, k.e_charge, derived_scales(k).mu_B * factor)
        sr = solve_full(k, sys)
        assert_bit_identical(sr, sys, k)
        if mode == THIN:
            assert solve_thin_torus(k, include_schwinger) == sr
        elif include_schwinger:
            assert solve_full(k) == sr


@pytest.mark.parametrize("mode", [THIN, FULL])
@given(a=st.floats(1e-4, A_MAX, exclude_min=True),
       spin_decades=st.floats(-3.0, 3.0), moment_decades=st.floats(-3.0, 3.0))
def test_any_admissible_solve_matches_numpy_reference_bit_for_bit(
        mode, a, spin_decades, moment_decades):
    electron = ConstraintSystem.for_electron(CODATA)
    S = electron.spin_target * 10.0**spin_decades
    Q = math.sqrt(a * 2.0 * math.pi**2 * CODATA.eps0 * CODATA.c * S)
    sys = ConstraintSystem(S, Q, electron.moment_target * 10.0**moment_decades, mode)
    assert_bit_identical(solve_full(CODATA, sys), sys, CODATA)

"""Property tests of the constraint solve.

Rescaling the constants as a change of the length-time unit by a factor
lambda, drawn log-uniform in 10^[-3, 3], moves every SI output of the
solve but none of the dimensionless ratios, in thin and full mode, with
and without the Schwinger factor.

For any targets with a = Q^2/(2*pi^2*eps0*c*S) in (1e-4, 0.8), the range
where both modes have a torus with r0 < R0, the closed-form solution
meets all three constraints and has r0 < R0.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toroidal_em.constants import CODATA, PhysicalConstants, derived_scales  # noqa: E402
from toroidal_em.solver import (FULL, THIN, ConstraintSystem,  # noqa: E402
                                constraint_residuals, ratio_report, solve_full,
                                solve_thin_torus)

RATIOS = ("E0_over_ES", "R0_over_rc", "r0_over_rc", "U_over_mec2", "omega_over_omegaD")


def ratios(mode, include_schwinger, k):
    if mode == "thin":
        sr = solve_thin_torus(k, include_schwinger=include_schwinger)
    else:
        sr = solve_full(k, sys=ConstraintSystem.for_electron(k, FULL, include_schwinger))
    rr = ratio_report(sr, derived_scales(k), k)
    return {name: getattr(rr, name) for name in RATIOS}


def rescaled(k, lam):
    """The constants ``k`` in a unit system rescaled by ``lam``."""
    return PhysicalConstants(
        c=k.c * lam, eps0=k.eps0 / lam**3, mu0=k.mu0 * lam,
        hbar=k.hbar * lam**2, e_charge=k.e_charge, m_e=k.m_e, alpha=k.alpha)


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "bare"])
@pytest.mark.parametrize("mode", ["thin", "full"])
@given(lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_unit_rescale_leaves_ratios_invariant(mode, include_schwinger, lam):
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

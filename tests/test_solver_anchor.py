"""An independent 50-digit anchor for the constraint solve.

Dividing the moment and spin constraints by the charge constraint and
substituting back leaves one equation in x = r0/R0,

    x^2 = a*(1 + x^2/4),   a = Q^2/(2*pi^2*eps0*c*S),

so x^2 = a/(1 - a/4), R0 = pi*M/(c*Q*(1 + x^2/2)),
E0 = sqrt(2)*c*S/(Q*R0^2*(1 + x^2/4)) and r0 = x*R0 in full-corrections
mode; thin mode is the same without the brackets (x^2 = a).  Here that
closed form is evaluated with mpmath at 50 digits from the constant set
alone, without the solver's code, and the float64 solutions must match it.
"""

import pytest

mpmath = pytest.importorskip("mpmath")

from toroidal_em.constants import CODATA  # noqa: E402
from toroidal_em.solver import (ConstraintSystem, solve_full,  # noqa: E402
                                solve_thin_torus)


def closed_form(k, include_schwinger, full):
    """(E0, R0, r0) for the electron targets, at 50 significant digits."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        c, eps0, hbar, e, m_e, alpha = (mpmath.mpf(v) for v in (
            k.c, k.eps0, k.hbar, k.e_charge, k.m_e, k.alpha))
        S, Q = hbar / 2, e
        M = e * hbar / (2 * m_e)
        if include_schwinger:
            M *= 1 + alpha / (2 * mp.pi)
        a = Q**2 / (2 * mp.pi**2 * eps0 * c * S)
        x2 = a / (1 - a / 4) if full else a
        R0 = mp.pi * M / (c * Q * ((1 + x2 / 2) if full else 1))
        E0 = mpmath.sqrt(2) * c * S / (Q * R0**2 * ((1 + x2 / 4) if full else 1))
        return E0, R0, mpmath.sqrt(x2) * R0


def worst_rel_error(solution, reference):
    with mpmath.workdps(50):
        return max(abs(mpmath.mpf(got) / want - 1) for got, want in zip(
            (solution.E0, solution.R0, solution.r0), reference))


@pytest.mark.parametrize("schwinger", [True, False], ids=["schwinger", "no-schwinger"])
def test_full_solve_matches_closed_form(schwinger):
    sr = solve_full(CODATA, ConstraintSystem.for_electron(
        CODATA, include_schwinger=schwinger))
    assert worst_rel_error(sr, closed_form(CODATA, schwinger, full=True)) <= 1e-14


@pytest.mark.parametrize("schwinger", [True, False], ids=["schwinger", "no-schwinger"])
def test_thin_solve_matches_closed_form(schwinger):
    sr = solve_thin_torus(CODATA, include_schwinger=schwinger)
    assert worst_rel_error(sr, closed_form(CODATA, schwinger, full=False)) <= 1e-15

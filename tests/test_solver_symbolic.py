"""Symbolic audit of the closed-form constraint solve (sympy, test only).

With symbolic targets S, Q, M and constants eps0, c, the solution

    x^2 = a/(1 - a/4),  a = Q^2/(2*pi^2*eps0*c*S),
    R0 = pi*M/(c*Q*(1 + x^2/2)),  E0 = sqrt(2)*c*S/(Q*R0^2*(1 + x^2/4)),
    r0 = x*R0,

and its thin-torus form without the brackets (x^2 = a) are substituted
into the three constraints, each of which must simplify to its target.
The constraint left-hand sides are the closed forms of L_z, Q_rms and
mu_z; the float closed forms in ``scalar`` and the float solve must agree
with these expressions at sample points.

For the electron's thin-torus targets (S = hbar/2, Q = e and M =
mu_B*(1 + alpha/2pi), or mu_B without the Schwinger factor) and with
eps0 written through alpha = e^2/(4*pi*eps0*hbar*c), the five ratios over
the scales of ``derived_scales`` are closed forms in alpha alone, with
X = (pi/2)*(1 + alpha/2pi), or pi/2:

    R0/r_c = X,  r0/r_c = 2X*sqrt(alpha/pi),  U/(m_e c^2) = 5/(4X),
    omega/omega_D = 1/X,  E0/E_S = 1/(sqrt(2)*X^2),

with U = (5/2)*pi^2*eps0*R0*r0^2*E0^2, the thin form of ``_u_closed``,
and omega = 2c/R0.
"""

import types

import pytest

sp = pytest.importorskip("sympy")

from toroidal_em.constants import CODATA, PhysicalConstants, derived_scales  # noqa: E402
from toroidal_em.scalar import (_l_z_closed, _mu_z_closed, _q_rms_closed,  # noqa: E402
                                _u_closed)
from toroidal_em.solver import FULL, THIN, ConstraintSystem, solve_full  # noqa: E402

S, Q, M, eps0, c = sp.symbols("S Q M eps0 c", positive=True)
E0, R0, r0 = sp.symbols("E0 R0 r0", positive=True)
a = Q**2 / (2 * sp.pi**2 * eps0 * c * S)


def lhs(E0, R0, r0, corrections):
    """(spin, charge, moment): the closed forms of L_z, Q_rms and mu_z."""
    w = 1 if corrections else 0
    return (eps0 * E0**2 * sp.pi**2 * R0**2 * r0**2 / c * (1 + w * r0**2 / (4 * R0**2)),
            sp.sqrt(2) * sp.pi**2 * eps0 * E0 * r0**2,
            sp.sqrt(2) * eps0 * sp.pi * c * E0 * R0 * r0**2 * (1 + w * r0**2 / (2 * R0**2)))


def solution(corrections):
    """(E0, R0, r0) of the closed form, symbolic in the targets."""
    w = 1 if corrections else 0
    x2 = a / (1 - w * a / 4)
    R0 = sp.pi * M / (c * Q * (1 + w * x2 / 2))
    E0 = sp.sqrt(2) * c * S / (Q * R0**2 * (1 + w * x2 / 4))
    return E0, R0, sp.sqrt(x2) * R0


def test_aspect_ratio_solves_the_reduced_equation():
    x2 = a / (1 - a / 4)
    assert sp.simplify(x2 - a * (1 + x2 / 4)) == 0


@pytest.mark.parametrize("corrections", [True, False], ids=["full", "thin"])
def test_closed_form_meets_every_constraint(corrections):
    for value, target in zip(lhs(*solution(corrections), corrections), (S, Q, M)):
        assert sp.simplify(value / target - 1) == 0


@pytest.mark.parametrize("corrections", [True, False], ids=["full", "thin"])
def test_float_closed_forms_match_the_symbolic_ones(corrections):
    point = {E0: 3.1e17, R0: 6.2e-13, r0: 2.7e-13, eps0: CODATA.eps0, c: CODATA.c}
    k = types.SimpleNamespace(eps0=CODATA.eps0, c=CODATA.c)
    floats = (_l_z_closed(3.1e17, 6.2e-13, 2.7e-13, k, corrections),
              _q_rms_closed(3.1e17, 2.7e-13, k),
              _mu_z_closed(3.1e17, 6.2e-13, 2.7e-13, k, corrections))
    for got, expr in zip(floats, lhs(E0, R0, r0, corrections)):
        assert got == pytest.approx(float(expr.evalf(30, subs=point)), rel=1e-15)


@pytest.mark.parametrize("mode", [FULL, THIN])
def test_float_solve_matches_the_symbolic_solution(mode):
    targets = {S: 3.0e-33, Q: 1.0e-17, M: 7.0e-22, eps0: CODATA.eps0, c: CODATA.c}
    sr = solve_full(CODATA, ConstraintSystem(3.0e-33, 1.0e-17, 7.0e-22, mode))
    for got, expr in zip((sr.E0, sr.R0, sr.r0), solution(mode == FULL)):
        assert got == pytest.approx(float(expr.evalf(30, subs=targets)), rel=1e-14)


hbar, m_e, e, alpha = sp.symbols("hbar m_e e alpha", positive=True)


def u_thin(E0, R0, r0):
    """The thin-torus total energy, ``_u_closed`` without its bracket's
    r0^2/(8R0^2)."""
    return sp.Rational(5, 2) * sp.pi**2 * eps0 * R0 * r0**2 * E0**2


def test_float_thin_energy_matches_the_symbolic_one():
    point = {E0: 3.1e17, R0: 6.2e-13, r0: 2.7e-13, eps0: CODATA.eps0}
    assert _u_closed(3.1e17, 6.2e-13, 2.7e-13, CODATA, False) == pytest.approx(
        float(u_thin(E0, R0, r0).evalf(30, subs=point)), rel=1e-15)


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "no-schwinger"])
def test_thin_ratios_are_closed_forms_in_alpha(include_schwinger):
    # eps0 through alpha = e^2/(4*pi*eps0*hbar*c)
    eps0_alpha = e**2 / (4 * sp.pi * alpha * hbar * c)
    k = PhysicalConstants(c=c, eps0=eps0_alpha, hbar=hbar, e_charge=e, m_e=m_e, alpha=alpha)
    # the scales as derived_scales defines them, its float 2.0 made exact
    ds = derived_scales(k)
    r_c, E_S, mu_B, omega_D, rest_energy = (sp.nsimplify(v, rational=True) for v in (
        ds.r_c, ds.E_S, ds.mu_B, ds.omega_D, ds.rest_energy))
    # the targets of ConstraintSystem.for_electron
    factor = 1 + alpha / (2 * sp.pi) if include_schwinger else 1
    targets = {S: hbar / 2, Q: e, M: mu_B * factor, eps0: eps0_alpha}
    E0_, R0_, r0_ = (v.subs(targets) for v in solution(False))
    X = sp.pi / 2 * factor
    ratios = {  # ratio: (its value at the solution, its closed form in alpha)
        "E0/E_S": (E0_ / E_S, 1 / (sp.sqrt(2) * X**2)),
        "R0/r_c": (R0_ / r_c, X),
        "r0/r_c": (r0_ / r_c, 2 * X * sp.sqrt(alpha / sp.pi)),
        "U/(m_e c^2)": (u_thin(E0_, R0_, r0_).subs(eps0, eps0_alpha) / rest_energy,
                        5 / (4 * X)),
        "omega/omega_D": (2 * c / R0_ / omega_D, 1 / X),
    }
    for name, (value, closed_form) in ratios.items():
        assert sp.simplify(value - closed_form) == 0, name

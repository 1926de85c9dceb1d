"""Symbolic audit of the field closed forms (sympy, test only).

The residual checks take finite differences of the float kernels of
``fields``; this module proves the closed forms those kernels hold.
From the real parts of the model's phasors, with psi = phi - omega*t,

    E = i*E0*e^{i psi} * (a_R + i*(1 + R/R0)*a_phi),   B = i*(E0/c)*e^{i psi} * a_z,

sympy derives, in cylindrical coordinates inside the tube:

    div B = 0,
    div E = (E0/R0)*sin(psi)                              (rho = eps0*div E),
    curl E + dB/dt = (omega/c - 2/R0)*E0*cos(psi) * a_z,  zero iff omega = 2c/R0,
    J = curl B/mu0 - eps0*dE/dt                           (with mu0*eps0*c^2 = 1),
    div J + d(rho)/dt = 0.

The float kernels ``_e_r``, ``_e_phi``, ``_b_z``, ``_j_r``, ``_j_phi`` and
``_charge_density`` must equal these expressions at seeded interior
points to 1e-14 relative, a tolerance that a kernel scaled by 1 + 1e-9
does not meet.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from toroidal_em import fields  # noqa: E402
from toroidal_em.constants import CODATA  # noqa: E402
from toroidal_em.fields import AnsatzParams  # noqa: E402

R, E0, R0, c, omega, eps0, mu0 = sp.symbols("R E0 R0 c omega eps0 mu0", positive=True)
phi, z, t, psi = sp.symbols("phi z t psi", real=True)
PHASE = phi - omega * t


def real_part(phasor):
    return sp.re(sp.expand_complex(phasor))


E = (real_part(sp.I * E0 * sp.exp(sp.I * PHASE)),
     real_part(sp.I * E0 * sp.exp(sp.I * PHASE) * sp.I * (1 + R / R0)),
     sp.Integer(0))
B = (sp.Integer(0), sp.Integer(0), real_part(sp.I * (E0 / c) * sp.exp(sp.I * PHASE)))


def div(F):
    return sp.diff(R * F[0], R) / R + sp.diff(F[1], phi) / R + sp.diff(F[2], z)


def curl(F):
    return (sp.diff(F[2], phi) / R - sp.diff(F[1], z),
            sp.diff(F[0], z) - sp.diff(F[2], R),
            (sp.diff(R * F[1], R) - sp.diff(F[0], phi)) / R)


def in_psi(expr):
    """``expr`` simplified, with phi - omega*t written as the symbol psi."""
    return sp.simplify(sp.expand(expr).subs(phi, psi + omega * t))


RHO = eps0 * div(E)
J = tuple(sp.simplify((cb / mu0 - eps0 * sp.diff(e, t)).subs(mu0, 1 / (eps0 * c**2)))
          for cb, e in zip(curl(B), E))


def is_zero(expr):
    return sp.simplify(expr) == 0


def test_div_B_vanishes():
    assert is_zero(div(B))


def test_div_E_is_the_charge_source():
    assert is_zero(in_psi(div(E)) - E0 / R0 * sp.sin(psi))


def test_faraday_holds_only_at_two_c_over_R0():
    residual = [in_psi(ce + sp.diff(b, t)) for ce, b in zip(curl(E), B)]
    assert residual[0] == 0 and residual[1] == 0
    assert is_zero(residual[2] - (omega / c - 2 / R0) * E0 * sp.cos(psi))
    assert sp.solve(residual[2], omega) == [2 * c / R0]


def test_current_is_the_ampere_maxwell_closed_form():
    assert J[2] == 0
    assert is_zero(in_psi(J[0]) + eps0 * E0 * (c / R + omega) * sp.cos(psi))
    assert is_zero(in_psi(J[1]) - eps0 * E0 * omega * (1 + R / R0) * sp.sin(psi))


def test_continuity_holds_identically():
    assert is_zero(div(J) + sp.diff(RHO, t))


# The float kernels against the derived expressions, at interior points
# (mask 1) of detuned configurations: the closed forms hold at any omega.
PARAMS = [AnsatzParams.with_omega(3.1e17, 6.2e-13, 2.7e-13, omega=2.6 * CODATA.c / 6.2e-13),
          AnsatzParams.with_omega(2.5, 1.7, 0.6, omega=1.6 * CODATA.c / 1.7)]

KERNELS = {  # name: (derived expression, kernel evaluated at mask 1)
    "_e_r": (E[0], lambda R_, s, co, p: fields._e_r(1.0, s, p)),
    "_e_phi": (E[1], lambda R_, s, co, p: fields._e_phi(R_, 1.0, co, p)),
    "_b_z": (B[2], lambda R_, s, co, p: fields._b_z(1.0, s, p)),
    "_j_r": (J[0], lambda R_, s, co, p: fields._j_r(R_, 1.0, co, p, CODATA)),
    "_j_phi": (J[1], lambda R_, s, co, p: fields._j_phi(R_, 1.0, s, p, CODATA)),
    "_charge_density": (RHO, lambda R_, s, co, p: fields._charge_density(1.0, s, p, CODATA)),
}


def derived_and_kernel(name, p, n=200, seed=11):
    """(derived, kernel) values of one field component at seeded interior points."""
    rng = np.random.default_rng(seed)
    s = p.r0 * np.sqrt(rng.uniform(0.0, 0.99, size=n))
    R_ = p.R0 + s * np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n))
    psi_ = rng.uniform(0.0, 2.0 * np.pi, size=n)
    expr, kernel = KERNELS[name]
    f = sp.lambdify((R, psi), in_psi(expr).subs(
        {E0: p.E0, R0: p.R0, omega: p.omega, c: CODATA.c, eps0: CODATA.eps0}), "numpy")
    return np.broadcast_to(f(R_, psi_), R_.shape), kernel(R_, np.sin(psi_), np.cos(psi_), p)


def agrees(kernel_values, derived_values):
    return np.allclose(kernel_values, derived_values, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", PARAMS, ids=["electron-scale", "metre-scale"])
@pytest.mark.parametrize("name", KERNELS)
def test_float_kernel_equals_derived_expression(name, p):
    derived, kernel = derived_and_kernel(name, p)
    assert np.all(derived != 0.0)
    assert agrees(kernel, derived)
    assert not agrees((1.0 + 1e-9) * kernel, derived)

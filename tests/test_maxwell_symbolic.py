"""Symbolic audit of the field closed forms (sympy, test only).

The residual checks take exact derivatives of the field kernels of
``scalar``; this module proves the closed forms those kernels hold.
From the real parts of the model's phasors, with psi = phi - omega*t,

    E = i*E0*e^{i psi} * (a_R + i*(1 + R/R0)*a_phi),   B = i*(E0/c)*e^{i psi} * a_z,

sympy derives, in cylindrical coordinates inside the tube:

    div B = 0,
    div E = (E0/R0)*sin(psi)                              (rho = eps0*div E),
    curl E + dB/dt = (omega/c - 2/R0)*E0*cos(psi) * a_z,  zero iff omega = 2c/R0,
    J = curl B/mu0 - eps0*dE/dt                           (mu0 as the constant set derives it),
    div J + d(rho)/dt = 0,
    g_phi = eps0*(E x B)_phi = -(eps0*E0^2/c)*sin^2(psi),

and the mean of g_phi over the four phases of ``observables._PHASES`` is
its time average -eps0*E0^2/(2c), the density the L_z quadrature reads.
The field's two Lorentz invariants, formed from the kernels ``_e_r``,
``_e_phi`` and ``_b_z``, have closed forms inside the tube:

    E.B = 0,   E^2 - c^2*B^2 = E0^2*(1 + R/R0)^2*cos^2(psi),

so the field is electric-type everywhere.

Called with floats, the kernels ``_e_r``, ``_e_phi``, ``_b_z``, ``_j_r``,
``_j_phi``, ``_g_phi`` and ``_charge_density`` must equal these
expressions at seeded interior points to 1e-14 relative, a tolerance that
a kernel scaled by 1 + 1e-9 does not meet.  Called with sympy symbols,
``_g_phi`` must also equal eps0*(E x B)_phi formed from the ``_e_r`` and
``_b_z`` kernels themselves, and no kernel, ``_energy_density_model``
included, may hold a float: its literals are integers, so it stays exact
on exact inputs.  The constants are ``CODATA`` with c and eps0 replaced
by sympy symbols, so J reads the mu0 that the constant set derives.

Two facts carry the radial profile that ``maxwell.full_verification``
evaluates.  Each law's terms read one phase factor only: sin(psi) for
gauss_E, cos(psi) for faraday and continuity.  And each of the six kernels
the verification reads, called with symbols, is E0 times an E0-free
expression, linear in its phase factor, and free of z: so a profile
evaluated at unit amplitude and at the factor 1 is the law's amplitude,
and a kernel that is not linear in E0 (say E0**2, which reads the same at
E0 = 1) fails here.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from toroidal_em import scalar
from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams
from toroidal_em.observables import _MEAN_SIN2, _PHASES

R, E0, R0, c, omega, eps0 = sp.symbols("R E0 R0 c omega eps0", positive=True)
phi, z, t, psi = sp.symbols("phi z t psi", real=True)
PHASE = phi - omega * t

# The kernels are plain arithmetic on their arguments, so they accept sympy
# symbols: sin(psi) as a symbol, the parameters as a namespace of symbols and
# the constants as a constant set of them.
SYMBOLIC_P = SimpleNamespace(E0=E0, R0=R0, omega=omega)
SYMBOLIC_K = dataclasses.replace(CODATA, c=c, eps0=eps0)


def real_part(phasor):
    return sp.re(sp.expand_complex(phasor))


E = (real_part(sp.I * E0 * sp.exp(sp.I * PHASE)),
     real_part(sp.I * E0 * sp.exp(sp.I * PHASE) * sp.I * (1 + R / R0)),
     sp.Integer(0))
B = (sp.Integer(0), sp.Integer(0), real_part(sp.I * (E0 / c) * sp.exp(sp.I * PHASE)))


def div(F):
    return sp.diff(R * F[0], R) / R + sp.diff(F[1], phi) / R + sp.diff(F[2], z)


def cross(A, F):
    return (A[1] * F[2] - A[2] * F[1], A[2] * F[0] - A[0] * F[2], A[0] * F[1] - A[1] * F[0])


def curl(F):
    return (sp.diff(F[2], phi) / R - sp.diff(F[1], z),
            sp.diff(F[0], z) - sp.diff(F[2], R),
            (sp.diff(R * F[1], R) - sp.diff(F[0], phi)) / R)


def in_psi(expr):
    """``expr`` simplified, with phi - omega*t written as the symbol psi."""
    return sp.simplify(sp.expand(expr).subs(phi, psi + omega * t))


RHO = eps0 * div(E)
J = tuple(sp.simplify(cb / SYMBOLIC_K.mu0 - eps0 * sp.diff(e, t)) for cb, e in zip(curl(B), E))


G = tuple(eps0 * g for g in cross(E, B))


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


def test_momentum_density_is_eps0_e_cross_b():
    assert G[2] == 0
    assert is_zero(in_psi(G[1]) + eps0 * E0**2 / c * sp.sin(psi) ** 2)


def test_lorentz_invariants_of_the_kernel_fields():
    sin, cos = sp.sin(psi), sp.cos(psi)
    # the ansatz has no E_z, B_R or B_phi
    E_k = (scalar._e_r(sin, SYMBOLIC_P), scalar._e_phi(R, cos, SYMBOLIC_P), 0)
    B_k = (0, 0, scalar._b_z(sin, SYMBOLIC_P, SYMBOLIC_K))
    for kernel, derived in zip(E_k + B_k, E + B):
        assert is_zero(kernel - in_psi(derived))
    assert is_zero(sum(e * b for e, b in zip(E_k, B_k)))
    assert is_zero(sum(e**2 for e in E_k) - c**2 * sum(b**2 for b in B_k)
                   - E0**2 * (1 + R / R0) ** 2 * cos**2)


def test_each_law_reads_one_phase_factor():
    laws = {  # law: (its terms, the phase factor they read)
        "gauss_E": ((sp.diff(R * E[0], R) / R, sp.diff(E[1], phi) / R, RHO / eps0), sp.sin),
        "faraday": ((sp.diff(R * E[1], R) / R, sp.diff(E[0], phi) / R, sp.diff(B[2], t)),
                    sp.cos),
        "ampere_continuity": ((sp.diff(R * J[0], R) / R, sp.diff(J[1], phi) / R,
                               sp.diff(RHO, t)), sp.cos),
    }
    for name, (terms, factor) in laws.items():
        for term in terms:
            amplitude = sp.simplify(in_psi(term) / factor(psi))
            assert amplitude != 0 and psi not in amplitude.free_symbols, (name, term)


# The kernels that the verification reads, each called with its phase
# factor as the symbol f.
f = sp.Symbol("f", real=True)
VERIFIED_KERNELS = {
    "_e_r": scalar._e_r(f, SYMBOLIC_P),
    "_e_phi": scalar._e_phi(R, f, SYMBOLIC_P),
    "_b_z": scalar._b_z(f, SYMBOLIC_P, SYMBOLIC_K),
    "_j_r": scalar._j_r(R, f, SYMBOLIC_P, SYMBOLIC_K),
    "_j_phi": scalar._j_phi(R, f, SYMBOLIC_P, SYMBOLIC_K),
    "_charge_density": scalar._charge_density(f, SYMBOLIC_P, SYMBOLIC_K),
}


# Every kernel called with symbols.
SYMBOLIC_KERNELS = {
    **VERIFIED_KERNELS,
    "_g_phi": scalar._g_phi(f, SYMBOLIC_P, SYMBOLIC_K),
    "_energy_density_model": scalar._energy_density_model(R, SYMBOLIC_P, SYMBOLIC_K),
}


@pytest.mark.parametrize("name", SYMBOLIC_KERNELS)
def test_symbolic_kernel_holds_no_float(name):
    # a float literal would turn every exact input, a Fraction say, into a float
    assert not SYMBOLIC_KERNELS[name].atoms(sp.Float)


@pytest.mark.parametrize("name", VERIFIED_KERNELS)
def test_verified_kernel_is_linear_in_E0_and_its_phase_factor(name):
    value = sp.expand(VERIFIED_KERNELS[name])
    per_amplitude = sp.simplify(value / E0)
    assert E0 not in per_amplitude.free_symbols
    assert sp.diff(value, f, 2) == 0 and value.subs(f, 0) == 0
    assert value.free_symbols <= {f, E0, R, R0, omega, c, eps0}


def test_g_phi_kernel_is_eps0_cross_of_the_field_kernels():
    s = sp.Symbol("s", real=True)
    e_r = scalar._e_r(s, SYMBOLIC_P)
    b_z = scalar._b_z(s, SYMBOLIC_P, SYMBOLIC_K)
    # (E x B)_phi = E_z*B_R - E_R*B_z with E_z = B_R = 0
    assert is_zero(scalar._g_phi(s, SYMBOLIC_P, SYMBOLIC_K) - eps0 * (0 - e_r * b_z))


# sin(psi) at the phases on a leading axis; psi = phi - omega*t is the
# phase itself at t = 0.
PHASE_SINES = np.sin(_PHASES)[:, None]


def test_phase_sines_and_their_mean_square_are_exact():
    # the premise of the observables' unit-phase-factor form: the sines
    # are 0, 1, sin(pi) and -1, and sin(pi)^2 < 2^-54 lies below half an
    # ulp of any a^2, so a^2*sin(pi)^2 vanishes from a stacked sum of squares
    assert np.sin(_PHASES).tobytes() == np.array([0.0, 1.0, np.sin(np.pi), -1.0]).tobytes()
    assert 0.0 < np.sin(np.pi) ** 2 < 2.0**-54
    assert _MEAN_SIN2 == 0.5 and type(_MEAN_SIN2) is float


def test_g_phi_phase_mean_is_the_time_average():
    sines = [sp.sin(sp.pi / 2 * n) for n in range(len(_PHASES))]
    assert np.allclose(np.array(sines, dtype=float), PHASE_SINES[:, 0], rtol=0.0, atol=1e-15)
    mean = sum(scalar._g_phi(s_n, SYMBOLIC_P, SYMBOLIC_K) for s_n in sines) / len(sines)
    assert is_zero(mean + eps0 * E0**2 / (2 * c))
    assert is_zero(mean - sp.integrate(in_psi(G[1]), (psi, 0, 2 * sp.pi)) / (2 * sp.pi))


@pytest.mark.parametrize("p", [AnsatzParams.faraday(3.8e17, 6.0e-13, 5.8e-14),
                               AnsatzParams.with_omega(2.5, 1.7, 0.6, omega=0.0)],
                         ids=["electron-scale", "static"])
def test_g_phi_float_phase_mean(p):
    mean = float(np.mean(scalar._g_phi(PHASE_SINES, p, CODATA)))
    expected = -CODATA.eps0 * p.E0**2 / (2.0 * CODATA.c)
    assert abs(mean / expected - 1.0) <= 1e-15


# The float kernels against the derived expressions, at interior points of
# detuned configurations: the closed forms hold at any omega.
PARAMS = [AnsatzParams.with_omega(3.1e17, 6.2e-13, 2.7e-13, omega=2.6 * CODATA.c / 6.2e-13),
          AnsatzParams.with_omega(2.5, 1.7, 0.6, omega=1.6 * CODATA.c / 1.7)]

KERNELS = {  # name: (derived expression, kernel)
    "_e_r": (E[0], lambda R_, s, co, p: scalar._e_r(s, p)),
    "_e_phi": (E[1], lambda R_, s, co, p: scalar._e_phi(R_, co, p)),
    "_b_z": (B[2], lambda R_, s, co, p: scalar._b_z(s, p, CODATA)),
    "_j_r": (J[0], lambda R_, s, co, p: scalar._j_r(R_, co, p, CODATA)),
    "_j_phi": (J[1], lambda R_, s, co, p: scalar._j_phi(R_, s, p, CODATA)),
    "_g_phi": (G[1], lambda R_, s, co, p: scalar._g_phi(s, p, CODATA)),
    "_charge_density": (RHO, lambda R_, s, co, p: scalar._charge_density(s, p, CODATA)),
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

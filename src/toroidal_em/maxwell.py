"""Maxwell-equation residual verification for the torus ansatz.

Each of the four laws has one residual, computed with exact derivatives:

* gauss_B: div B, an identity inside the tube (see below);
* gauss_E: div E minus the hand-derived source rho/eps0;
* faraday: curl E + dB/dt, which is (2E0/R0)*d*cos(psi) for the
  relative detune d = omega*R0/(2c) - 1: the law holds at exactly
  omega = 2c/R0, and the normalized residual reads twice any detune;
* ampere_continuity: div J plus d(rho)/dt.

Each kernel of :mod:`.scalar` is a real amplitude, which reads R, times
its phase factor, sin or cos of the phase psi = phi - omega*t.  A kernel
is linear in that factor, so its derivative along psi is the same kernel
called on the factor's derivative: cos for sin, -sin for cos.  That gives
d/dphi = d/dpsi and d/dt = -omega*d/dpsi in real arithmetic, bit for bit
what a complex step in psi gives (``tests/complex_step_reference.py``
keeps that form, and a property test holds the two equal).  The
amplitudes are not linear in R (R/R0, c/R), so d/dR is forward-mode
automatic differentiation: the kernel is called on a dual number
R + 1*dR, whose arithmetic carries each value with its R-derivative by
the sum, product and quotient rules, so the derivative has no
truncation error and is exact to roundoff (Griewank & Walther,
*Evaluating Derivatives*, SIAM 2008).  It computes what a complex step
R -> R*(1 + i*delta) computes, in real arithmetic (Martins, Sturdza &
Alonso, ACM TOMS 29(3), 2003), and a property test holds the two within
a few ulp.  The kernels
hold the interior formulas and read neither the mask nor z, so no mask
is evaluated and every derivative is one of the interior formula.  Each
z-derivative is 0: the R and phi components of curl E vanish, and
div B = dB_z/dz is 0.0 by construction.  So no gauss_B residual is
evaluated: its report is built from 0.0, with the law's normalization and
a note that says so; it is kept as the law's record, not as evidence.

The closed forms that the field kernels hold (div E, curl E, J from
Ampere-Maxwell, continuity) are proved once, symbolically, by the sympy
audit in ``tests/test_maxwell_symbolic.py``; no residual here re-types
them, so every residual compares two separately written things and can
fail.

The premise of the check: no kernel reads z, theta, phi or t except
through R and psi, and each residual reads one phase factor only, sin
for gauss_E and cos for faraday and continuity (the sympy audit proves
both).  So each law's residual is A(R) times its factor, and its largest
value over the tube and one period is the largest |A(R)| over
R0 - r0 < R < R0 + r0.  :func:`full_verification` evaluates that radial
profile, :func:`_rows` called with sin = cos = 1.0, at the n =
``sampling.n_points`` Chebyshev nodes R_i = R0 + r0*cos(pi*(i + 1/2)/n),
which lie strictly inside the tube and cluster toward both walls, where
the profile varies fastest (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013).  Node n-1-i mirrors node i, so only
the first half is computed.  The nodes run in blocks of 2*``_BLOCK`` on
the calling thread, each reduced in one row buffer that the call reuses,
so memory stays flat in the node count; the reports
depend on nothing but the configuration, the node count and the
constants: of ``sampling``, only ``n_points`` is read.
:func:`interior_samples` keeps the seeded random (R, phi, z, t) draw for
the tests that check the profile against sampled points.

Each residual is normalized at each R by the amplitude of the terms it
differences there, so that a passing check means "the law holds to
~1e-12 of the terms involved" independent of amplitude, of SI magnitudes
and of how fat the torus is: E0/min(R, R0) for gauss_E and faraday, and
for continuity eps0*E0*(omega + c/R)/R, the J_R amplitude over R, which
stays finite at omega = 0.  Faraday's detune term (2E0/R0)*d is the same
at every R, and its normalization is E0/R0 from R0 outward, so faraday
reads twice the detune.  A report's ``normalization_value`` is the
normalization at R0.  Every law and every normalization is linear in E0,
so one rule holds for every E0 >= 0, zero included: the profile is
evaluated at unit amplitude, E0 = 1, where nothing underflows however
small E0 is; every relative residual, and so every verdict, is the unit
profile's; and E0 scales only the two SI echoes, ``normalization_value``
and ``max_abs_residual``.

Under the ansatz E_z, B_R, B_phi and J_z vanish identically, so the rows
read only the nonzero components that a residual reads, through the
per-component kernels of :mod:`.scalar`; every residual is formed in
float64, with no complex arithmetic.  Verification is
interior-only: surface (delta-function) contributions of the mask
discontinuity at r = r0 are out of scope.  The four reports come back in
the order gauss_B, gauss_E, faraday, ampere_continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .geometry import toroidal_to_cylindrical
from .scalar import (DEFAULT_TOLERANCE, AnsatzParams, SamplingConfig, SamplingError, _b_z,
                     _charge_density, _e_phi, _e_r, _j_phi, _j_r)

# Computed nodes per block, each with its mirror: a block holds about
# 2*_BLOCK nodes, and a verification's traced peak stays near 0.7 MB at
# any node count.
_BLOCK = 4096


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one equation check over the radial profile."""

    equation: str            # gauss_B | gauss_E | faraday | ampere_continuity
    n_points: int            # Chebyshev nodes in R
    max_rel_residual: float
    mean_rel_residual: float
    max_abs_residual: float  # largest raw |residual|: E0 times the unit profile's
    normalization: str      # label of the scale dividing the residuals
    normalization_value: float  # that scale at R = R0
    tolerance: float
    passed: bool
    note: str = ""


def _period(p: AnsatzParams, k: PhysicalConstants) -> float:
    """One period 2*pi/omega, or R0/c for a static configuration."""
    return 2.0 * np.pi / p.omega if p.omega > 0.0 else p.R0 / k.c


def interior_samples(p: AnsatzParams, sampling: SamplingConfig,
                     k: PhysicalConstants = CODATA):
    """Seeded random interior (R, phi, z, t) samples.

    Points are drawn uniformly over the tube cross-section; times cover
    one full period (or an R0/k.c interval for a static configuration).
    The seeded PCG64 draws n uniforms per coordinate, in the order s,
    theta, phi, t.
    """
    u = np.random.default_rng(sampling.seed).random((4, sampling.n_points))
    s = p.r0 * np.sqrt(u[0])
    theta, phi = 2.0 * np.pi * u[1], 2.0 * np.pi * u[2]
    t = _period(p, k) * u[3]
    R, z = toroidal_to_cylindrical(s, theta, p.geometry)
    return R, phi, z, t


def _node_blocks(p: AnsatzParams, n: int):
    """The n Chebyshev nodes R0 + r0*cos(pi*(i + 1/2)/n) in blocks: nodes i
    of the first half, computed, then their mirrors n-1-i (the middle node
    of an odd n has none)."""
    half = n - n // 2
    for start in range(0, half, _BLOCK):
        stop = min(start + _BLOCK, half)
        x = np.arange(start + 0.5, stop, dtype=float)
        x *= math.pi / n
        np.cos(x, out=x)
        R = np.concatenate((x, -x[:min(stop, n // 2) - start]))
        R *= p.r0
        R += p.R0
        yield R


class _Dual:
    """A value and its R-derivative, for forward-mode differentiation in R:
    ``_Dual(R, 1)`` passed for R through a kernel gives the kernel's value
    and its d/dR, in real arithmetic.  It has only the operators that the
    differentiated kernels use, and numpy operands on its left defer to it."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v + other.v, self.d + other.d)
        return _Dual(self.v + other, self.d)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v, self.d * other.v + self.v * other.d)
        return _Dual(self.v * other, self.d * other)

    def __truediv__(self, other):
        if isinstance(other, _Dual):
            q = self.v / other.v
            return _Dual(q, (self.d - q * other.d) / other.v)
        return _Dual(self.v / other, self.d / other)

    def __rtruediv__(self, other):
        q = other / self.v
        return _Dual(q, -q * self.d / self.v)

    __radd__, __rmul__ = __add__, __mul__


def _rows(out, R, sin, cos, p: AnsatzParams, k: PhysicalConstants) -> None:
    """Write the residuals of gauss_E, faraday and ampere_continuity at R and
    the phase factors ``sin`` = sin(psi) and ``cos`` = cos(psi) into the
    three rows of ``out``; gauss_E reads only ``sin``, the others only
    ``cos``.

    A function of its own, so the temporaries are freed when it returns.
    Each (1/R)*d(R*F)/dR is (Rd*F).d/R, with F the kernel called on the
    dual radius Rd = _Dual(R, 1), so no formula is typed here.  On
    Fraction inputs every row is exact.
    """
    # A kernel is a real amplitude times its phase factor, so its
    # psi-derivative is the kernel of the factor's derivative: d(sin)/dpsi =
    # cos and d(cos)/dpsi = -sin.
    Rd = _Dual(R, 1)

    # gauss_E: div E = (1/R)*d(R*E_R)/dR + (1/R)*dE_phi/dphi against rho/eps0
    out[0] = (((Rd * _e_r(sin, p)).d + _e_phi(R, -sin, p)) / R
              - _charge_density(sin, p, k) / k.eps0)

    # faraday: curl E = ((1/R)*d(R*E_phi)/dR - (1/R)*dE_R/dphi) a_z, and
    # dB_z/dt = -omega*dB_z/dpsi; the R and phi components of curl E are
    # z-derivatives, 0
    out[1] = (((Rd * _e_phi(Rd, cos, p)).d - _e_r(cos, p)) / R
              - p.omega * _b_z(cos, p, k))

    # continuity: div J + drho/dt, with drho/dt = -omega*drho/dpsi
    out[2] = (((Rd * _j_r(Rd, cos, p, k)).d + _j_phi(R, cos, p, k)) / R
              - p.omega * _charge_density(cos, p, k))


def full_verification(p: AnsatzParams, sampling: SamplingConfig = SamplingConfig(),
                      k: PhysicalConstants = CODATA,
                      tol: float = DEFAULT_TOLERANCE) -> list[ResidualReport]:
    """Run all four checks; the configuration passes iff every report does.

    Reports come in the order gauss_B, gauss_E, faraday, ampere_continuity,
    and each passes when its ``max_rel_residual``, the largest normalized
    residual over the ``sampling.n_points`` nodes, is below ``tol``.  A
    detuned omega fails Faraday through its residual, twice the relative
    detune, and the faraday note states the detune whenever it is not
    exactly 0.  Of ``sampling``, only ``n_points`` is read.  At every E0 >=
    0 the relative residuals are the unit-amplitude profile's, and E0
    scales only ``normalization_value`` and ``max_abs_residual``.  Raises
    :class:`SamplingError` when a residual, its maximum or mean, or a
    normalization is not finite, so every report holds finite numbers only.
    """
    n = sampling.n_points
    detune = p.omega * p.R0 / (2.0 * k.c) - 1.0
    E0 = abs(p.E0)  # the SI echoes are magnitudes, +0.0 at E0 = -0.0
    laws = [
        ("gauss_B", "E0/(c*R0)", E0 / (k.c * p.R0),
         "identity: B_z reads z only through the mask"),
        ("gauss_E", "E0/min(R, R0)", E0 / p.R0, ""),
        ("faraday", "E0/min(R, R0)", E0 / p.R0,
         f"omega detuned from 2c/R0 by {detune:+.3e} relative" if detune else ""),
        ("ampere_continuity", "eps0*E0*(omega + c/R)/R",
         abs(_j_r(p.R0, 1.0, p, k)) / p.R0, ""),
    ]
    unit = AnsatzParams(1.0, p.R0, p.r0, p.omega)
    peak_raw, peak_rel, total = np.zeros((3, 3))
    # One row buffer serves every block, so no block allocates rows of its own.
    buffer = np.empty((3, min(n, 2 * _BLOCK)))
    # An overflow of a residual or of its normalized value is a
    # SamplingError of the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for R in _node_blocks(p, n):
            rows = buffer[:, :R.size]
            _rows(rows, R, 1.0, 1.0, unit, k)
            np.abs(rows, out=rows)
            np.maximum(peak_raw, rows.max(axis=1), out=peak_raw)
            rows[:2] *= np.minimum(R, p.R0)  # over 1/min(R, R0)
            rows[2] /= abs(_j_r(R, 1.0, unit, k)) / R  # the J_R amplitude over R
            np.maximum(peak_rel, rows.max(axis=1), out=peak_rel)
            total += rows.sum(axis=1)
    reports = [
        ResidualReport(
            equation=equation,
            n_points=n,
            max_rel_residual=max_rel,
            mean_rel_residual=mean_rel,
            max_abs_residual=max_abs * E0,
            normalization=norm_label,
            normalization_value=norm_value,
            tolerance=tol,
            passed=max_rel < tol,
            note=note,
        )
        for (equation, norm_label, norm_value, note), max_rel, mean_rel, max_abs in zip(
            laws, [0.0, *peak_rel.tolist()], [0.0, *(total / n).tolist()],
            [0.0, *peak_raw.tolist()])
    ]
    # The maximum and the mean carry any inf or nan of the nodes.
    for r in reports:
        scalars = (r.max_rel_residual, r.mean_rel_residual, r.max_abs_residual,
                   r.normalization_value)
        if not all(map(math.isfinite, scalars)):
            raise SamplingError(
                f"the {r.equation} residual is not finite in float64 at R0 = {p.R0!r} m, "
                f"E0 = {p.E0!r} V/m, omega = {p.omega!r} rad/s")
    return reports

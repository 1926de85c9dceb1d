"""Residual rows with a complex step in the phase, kept as a reference.

``maxwell._rows`` takes each psi-derivative by calling a kernel of
``toroidal_em.fields`` on the derivative of its phase factor, which holds
only while every kernel is linear in that factor.  ``block_rows`` here
takes those derivatives as complex steps instead, psi -> psi + i*delta,
which needs no such assumption: the complex sine and cosine of
psi + i*delta are s + i*delta*c and c - i*delta*s in float64 for
delta <= 1e-8 (cosh(delta) rounds to 1 and sinh(delta) to delta).  For a
kernel that is a real amplitude A times its factor, Im(A*(s + i*delta*c))
/delta is fl(A*c) exactly, since delta is a power of two, so the two row
sets agree bit for bit; a kernel that stops being linear in its factor
breaks that.  The R-derivatives are the dual-number ones of ``_rows`` in
both.

``r_step`` is the complex step in R, d(R*F)/dR = Im(R_c*F(R_c))/(R*delta)
at R_c = R*(1 + i*delta) (Lyness & Moler, SIAM J. Numer. Anal. 4(2), 1967;
Squire & Trapp, SIAM Rev. 40(1), 1998), which a property test holds
within a few ulp of the dual-number derivative.
"""

import numpy as np

from toroidal_em.fields import _b_z, _charge_density, _e_phi, _e_r, _j_phi, _j_r
from toroidal_em.maxwell import _Dual

# The relative imaginary step of the complex steps: a power of two, so a
# product with it and the division by it are exact, and small enough that
# 1 + _DELTA**2 rounds to 1, so the O(_DELTA^2) truncation vanishes.
_DELTA = 2.0**-30


def _d(f, step):
    """Im f/step: the derivative of f along the imaginary step of its input."""
    return f.imag / step


def r_step(kernel, R, *args):
    """d(R*F)/dR of F = kernel(R, *args) as a complex step in R.

    A complex operand of a product with ``R_c`` is named: numpy reuses an
    unnamed temporary of 256 KiB or more as the product's output, and its
    complex multiply into it rounds differently.
    """
    R_c = R * (1.0 + 1j * _DELTA)
    f = kernel(R_c, *args)
    return _d(R_c * f, R_c.imag)


def block_rows(out, R, phi, t, p, k) -> None:
    """The residuals of gauss_E, faraday and ampere_continuity at samples
    (R, phi, t) into the three rows of ``out``, every psi-derivative a
    complex step."""
    psi = phi - p.omega * t
    sin, cos = np.sin(psi), np.cos(psi)
    # the phase factors at psi + i*delta, and the dual radius
    sin_c, cos_c = sin + (1j * _DELTA) * cos, cos - (1j * _DELTA) * sin
    Rd = _Dual(R, 1.0)
    # A kernel is a real amplitude times its phase factor, so its real part
    # at psi + i*delta is its value at psi, bit for bit.
    rho = _charge_density(sin_c, p, k)
    e_r = _e_r(sin_c, p)
    out[0] = (((Rd * e_r.real).d + _d(_e_phi(R, cos_c, p), _DELTA)) / R
              - rho.real / k.eps0)
    out[1] = (((Rd * _e_phi(Rd, cos, p)).d - _d(e_r, _DELTA)) / R
              - p.omega * _d(_b_z(sin_c, p, k), _DELTA))
    out[2] = (((Rd * _j_r(Rd, cos, p, k)).d + _d(_j_phi(R, sin_c, p, k), _DELTA)) / R
              - p.omega * _d(rho, _DELTA))

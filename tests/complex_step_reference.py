"""Residual rows with a complex step in the phase too, kept as a reference.

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
breaks that.  The R-derivatives are complex steps in both.
"""

import numpy as np

from toroidal_em.fields import _b_z, _charge_density, _e_phi, _e_r, _j_phi, _j_r
from toroidal_em.maxwell import _DELTA


def _d(f, step):
    """Im f/step: the derivative of f along the imaginary step of its input."""
    return f.imag / step


def block_rows(out, R, phi, t, p, k) -> None:
    """The residuals of gauss_E, faraday and ampere_continuity at samples
    (R, phi, t) into the three rows of ``out``, every derivative a complex
    step."""
    psi = phi - p.omega * t
    sin, cos = np.sin(psi), np.cos(psi)
    # the phase factors at psi + i*delta, and R at R*(1 + i*delta)
    sin_c, cos_c = sin + (1j * _DELTA) * cos, cos - (1j * _DELTA) * sin
    R_c = R * (1.0 + 1j * _DELTA)
    dR = R_c.imag
    # A kernel is a real amplitude times its phase factor, so its real part
    # at psi + i*delta is its value at psi, bit for bit.
    rho = _charge_density(sin_c, p, k)
    e_r = _e_r(sin_c, p)
    out[0] = ((_d(R_c * e_r.real, dR) + _d(_e_phi(R, cos_c, p), _DELTA)) / R
              - rho.real / k.eps0)
    out[1] = ((_d(R_c * _e_phi(R_c, cos, p), dR) - _d(e_r, _DELTA)) / R
              - p.omega * _d(_b_z(sin_c, p, k), _DELTA))
    out[2] = ((_d(R_c * _j_r(R_c, cos, p, k), dR) + _d(_j_phi(R, sin_c, p, k), _DELTA)) / R
              - p.omega * _d(rho, _DELTA))

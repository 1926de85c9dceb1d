"""Verify the four Maxwell-law residuals, then break them on purpose.

Each law has one residual with exact derivatives (dual numbers in R),
and each residual is a radial amplitude times sin or cos of the phase,
so the check evaluates that amplitude at Chebyshev nodes in R across the
tube (Gauss-E against the hand-derived source rho/eps0).  Faraday's law
singles out one frequency, omega = 2c/R0; detuning it is the classic
failure mode and the only check that reacts.  Last, the derivative
itself: a complex step, which computes what the check's dual numbers
compute, has no subtraction, so its error stays at roundoff however
small the step, where a central difference trades truncation against
roundoff.

Run:  python demos/02_maxwell_residuals.py
"""

import dataclasses

import numpy as np

from toroidal_em.maxwell import SamplingConfig, full_verification
from toroidal_em.solver import solve_full

sr = solve_full()
params = sr.as_params()
sampling = SamplingConfig(n_points=1000)

print("parameters from the full constraint solve:")
print(f"  E0 = {params.E0:.6e} V/m, R0 = {params.R0:.6e} m, "
      f"r0 = {params.r0:.6e} m")
print(f"  omega = {params.omega:.6e} rad/s (Faraday-tuned)")

print(f"\n=== residual checks ({sampling.n_points} nodes in R) ===")
for rep in full_verification(params, sampling):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"  {flag}  {rep.equation:<17s} max = {rep.max_rel_residual:.3e}  "
          f"mean = {rep.mean_rel_residual:.3e}  (normalized by {rep.normalization})"
          + (f"\n        [{rep.note}]" if rep.note else ""))

print("\n=== detuning experiment: scale omega, watch Faraday ===")
print(f"  {'detune':>8s} {'faraday max':>14s} {'passed':>8s}")
for detune in (0.0, 1e-14, 1e-10, 1e-6, 0.01, 0.1, 1.0):
    q = dataclasses.replace(params, omega=(1.0 + detune) * params.omega)
    rep = full_verification(q, sampling)[2]   # the faraday report
    print(f"  {detune:8.0e} {rep.max_rel_residual:14.3e} {str(rep.passed):>8s}")
print("  (the residual reads twice the detune, so even 1e-10 fails the 1e-12 tolerance)")

print("\nthe other three laws hold for ANY omega -- only faraday reacts:")
q = dataclasses.replace(params, omega=1.1 * params.omega)
for rep in full_verification(q, sampling):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"  {flag}  {rep.equation:<17s} max = {rep.max_rel_residual:.3e}")

print("\n=== curl E (z component): complex step vs central difference ===")
E0, R0 = params.E0, params.R0
rng = np.random.default_rng(3)
n = 100
s = 0.4 * params.r0 * np.sqrt(rng.uniform(size=n))
R = R0 + s * np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n))
psi = rng.uniform(0.0, 2.0 * np.pi, size=n)
exact = -2.0 * E0 / R0 * np.cos(psi)


def e_field(R, psi):
    """(E_R, E_phi) of the ansatz inside the tube; takes complex arguments."""
    return -E0 * np.sin(psi), -E0 * (1.0 + R / R0) * np.cos(psi)


def curl_z_complex_step(delta):
    # (1/R)*d(R*E_phi)/dR - (1/R)*dE_R/dphi, each as Im f(x + i*step)/step
    R_c = R * (1.0 + 1j * delta)
    d_r = (R_c * e_field(R_c, psi)[1]).imag / R_c.imag
    d_phi = e_field(R, psi + 1j * delta)[0].imag / delta
    return (d_r - d_phi) / R


def curl_z_central(h):
    # steps h*R0 in R and h radians in phi
    dl = h * R0
    d_r = ((R + dl) * e_field(R + dl, psi)[1] - (R - dl) * e_field(R - dl, psi)[1]) / (2.0 * dl)
    d_phi = (e_field(R, psi + h)[0] - e_field(R, psi - h)[0]) / (2.0 * h)
    return (d_r - d_phi) / R


def error(curl):
    return np.max(np.abs(curl - exact)) / (E0 / R0)


print(f"  {'step':>8s} {'central difference':>19s} {'complex step':>13s}")
for step in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-100, 1e-300):
    with np.errstate(divide="ignore", invalid="ignore"):
        fd = error(curl_z_central(step))
    print(f"  {step:8.0e} {fd:19.3e} {error(curl_z_complex_step(step)):13.3e}")
print("  the central difference falls 100x per decade while truncation dominates,")
print("  then the eps/h rounding floor takes over and shrinking h makes it worse;")
print("  below a step of ~1e-8 the complex step sits at roundoff for good")

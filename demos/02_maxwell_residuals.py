"""Verify the four Maxwell-law residuals, then break them on purpose.

The checks compare hand-differentiated closed forms against central
finite differences at seeded random interior points.  Faraday's law
singles out one frequency, omega = 2c/R0; detuning it is the classic
failure mode and the only check that reacts.

Run:  python demos/02_maxwell_residuals.py
"""

import dataclasses

import numpy as np

from toroidal_em.fields import real_fields
from toroidal_em.maxwell import (SamplingConfig, fd_curl_cylindrical,
                                 full_verification)
from toroidal_em.solver import solve_full

sr = solve_full()
params = sr.as_params()
sampling = SamplingConfig(n_points=1000, seed=42, h=1e-5)

print("parameters from the full constraint solve:")
print(f"  E0 = {params.E0:.6e} V/m, R0 = {params.R0:.6e} m, "
      f"r0 = {params.r0:.6e} m")
print(f"  omega = {params.omega:.6e} rad/s (Faraday-tuned)")

print(f"\n=== residual checks ({sampling.n_points} samples, seed "
      f"{sampling.seed}, h = {sampling.h:g}) ===")
for rep in full_verification(params, sampling):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"  {flag}  {rep.equation:<17s} max = {rep.max_rel_residual:.3e}  "
          f"mean = {rep.mean_rel_residual:.3e}  (normalized by {rep.normalization})")

print("\n=== detuning experiment: scale omega, watch Faraday ===")
print(f"  {'omega scale':>12s} {'faraday max':>14s} {'passed':>8s}")
for scale in (1.0, 1.0 + 1e-10, 1.0 + 1e-6, 1.01, 1.1, 2.0):
    q = dataclasses.replace(params, omega=scale * params.omega)
    rep = full_verification(q, sampling)[2]   # the faraday report
    print(f"  {scale:12.10g} {rep.max_rel_residual:14.3e} {str(rep.passed):>8s}")
print("  (the 1e-10 detune still counts as tuned; 1e-6 already fails)")

print("\nthe other three laws hold for ANY omega -- only faraday reacts:")
q = dataclasses.replace(params, omega=1.1 * params.omega)
for rep in full_verification(q, sampling):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"  {flag}  {rep.equation:<17s} max = {rep.max_rel_residual:.3e}")

print("\n=== finite-difference convergence (curl E, z component) ===")
rng = np.random.default_rng(3)
n = 100
s = 0.4 * params.r0 * np.sqrt(rng.uniform(size=n))
theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
R, z = params.R0 + s * np.cos(theta), s * np.sin(theta)
exact = -2.0 * params.E0 / params.R0 * np.cos(phi)

print(f"  {'h':>8s} {'max error (normalized)':>24s} {'ratio':>7s}")
prev = None
for h in (1.6e-3, 8e-4, 4e-4, 2e-4, 1e-4, 1e-5, 1e-6, 1e-7):
    curl = fd_curl_cylindrical(
        lambda R_, phi_, z_: real_fields(R_, phi_, z_, 0.0, params)[0],
        R, phi, z, h, params)
    err = np.max(np.abs(curl[2] - exact)) / (params.E0 / params.R0)
    ratio = f"{prev / err:7.2f}" if prev is not None else "      -"
    print(f"  {h:8.1e} {err:24.3e} {ratio}")
    prev = err
print("  clean 4x-per-halving while truncation dominates; below h ~ 1e-5")
print("  the eps/h rounding floor takes over and shrinking h makes it worse")

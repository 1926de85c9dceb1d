"""Integrate the observables over the torus and compare with closed forms.

The quadrature grid is Gauss-Legendre in the tube radius crossed with
uniform periodic nodes in the two angles; every observable integrand is
polynomial in the coordinates the rules see, so the default (32, 64, 64)
grid is exact to machine precision and refinement changes nothing.  The
observable integrands do not depend on phi, so they are evaluated only on
the (r, theta) meridian plane, with the phi rule collapsed to its weight
sum 2*pi; the volume check below integrates 1 on that plane.

Run:  python demos/03_observables_quadrature.py
"""

import numpy as np

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.fields import AnsatzParams
from toroidal_em.geometry import build_grid, integrate_axisymmetric
from toroidal_em.observables import compute_observables
from toroidal_em.solver import solve_full

k = CODATA
ds = derived_scales(k)
params = solve_full(k).as_params(k)
grid = build_grid(params.geometry, (32, 64, 64))

print(f"grid: {grid.resolution} nodes in (r, theta, phi), "
      f"read on the {grid.plane_weights.size}-node (r, theta) plane")
vol_closed = params.geometry.volume
vol_quad = integrate_axisymmetric(1.0, grid)
print(f"volume check: quadrature {vol_quad:.15e}, closed {vol_closed:.15e}, "
      f"rel diff {vol_quad / vol_closed - 1.0:+.1e}")

obs = compute_observables(params, grid, k)

print("\n=== observables: closed form vs quadrature ===")
print(f"  {'':10s} {'closed form':>18s} {'quadrature':>18s} {'rel diff':>10s}")
for name, pair in [("Q_rms", obs.Q_rms), ("mu_z", obs.mu_z),
                   ("L_z", obs.L_z), ("U", obs.U)]:
    print(f"  {name:10s} {pair.closed_form:18.10e} {pair.quadrature:18.10e} "
          f"{pair.rel_difference:+10.1e}")
print("  (mu_z quadrature is the (1/2) integral of R x J_rms diagnostic;")
print(f"   its ratio to the closed form is {obs.mu_quadrature_ratio:.12f},")
print("   expected 2*pi when omega = 2c/R0 -- a diagnostic, not part of OVERALL)")

print("\n=== against the fit targets ===")
mu_target = ds.mu_B * (1.0 + k.alpha / (2.0 * np.pi))
print(f"  Q_rms / e                  = {obs.Q_rms.quadrature / k.e_charge:.15f}")
print(f"  L_z / (hbar/2)             = {obs.L_z.quadrature / (0.5 * k.hbar):.15f}")
print(f"  mu_z / (mu_B(1+a/2pi))     = {obs.mu_z.closed_form / mu_target:.15f}")
print(f"  U / (m_e c^2)              = {obs.U.quadrature / ds.rest_energy:.15f}")
print(f"  v_phase / c                = {obs.v_phase / k.c:.1f}  (exactly 2)")

print("\n=== grid refinement: already exact, nothing moves ===")
print(f"  {'resolution':>15s} {'U quadrature':>22s} {'shift vs (32,64,64)':>20s}")
for res in [(8, 16, 16), (16, 32, 32), (32, 64, 64), (64, 128, 128)]:
    u = compute_observables(params, build_grid(params.geometry, res), k).U.quadrature
    print(f"  {str(res):>15s} {u:22.15e} {u / obs.U.quadrature - 1.0:+20.1e}")

print("\n=== amplitude scaling laws (decade in E0) ===")
scaled = compute_observables(
    AnsatzParams.faraday(10.0 * params.E0, params.R0, params.r0, k), grid, k)
print(f"  Q scales by  {scaled.Q_rms.quadrature / obs.Q_rms.quadrature:8.3f}  (E0^1)")
print(f"  mu scales by {scaled.mu_z.closed_form / obs.mu_z.closed_form:8.3f}  (E0^1)")
print(f"  L scales by  {scaled.L_z.quadrature / obs.L_z.quadrature:8.3f}  (E0^2)")
print(f"  U scales by  {scaled.U.quadrature / obs.U.quadrature:8.3f}  (E0^2)")

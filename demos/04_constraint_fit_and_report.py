"""Fit (E0, R0, r0) to the three electron targets and report the ratios.

Both systems solve in closed form.  With a = Q^2/(2*pi^2*eps0*c*S), the
thin-torus system has (r0/R0)^2 = a; the full system keeps the
O(r0^2/R0^2) correction factors and has (r0/R0)^2 = a/(1 - a/4).  The full
solution lands within a percent of the thin one, and the dimensionless
ratios match the published reference values.

Run:  python demos/04_constraint_fit_and_report.py
"""

import numpy as np

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.maxwell import SamplingConfig
from toroidal_em.report import build_full_report, render
from toroidal_em.solver import (ConstraintSystem, constraint_residuals,
                                ratio_report, solve_full, solve_thin_torus)

k = CODATA
ds = derived_scales(k)

print("=== targets ===")
sys_full = ConstraintSystem.for_electron(k)
print(f"  spin    hbar/2            = {sys_full.spin_target:.10e} J s")
print(f"  charge  e                 = {sys_full.charge_target:.10e} C")
print(f"  moment  mu_B(1+alpha/2pi) = {sys_full.moment_target:.10e} A m^2")
a = sys_full.charge_target**2 / (2.0 * np.pi**2 * k.eps0 * k.c * sys_full.spin_target)
print(f"  a = Q^2/(2 pi^2 eps0 c S) = {a:.10e}  (4 alpha/pi = {4.0 * k.alpha / np.pi:.10e})")

thin = solve_thin_torus(k)
print("\n=== thin-torus closed form, (r0/R0)^2 = a ===")
print(f"  E0 = {thin.E0:.10e} V/m")
print(f"  R0 = {thin.R0:.10e} m")
print(f"  r0 = {thin.r0:.10e} m     (r0/R0)^2 = {(thin.r0 / thin.R0)**2:.10e}")
print(f"  residuals: {['%.1e' % r for r in thin.residuals]}")

full = solve_full(k)
print("\n=== full-corrections closed form, (r0/R0)^2 = a/(1 - a/4) ===")
print(f"  E0 = {full.E0:.10e} V/m   ({full.E0 / thin.E0 - 1.0:+.3%} vs thin)")
print(f"  R0 = {full.R0:.10e} m     ({full.R0 / thin.R0 - 1.0:+.3%} vs thin)")
print(f"  r0 = {full.r0:.10e} m     ({full.r0 / thin.r0 - 1.0:+.3%} vs thin)")
print(f"  residuals: {['%.1e' % r for r in full.residuals]}")

print("\nfull solution cross-checked against the full system:")
res = constraint_residuals((full.E0, full.R0, full.r0), sys_full, k)
print(f"  max |residual| = {max(abs(r) for r in res):.2e}")

rr = ratio_report(thin, ds, k)
print("\n=== dimensionless ratios (thin solution) vs references ===")
for label, got, ref in [
    ("E0 / E_S", rr.E0_over_ES, 0.286),
    ("R0 / r_c", rr.R0_over_rc, 1.5726),
    ("r0 / r_c", rr.r0_over_rc, 0.1516),
    ("U / m_e c^2", rr.U_over_mec2, 0.7949),
    ("omega / omega_D", rr.omega_over_omegaD, 0.636),
]:
    print(f"  {label:16s} computed {got:.6f}   reference {ref:<8g} "
          f"(diff {got - ref:+.1e})")
print(f"  U = {rr.U_MeV:.6f} MeV (reference 0.406)")

print("\n=== one-shot report (text render) ===")
report = build_full_report(k, resolution=(32, 64, 64),
                           sampling=SamplingConfig(1000, 42, 1e-5))
print(render(report, "text"))

"""Walk through the constant set and evaluate the fields at a few points.

Run:  python demos/01_constants_and_fields.py
"""

import numpy as np

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.fields import (AnsatzParams, charge_density, energy_density_em,
                                energy_density_model, momentum_density,
                                poynting_instantaneous, real_fields)

k = CODATA
ds = derived_scales(k)

print("=== constant set (CODATA 2018) ===")
for name, value, unit in [
    ("c", k.c, "m/s"),
    ("eps0", k.eps0, "F/m"),
    ("mu0", k.mu0, "H/m"),
    ("hbar", k.hbar, "J s"),
    ("e", k.e_charge, "C"),
    ("m_e", k.m_e, "kg"),
    ("alpha", k.alpha, ""),
]:
    print(f"  {name:8s} = {value:.12e} {unit}")

print("\nmu0 is derived as 1/(eps0*c^2); consistency: mu0*eps0*c^2 - 1 =",
      f"{k.mu0 * k.eps0 * k.c**2 - 1.0:+.2e}")
print("alpha recomputed from e, eps0, hbar, c:",
      f"{k.alpha_recomputed():.12e}",
      f"(stored differs by {k.alpha / k.alpha_recomputed() - 1.0:+.1e})")

print("\n=== derived scales ===")
print(f"  reduced Compton length r_c = {ds.r_c:.10e} m")
print(f"  critical field         E_S = {ds.E_S:.10e} V/m")
print(f"  Bohr magneton         mu_B = {ds.mu_B:.10e} A m^2")
print(f"  frequency scale    omega_D = {ds.omega_D:.10e} rad/s")
print(f"  rest energy               = {ds.rest_energy / k.e_charge / 1e6:.6f} MeV")

# A round-number configuration for readable output: R0 = 2 m, r0 = 0.5 m,
# E0 = 1 V/m, omega fixed by Faraday to 2c/R0 = c.
p = AnsatzParams.faraday(E0=1.0, R0=2.0, r0=0.5)
print("\n=== field configuration ===")
print(f"  E0 = {p.E0} V/m, R0 = {p.R0} m, r0 = {p.r0} m")
print(f"  omega = 2c/R0 = {p.omega:.6e} rad/s, B0 = E0/c = {p.E0 / k.c:.6e} T")

print("\nfields along the tube cross-section at phi = 0, t = 0:")
print(f"  {'R [m]':>8s} {'z [m]':>8s} {'E_R':>12s} {'E_phi':>12s} {'B_z':>12s} {'inside':>7s}")
for R, z in [(2.0, 0.0), (2.3, 0.0), (2.0, 0.4), (2.49, 0.0), (2.5, 0.0), (2.6, 0.0)]:
    E, B = real_fields(R, 0.0, z, 0.0, p)
    inside = (R - p.R0) ** 2 + z**2 < p.r0**2
    print(f"  {R:8.2f} {z:8.2f} {float(E[0]):12.4e} {float(E[1]):12.4e} "
          f"{float(B[2]):12.4e} {str(inside):>7s}")
print("  (the boundary point R = 2.5 counts as outside: fields are exactly 0)")

print("\nphase sweep at the axis circle (R = R0, z = 0, t = 0):")
print(f"  {'phi':>8s} {'E_R':>10s} {'E_phi':>10s} {'B_z*c':>10s} {'rho*R0/eps0':>12s}")
for frac in (0.0, 0.25, 0.5, 0.75):
    phi = 2.0 * np.pi * frac
    E, B = real_fields(p.R0, phi, 0.0, 0.0, p)
    rho = charge_density(p.R0, phi, 0.0, 0.0, p)
    print(f"  {frac:7.2f}T {float(E[0]):10.3f} {float(E[1]):10.3f} "
          f"{float(B[2]) * k.c:10.3f} {float(rho) * p.R0 / k.eps0:12.3f}")

print("\ntwo energy-density conventions at R = R0 (time average over 64 slices):")
t = np.arange(64) / 64.0 * (2.0 * np.pi / p.omega)
u_model = float(energy_density_model(p.R0, 0.0, 0.0, p))
u_em = float(np.mean(energy_density_em(p.R0, 0.0, 0.0, t, p)))
print(f"  model closed form eps0*E0^2*(1 + R/4R0)  = {u_model:.6e} J/m^3")
print(f"  textbook (eps0 E^2 + B^2/mu0)/2 averaged = {u_em:.6e} J/m^3")
print("  the model form is the normative one for the energy observable;")
print("  the textbook average differs (included as a labeled diagnostic).")

print("\ntime-averaged Poynting vector and momentum density at R = R0, as the")
print("mean over four equally spaced phases (the observables' time average):")
phases = 0.5 * np.pi * np.arange(4)
s_avg = float(np.mean(poynting_instantaneous(p.R0, phases, 0.0, 0.0, p)[1]))
g_avg = float(np.mean(momentum_density(p.R0, phases, 0.0, 0.0, p)[1]))
print(f"  S_phi = (E x B)_phi/mu0 = c^2*g_phi      = {s_avg:.6e} W/m^2")
print(f"  closed form -(1/2)*eps0*c*E0^2           = {-0.5 * k.eps0 * k.c * p.E0**2:.6e} W/m^2")
print(f"  g_phi = eps0*(E x B)_phi (L_z reads it)   = {g_avg:.6e} kg/(m^2 s)")

"""Acceptance gate: every headline capability at its stated tolerance.

Each test prints one [criterion N] PASS/FAIL line (visible even without
-s) and then asserts, so the suite doubles as a human-readable scorecard.
"""

import dataclasses

import numpy as np

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.fields import AnsatzParams, real_fields
from toroidal_em.geometry import build_grid
from toroidal_em.maxwell import SamplingConfig, full_verification, interior_samples
from toroidal_em.observables import compute_observables
from toroidal_em.solver import ratio_report

from fd_reference import fd_curl_cylindrical, margin_samples
from phasor_reference import b_phasor, e_phasor


def _emit(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_maxwell_residuals(params, capsys):
    """Four residual checks < 1e-12 at 1000 seeded samples; detuning breaks
    Faraday."""
    sampling = SamplingConfig(n_points=1000, seed=42, h=1e-5)
    reports = full_verification(params, sampling)
    worst = max(r.max_rel_residual for r in reports)
    tuned_ok = all(r.passed for r in reports) and worst < 1e-12

    detuned = dataclasses.replace(params, omega=1.1 * params.omega)
    far = full_verification(detuned, sampling)[2]
    detune_ok = (not far.passed) and far.max_rel_residual > 0.05

    ok = tuned_ok and detune_ok
    _emit(capsys, 1, ok,
          f"all four checks max={worst:.2e} (<1e-12); "
          f"omega*1.1 faraday max={far.max_rel_residual:.3f} (>0.05, fails)")
    assert ok


def test_criterion_2_dimensionless_ratios(thin, ds, capsys):
    """Thin-torus ratios match the five reference values to 5e-4 absolute."""
    rr = ratio_report(thin, ds)
    pairs = [
        ("E0/E_S", rr.E0_over_ES, 0.286),
        ("R0/r_c", rr.R0_over_rc, 1.5726),
        ("r0/r_c", rr.r0_over_rc, 0.1516),
        ("U/mec2", rr.U_over_mec2, 0.7949),
        ("omega/omega_D", rr.omega_over_omegaD, 0.636),
    ]
    devs = {name: abs(got - ref) for name, got, ref in pairs}
    ok = all(d <= 5e-4 for d in devs.values())
    worst = max(devs, key=devs.get)
    _emit(capsys, 2, ok,
          f"five ratios within 5e-4 abs (worst {worst}: {devs[worst]:.1e})")
    assert ok, devs


def test_criterion_3_si_values(thin, capsys):
    """Thin-torus SI solution matches the rounded references to 1%."""
    u_mev = thin.U / (CODATA.e_charge * 1e6)
    pairs = [
        ("E0", thin.E0, 3.783e17),
        ("R0", thin.R0, 6.073e-13),
        ("r0", thin.r0, 5.854e-14),
        ("U_MeV", u_mev, 0.406),
        ("omega", thin.omega, 9.86e20),
    ]
    devs = {name: abs(got / ref - 1.0) for name, got, ref in pairs}
    ok = all(d <= 1e-2 for d in devs.values())
    worst = max(devs, key=devs.get)
    _emit(capsys, 3, ok,
          f"five SI values within 1% (worst {worst}: {devs[worst]:.2e} rel)")
    assert ok, devs


def test_criterion_4_constraint_targets(params, grid, k, ds, capsys):
    """Q_rms, L_z, and the closed-form moment hit their targets to 0.1%."""
    obs = compute_observables(params, grid, k)
    mu_target = ds.mu_B * (1.0 + k.alpha / (2.0 * np.pi))
    devs = {
        "Q_rms=e": abs(obs.Q_rms.quadrature / k.e_charge - 1.0),
        "L_z=hbar/2": abs(obs.L_z.quadrature / (0.5 * k.hbar) - 1.0),
        "mu=mu_B(1+a/2pi)": abs(obs.mu_z.closed_form / mu_target - 1.0),
    }
    ok = all(d <= 1e-3 for d in devs.values())
    worst = max(devs, key=devs.get)
    _emit(capsys, 4, ok,
          f"three targets within 0.1% (worst {worst}: {devs[worst]:.1e} rel)")
    assert ok, devs


def test_criterion_5_quadrature_consistency(params, grid, k, capsys):
    """Quadrature matches closed forms to 1e-8 and is stable under grid
    doubling."""
    obs = compute_observables(params, grid, k)
    fine = compute_observables(params, build_grid(params.geometry, (64, 128, 128)), k)
    devs = {}
    for name in ("Q_rms", "L_z", "U"):
        devs[f"{name} vs closed"] = abs(getattr(obs, name).rel_difference)
        devs[f"{name} doubling"] = abs(
            getattr(fine, name).quadrature / getattr(obs, name).quadrature - 1.0)
    ok = all(d < 1e-8 for d in devs.values())
    worst = max(devs, key=devs.get)
    _emit(capsys, 5, ok,
          f"closed-vs-quadrature and grid-doubling all < 1e-8 "
          f"(worst {worst}: {devs[worst]:.1e})")
    assert ok, devs


def test_criterion_6_solver_convergence(thin, full, capsys):
    """Closed-form solve: 0 iterations, residuals <1e-12, within 2% of thin."""
    shifts = {name: abs(getattr(full, name) / getattr(thin, name) - 1.0)
              for name in ("E0", "R0", "r0")}
    worst_res = max(abs(r) for r in full.residuals)
    ok = (full.iterations == 0 and worst_res < 1e-12
          and all(s < 0.02 for s in shifts.values()))
    _emit(capsys, 6, ok,
          f"{full.iterations} iterations, residuals {worst_res:.1e} (<1e-12), "
          f"max shift vs thin {max(shifts.values()):.2%} (<2%)")
    assert ok, (full.iterations, worst_res, shifts)


def test_criterion_7_fd_validates_analytic(params, capsys):
    """FD derivatives agree with closed forms to 1e-6; error falls ~4x per
    h halving until the rounding floor.  The points keep the stencils of
    every step off the tube wall."""
    R, phi, z, t = margin_samples(params, 200, seed=11, h=5e-4)
    exact = -2.0 * params.E0 / params.R0 * np.cos(phi - params.omega * t)

    def err(h):
        curl = fd_curl_cylindrical(
            lambda R_, phi_, z_: real_fields(R_, phi_, z_, t, params)[0],
            R, phi, z, h, params)
        return np.max(np.abs(curl[2] - exact)) / (params.E0 / params.R0)

    agree = err(1e-5)
    e1, e2, e3 = err(4e-4), err(2e-4), err(1e-4)
    ratios = (e1 / e2, e2 / e3)
    ok = agree < 1e-6 and all(3.0 < r < 5.0 for r in ratios)
    _emit(capsys, 7, ok,
          f"FD vs analytic {agree:.1e} (<1e-6); halving h scales error by "
          f"{ratios[0]:.2f}, {ratios[1]:.2f} (~4x)")
    assert ok, (agree, ratios)


def test_criterion_8_structural_properties(params, grid, k, capsys):
    """Mask support, phasor/real consistency, continuity, phase velocity,
    amplitude scaling laws."""
    rng = np.random.default_rng(8)
    problems = []

    # fields vanish identically outside the tube (10k random points)
    n = 10_000
    s = params.r0 * (1.0 + 3.0 * rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    R, z = params.R0 + s * np.cos(theta), s * np.sin(theta)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = rng.uniform(0.0, 2.0 * np.pi / params.omega, size=n)
    E, B = real_fields(R, phi, z, t, params)
    if not (np.all(E == 0.0) and np.all(B == 0.0)):
        problems.append("outside-mask fields not identically zero")

    # real fields are the componentwise real part of the phasors (1e-14)
    sampling = SamplingConfig(n_points=1000, seed=77, h=1e-5)
    Ri, phii, zi, ti = interior_samples(params, sampling)
    Er, Br = real_fields(Ri, phii, zi, ti, params)
    if not (np.allclose(Er, e_phasor(Ri, phii, zi, ti, params).real,
                        rtol=1e-14, atol=1e-14 * params.E0)
            and np.allclose(Br, b_phasor(Ri, phii, zi, ti, params).real,
                            rtol=1e-14, atol=1e-14 * params.E0 / k.c)):
        problems.append("real fields deviate from Re(phasor) beyond 1e-14")

    # charge continuity holds to 1e-12 normalized
    cont = full_verification(params, SamplingConfig(1000, 42, 1e-5), k)[3]
    if not (cont.passed and cont.max_rel_residual < 1e-12):
        problems.append(f"continuity residual {cont.max_rel_residual:.1e}")

    # phase velocity is exactly 2c
    base = compute_observables(params, grid, k)
    if base.v_phase != 2.0 * k.c:
        problems.append("phase velocity is not exactly 2c")

    # amplitude scaling over a decade: Q ~ E0, mu ~ E0, L ~ E0^2, U ~ E0^2
    scaled = compute_observables(
        AnsatzParams.faraday(10.0 * params.E0, params.R0, params.r0, k), grid, k)
    laws = {
        "Q~E0": scaled.Q_rms.quadrature / (10.0 * base.Q_rms.quadrature),
        "mu~E0": scaled.mu_z.closed_form / (10.0 * base.mu_z.closed_form),
        "L~E0^2": scaled.L_z.quadrature / (100.0 * base.L_z.quadrature),
        "U~E0^2": scaled.U.quadrature / (100.0 * base.U.quadrature),
    }
    for name, ratio in laws.items():
        if abs(ratio - 1.0) > 1e-12:
            problems.append(f"scaling law {name} off by {ratio - 1.0:.1e}")

    ok = not problems
    _emit(capsys, 8, ok,
          "mask support, phasor/real 1e-14, continuity <1e-12, v_phase == 2c, "
          "E0 scaling laws 1e-12" if ok else "; ".join(problems))
    assert ok, problems

"""Assemble verification, observables, and solver outputs into one report.

The report compares every published reference number for this model
against the workbench's computed values:

* the five boxed dimensionless ratios (E0/E_S, R0/r_c, r0/r_c,
  U/(m_e c^2), omega/omega_D), checked to 5e-4 absolute on the ratio
  (references print 3-4 significant figures);
* the five SI values (E0, R0, r0, U in MeV, omega), checked to 1%
  relative (references round to 3 figures);
* the phase velocity, exactly 2c;
* the three constraint targets (e, mu_B(1+alpha/2pi), hbar/2), checked
  to 0.1% relative on the computed observables.

Ratio and SI claims are evaluated on the thin-torus Schwinger solution
(that is the configuration the reference numbers belong to); the target
claims are evaluated on observables at the full-corrections solution.
JSON is the canonical render; see docs/report_schema.md.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .constants import CODATA, DerivedScales, PhysicalConstants, derived_scales
from .geometry import build_grid
from .maxwell import ResidualReport, full_verification
from .observables import ObservableSet, compute_observables
from .scalar import DEFAULT_RESOLUTION, SamplingConfig, to_json
from .solver import (ConstraintSystem, FULL, RatioReport, SolveResult,
                     ratio_report, solve_full, solve_thin_torus)

SCHEMA_VERSION = "3.0"

# Stable ids of every reference-value claim; completeness is tested
# against this manifest.
CLAIM_IDS = (
    "ratio.E0_over_ES",
    "ratio.R0_over_rc",
    "ratio.r0_over_rc",
    "ratio.U_over_mec2",
    "ratio.omega_over_omegaD",
    "si.E0",
    "si.R0",
    "si.r0",
    "si.U_MeV",
    "si.omega",
    "velocity.v_phase",
    "target.Q_rms",
    "target.mu_z",
    "target.L_z",
)

RATIO_TOL_ABS = 5e-4   # absolute, on dimensionless ratios
SI_TOL_REL = 1e-2      # relative, on rounded SI reference values
TARGET_TOL_REL = 1e-3  # relative, on the three constraint targets


@dataclass(frozen=True)
class Claim:
    """One computed value versus one published reference number.

    ``tolerance`` is always expressed relative so that the pass rule is
    uniformly |rel_deviation| <= tolerance; ``tolerance_basis`` records
    the original statement (e.g. absolute-on-ratio) it was derived from.
    """

    id: str
    description: str
    reference_value: float
    unit: str
    computed_value: float
    rel_deviation: float
    tolerance: float
    tolerance_basis: str
    passed: bool


def _claim(cid: str, description: str, reference: float, unit: str,
           computed: float, tol_rel: float, basis: str) -> Claim:
    rel_dev = computed / reference - 1.0
    return Claim(
        id=cid,
        description=description,
        reference_value=reference,
        unit=unit,
        computed_value=computed,
        rel_deviation=rel_dev,
        tolerance=tol_rel,
        tolerance_basis=basis,
        passed=bool(abs(rel_dev) <= tol_rel),
    )


def build_claims(sr: SolveResult, obs: ObservableSet, ds: DerivedScales,
                 k: PhysicalConstants = CODATA) -> list[Claim]:
    """One claim per published reference number.

    ``sr`` should be the thin-torus Schwinger solution (the reference
    ratios and SI values describe it); ``obs`` should be observables of
    the full-corrections solution (the targets hold exactly there).
    """
    rr = ratio_report(sr, ds, k)
    targets = ConstraintSystem.for_electron(k)
    ratio_refs = {
        "ratio.E0_over_ES": ("amplitude over Schwinger field", 0.286, rr.E0_over_ES),
        "ratio.R0_over_rc": ("major radius over reduced Compton length", 1.5726, rr.R0_over_rc),
        "ratio.r0_over_rc": ("tube radius over reduced Compton length", 0.1516, rr.r0_over_rc),
        "ratio.U_over_mec2": ("total energy over rest energy", 0.7949, rr.U_over_mec2),
        "ratio.omega_over_omegaD": ("frequency over Dirac frequency", 0.636, rr.omega_over_omegaD),
    }
    si_refs = {
        "si.E0": ("electric amplitude", 3.783e17, rr.E0, "V/m"),
        "si.R0": ("major radius", 6.073e-13, rr.R0, "m"),
        "si.r0": ("tube radius", 5.854e-14, rr.r0, "m"),
        "si.U_MeV": ("total energy", 0.406, rr.U_MeV, "MeV"),
        "si.omega": ("angular frequency", 9.86e20, rr.omega, "rad/s"),
    }

    claims = []
    for cid, (desc, ref, computed) in ratio_refs.items():
        claims.append(_claim(
            cid, desc, ref, "", computed,
            tol_rel=RATIO_TOL_ABS / ref,
            basis=f"{RATIO_TOL_ABS:g} absolute on the dimensionless ratio",
        ))
    for cid, (desc, ref, computed, unit) in si_refs.items():
        claims.append(_claim(
            cid, desc, ref, unit, computed,
            tol_rel=SI_TOL_REL,
            basis=f"{SI_TOL_REL:g} relative (reference rounds to 3-4 figures)",
        ))
    claims.append(_claim(
        "velocity.v_phase", "phase velocity along the axis circle",
        2.0 * k.c, "m/s", obs.v_phase,
        tol_rel=1e-12, basis="exact identity 2c",
    ))
    claims.append(_claim(
        "target.Q_rms", "RMS charge equals the elementary charge",
        targets.charge_target, "C", obs.Q_rms.quadrature,
        tol_rel=TARGET_TOL_REL, basis="0.1% relative on the fitted target",
    ))
    claims.append(_claim(
        "target.mu_z", "magnetic moment equals mu_B*(1 + alpha/2pi)",
        targets.moment_target, "A*m^2", obs.mu_z.closed_form,
        tol_rel=TARGET_TOL_REL, basis="0.1% relative on the fitted target",
    ))
    claims.append(_claim(
        "target.L_z", "angular momentum magnitude equals hbar/2",
        targets.spin_target, "J*s", obs.L_z.quadrature,
        tol_rel=TARGET_TOL_REL, basis="0.1% relative on the fitted target",
    ))

    assert tuple(c.id for c in claims) == CLAIM_IDS
    return claims


@dataclass(frozen=True)
class FullReport:
    """Everything the workbench can say about the model, in one record."""

    schema_version: str
    resolution: tuple[int, int, int]
    sampling: SamplingConfig
    include_schwinger: bool
    constants: PhysicalConstants
    scales: DerivedScales
    residual_checks: list[ResidualReport]
    observables: ObservableSet
    solve_thin: SolveResult
    solve_full: SolveResult
    ratios: RatioReport   # of the thin Schwinger solution (reference configuration)
    claims: list[Claim]
    overall_pass: bool


def build_full_report(k: PhysicalConstants = CODATA,
                      resolution: tuple[int, int, int] = DEFAULT_RESOLUTION,
                      sampling: SamplingConfig = SamplingConfig(),
                      include_schwinger: bool = True) -> FullReport:
    """Solve, verify, measure, and compare in one deterministic pass."""
    ds = derived_scales(k)
    thin = solve_thin_torus(k, include_schwinger=include_schwinger)
    full = solve_full(k, ConstraintSystem.for_electron(
        k, mode=FULL, include_schwinger=include_schwinger))
    params = full.as_params(k)
    grid = build_grid(params.geometry, resolution)
    observables = compute_observables(params, grid, k)
    checks = full_verification(params, sampling, k)
    claims = build_claims(thin, observables, ds, k)
    overall = all(c.passed for c in claims) and all(r.passed for r in checks)
    return FullReport(
        schema_version=SCHEMA_VERSION,
        resolution=tuple(resolution),
        sampling=sampling,
        include_schwinger=include_schwinger,
        constants=k,
        scales=ds,
        residual_checks=checks,
        observables=observables,
        solve_thin=thin,
        solve_full=full,
        ratios=ratio_report(thin, ds, k),
        claims=claims,
        overall_pass=overall,
    )


CSV_CLAIMS_HEADER = ["id", "description", "reference_value", "unit",
                     "computed_value", "rel_deviation", "tolerance", "passed"]


def render(report: FullReport, format: str = "json") -> str:
    """Serialize a report: json (canonical), csv (claims table), or text."""
    if format == "json":
        return to_json(report)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_CLAIMS_HEADER)
        for c in report.claims:
            writer.writerow([c.id, c.description, repr(c.reference_value),
                             c.unit, repr(c.computed_value),
                             repr(c.rel_deviation), repr(c.tolerance),
                             c.passed])
        return buf.getvalue()
    if format == "text":
        lines = [
            f"toroidal-em report (schema {report.schema_version})",
            f"grid resolution {report.resolution}, "
            f"{report.sampling.n_points} residual nodes in R, seed {report.sampling.seed}",
            "",
            "Maxwell residual checks (normalized):",
        ]
        for r in report.residual_checks:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {status}  {r.equation:<17} max={r.max_rel_residual:.3e} "
                         f"mean={r.mean_rel_residual:.3e} tol={r.tolerance:g}"
                         + (f"  [{r.note}]" if r.note else ""))
        lines += ["", "Reference-value claims:"]
        for c in report.claims:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status}  {c.id:<24} computed={c.computed_value:.6e} "
                         f"reference={c.reference_value:.6e} {c.unit} "
                         f"dev={c.rel_deviation:+.2e} (tol {c.tolerance:.2e})")
        ratio = report.observables.mu_quadrature_ratio
        lines += [
            "",
            f"magnetic-moment quadrature diagnostic / closed form = {ratio:.12f}; "
            f"expected 2*pi when omega = 2c/R0 (deviation {ratio / (2.0 * math.pi) - 1.0:+.1e}"
            " relative); not part of OVERALL",
            f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}",
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}; use json, csv, or text")

"""Fit the field parameters (E0, R0, r0) to the three electron targets.

The constraints, with targets spin ħ/2, charge e, and magnetic moment
μ_B·(1 + α/2π), equate the closed forms of L_z, Q_rms and μ_z in
:mod:`.fields` to the targets:

    spin    (1/c)·eps0·E0²·π²·R0²·r0²·[1 + r0²/(4R0²)]  = ħ/2
    charge  √2·π²·eps0·E0·r0²                           = e
    moment  √2·eps0·π·c·E0·R0·r0²·[1 + r0²/(2R0²)]      = μ_B(1+α/2π)

The bracketed correction factors apply in ``full_corrections`` mode and
are dropped in ``thin_torus`` mode.  Either way the system solves in
closed form.  With S, Q, M the three targets, eliminating E0 and R0
leaves one equation in x = r0/R0,

    x² = a·(1 + x²/4),   a = Q²/(2π²·eps0·c·S),

so that

    x² = a/(1 − a/4),  R0 = π·M/(c·Q·(1 + x²/2)),
    E0 = √2·c·S/(Q·R0²·(1 + x²/4)),  r0 = x·R0,

and thin mode is the same without the brackets (x² = a).  The solve
takes r0 from the charge constraint, r0² = Q/(√2·π²·eps0·E0), which is
x·R0 in exact arithmetic and, at the electron targets, rounds nearer the
50-digit value than x·R0 does.

The torus is not self-intersecting (r0 < R0) only for a < 4/5 in full
mode and a < 1 in thin mode; other targets are rejected with a
ValueError.  The solution's residuals are still checked against a
tolerance, and :class:`ConvergenceError` reports a miss.

The frequency follows from the Faraday constraint, omega = 2c/R0, and
the total energy from the energy closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, DerivedScales, PhysicalConstants, derived_scales
from .fields import (AnsatzParams, _l_z_closed, _mu_z_closed, _q_rms_closed,
                     _u_closed)

THIN = "thin_torus"
FULL = "full_corrections"

# Default bound on each constraint residual of a solution.
SOLVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ConstraintSystem:
    """Targets and mode for the three-constraint fit."""

    spin_target: float     # J s
    charge_target: float   # C
    moment_target: float   # A m^2
    mode: str              # THIN or FULL

    def __post_init__(self) -> None:
        targets = (self.spin_target, self.charge_target, self.moment_target)
        if not all(math.isfinite(v) and v > 0.0 for v in targets):
            raise ValueError(
                f"constraint targets must be finite and > 0, got {targets}")
        if self.mode not in (THIN, FULL):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def for_electron(cls, k: PhysicalConstants = CODATA, mode: str = FULL,
                     include_schwinger: bool = True) -> "ConstraintSystem":
        """Electron targets: ħ/2, e, and μ_B (times 1+α/2π by default).

        The moment target keeps the Schwinger radiative factor by
        default; ``include_schwinger=False`` drops it (the first-order
        simplification, which shifts R0 to exactly (π/2)·r_c).
        """
        ds = derived_scales(k)
        factor = 1.0 + k.alpha / (2.0 * np.pi) if include_schwinger else 1.0
        return cls(
            spin_target=k.hbar / 2.0,
            charge_target=k.e_charge,
            moment_target=ds.mu_B * factor,
            mode=mode,
        )


@dataclass(frozen=True)
class SolveResult:
    """Solution of the constraint system with its residuals.

    ``iterations`` is always 0: the solve is closed-form.  The field stays
    so that the report's ``solve_thin``/``solve_full`` objects keep their
    shape.
    """

    E0: float        # V/m
    R0: float        # m
    r0: float        # m
    omega: float     # rad/s, always 2c/R0
    U: float         # J
    iterations: int
    residuals: tuple[float, float, float]  # (spin, charge, moment), dimensionless
    mode: str

    def as_params(self, k: PhysicalConstants = CODATA) -> AnsatzParams:
        """Faraday-consistent field parameters at the solution."""
        return AnsatzParams.faraday(self.E0, self.R0, self.r0, k)


@dataclass(frozen=True)
class RatioReport:
    """Solution expressed against the derived reference scales."""

    E0_over_ES: float
    R0_over_rc: float
    r0_over_rc: float
    U_over_mec2: float
    omega_over_omegaD: float
    E0: float       # V/m
    R0: float       # m
    r0: float       # m
    omega: float    # rad/s
    U: float        # J
    U_MeV: float


class ConvergenceError(RuntimeError):
    """The solution missed the residual tolerance; carries the residuals."""

    def __init__(self, message: str, residuals: tuple[float, float, float]):
        super().__init__(message)
        self.residuals = residuals


def constraint_residuals(x, sys: ConstraintSystem,
                         k: PhysicalConstants = CODATA) -> np.ndarray:
    """Dimensionless residuals (lhs/target - 1) for x = (E0, R0, r0)."""
    E0, R0, r0 = (float(v) for v in x)
    if min(E0, R0, r0) <= 0.0:
        raise ValueError("E0, R0, r0 must all be positive")
    corrections = sys.mode == FULL
    lhs = np.array([_l_z_closed(E0, R0, r0, k, corrections),
                    _q_rms_closed(E0, r0, k),
                    _mu_z_closed(E0, R0, r0, k, corrections)])
    return lhs / (sys.spin_target, sys.charge_target, sys.moment_target) - 1.0


def _solve(sys: ConstraintSystem, k: PhysicalConstants, tol: float) -> SolveResult:
    """Closed-form (E0, R0, r0) of either mode, with the residual guard."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    S, Q, M = sys.spin_target, sys.charge_target, sys.moment_target
    corrections = sys.mode == FULL
    a = Q**2 / (2.0 * np.pi**2 * k.eps0 * k.c * S)
    a_max = 0.8 if corrections else 1.0
    if not a < a_max:
        raise ValueError(
            f"a = Q^2/(2 pi^2 eps0 c S) = {a:.6g} must be below {a_max:g} in "
            f"{sys.mode} mode: the solution would have r0 >= R0")
    w = 1.0 if corrections else 0.0   # weight of the O(r0^2/R0^2) brackets
    x2 = a / (1.0 - w * a / 4.0)
    R0 = np.pi * M / (k.c * Q * (1.0 + w * x2 / 2.0))
    E0 = float(np.sqrt(2.0) * k.c * S / (Q * R0**2 * (1.0 + w * x2 / 4.0)))
    r0 = float(np.sqrt(Q / (np.sqrt(2.0) * np.pi**2 * k.eps0 * E0)))
    res = tuple(float(r) for r in constraint_residuals((E0, R0, r0), sys, k))
    worst = max(abs(r) for r in res)
    if not worst < tol:
        raise ConvergenceError(
            f"closed-form solution misses tol={tol:g} (max residual "
            f"{worst:.3e}; the floating-point floor is ~1e-16)", residuals=res)
    return SolveResult(
        E0=E0, R0=R0, r0=r0,
        omega=2.0 * k.c / R0,
        U=float(_u_closed(E0, R0, r0, k, corrections)),
        iterations=0,
        residuals=res,
        mode=sys.mode,
    )


def solve_thin_torus(k: PhysicalConstants = CODATA,
                     include_schwinger: bool = True) -> SolveResult:
    """Closed-form solution of the electron's thin-torus system.

    This reduces to R0 = (π/2)·(1+α/2π)·r_c (the Schwinger factor
    dropping to π/2 when disabled), E0 = ħc/(√2·e·R0²),
    r0 = 2·R0·√(α/π), and U = (5/4)·ħ·c/R0.
    """
    return _solve(ConstraintSystem.for_electron(k, THIN, include_schwinger), k,
                  SOLVE_TOLERANCE)


def solve_full(k: PhysicalConstants = CODATA,
               sys: ConstraintSystem | None = None,
               tol: float = SOLVE_TOLERANCE) -> SolveResult:
    """Closed-form solution of ``sys``, by default the full-corrections
    electron system with the Schwinger factor.

    Raises :class:`ConvergenceError` when a constraint residual is not
    below ``tol``, and ValueError when the targets admit no torus with
    r0 < R0.
    """
    return _solve(sys or ConstraintSystem.for_electron(k), k, tol)


def ratio_report(sr: SolveResult, ds: DerivedScales,
                 k: PhysicalConstants = CODATA) -> RatioReport:
    """Express a solution as the five dimensionless ratios plus SI echoes."""
    rr = RatioReport(
        E0_over_ES=sr.E0 / ds.E_S,
        R0_over_rc=sr.R0 / ds.r_c,
        r0_over_rc=sr.r0 / ds.r_c,
        U_over_mec2=sr.U / ds.rest_energy,
        omega_over_omegaD=sr.omega / ds.omega_D,
        E0=sr.E0, R0=sr.R0, r0=sr.r0, omega=sr.omega, U=sr.U,
        U_MeV=sr.U / (k.e_charge * 1e6),
    )
    ratios = (rr.E0_over_ES, rr.R0_over_rc, rr.r0_over_rc,
              rr.U_over_mec2, rr.omega_over_omegaD)
    if not all(np.isfinite(v) and v > 0.0 for v in ratios):
        raise ValueError(f"non-finite or non-positive ratio in {ratios}")
    return rr

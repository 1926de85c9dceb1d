"""Fit the field parameters (E0, R0, r0) to the three electron targets.

The constraints, with targets spin ħ/2, charge e, and magnetic moment
μ_B·(1 + α/2π):

    spin    (1/c)·eps0·E0²·π²·R0²·r0²·[1 + r0²/(4R0²)]  = ħ/2
    charge  √2·π²·eps0·E0·r0²                           = e
    moment  √2·eps0·π·c·E0·R0·r0²·[1 + r0²/(2R0²)]      = μ_B(1+α/2π)

The bracketed correction factors apply in ``full_corrections`` mode and
are dropped in ``thin_torus`` mode, where the system has an exact closed
form:

    R0 = π·M/(c·Q),  E0 = √2·c·S/(Q·R0²),  r0² = Q/(√2·π²·eps0·E0)

(S, Q, M the three targets).  The full system is solved by damped Newton
iteration in log-parameter space, seeded from the thin closed form; the
corrections are O(r0²/R0²) ≈ 0.93%, so Newton converges in a handful of
steps.

The frequency follows from the Faraday constraint, omega = 2c/R0, and
the total energy from the energy closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CODATA, DerivedScales, PhysicalConstants, derived_scales
from .fields import AnsatzParams

THIN = "thin_torus"
FULL = "full_corrections"

_JACOBIAN_STEP = 1e-7   # central-difference step in log-parameters
_MIN_DAMPING = 1.0 / 64.0
_MAX_ITER = 50


@dataclass(frozen=True)
class ConstraintSystem:
    """Targets and mode for the three-constraint fit."""

    spin_target: float     # J s
    charge_target: float   # C
    moment_target: float   # A m^2
    mode: str              # THIN or FULL

    def __post_init__(self) -> None:
        if min(self.spin_target, self.charge_target, self.moment_target) <= 0.0:
            raise ValueError("all constraint targets must be positive")
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
    """Solution of the constraint system with convergence metadata."""

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
    """Newton iteration failed; carries the final residuals."""

    def __init__(self, message: str, residuals: tuple[float, float, float]):
        super().__init__(message)
        self.residuals = residuals


def constraint_residuals(x, sys: ConstraintSystem,
                         k: PhysicalConstants = CODATA) -> np.ndarray:
    """Dimensionless residuals (lhs/target - 1) for x = (E0, R0, r0)."""
    E0, R0, r0 = (float(v) for v in x)
    if min(E0, R0, r0) <= 0.0:
        raise ValueError("E0, R0, r0 must all be positive")
    x2 = r0**2 / R0**2
    spin_corr = 1.0 + x2 / 4.0 if sys.mode == FULL else 1.0
    moment_corr = 1.0 + x2 / 2.0 if sys.mode == FULL else 1.0
    spin = k.eps0 * E0**2 * np.pi**2 * R0**2 * r0**2 * spin_corr / k.c
    charge = np.sqrt(2.0) * np.pi**2 * k.eps0 * E0 * r0**2
    moment = np.sqrt(2.0) * k.eps0 * np.pi * k.c * E0 * R0 * r0**2 * moment_corr
    return np.array([
        spin / sys.spin_target - 1.0,
        charge / sys.charge_target - 1.0,
        moment / sys.moment_target - 1.0,
    ])


def _thin_closed(sys: ConstraintSystem, k: PhysicalConstants) -> tuple[float, float, float]:
    """Exact solution of the thin (correction-free) system for any targets."""
    R0 = np.pi * sys.moment_target / (k.c * sys.charge_target)
    E0 = np.sqrt(2.0) * k.c * sys.spin_target / (sys.charge_target * R0**2)
    r0 = np.sqrt(sys.charge_target / (np.sqrt(2.0) * np.pi**2 * k.eps0 * E0))
    return float(E0), float(R0), float(r0)


def _energy(E0: float, R0: float, r0: float, mode: str,
            k: PhysicalConstants) -> float:
    factor = 2.5 + (r0**2 / (8.0 * R0**2) if mode == FULL else 0.0)
    return float(k.eps0 * np.pi**2 * R0 * r0**2 * E0**2 * factor)


def solve_thin_torus(k: PhysicalConstants = CODATA,
                     include_schwinger: bool = True) -> SolveResult:
    """Closed-form solution of the thin-torus system.

    With electron targets this reduces to R0 = (π/2)·(1+α/2π)·r_c (the
    Schwinger factor dropping to π/2 when disabled), E0 = ħc/(√2·e·R0²),
    r0 = 2·R0·√(α/π), and U = (5/4)·ħ·c/R0.
    """
    sys = ConstraintSystem.for_electron(k, mode=THIN,
                                        include_schwinger=include_schwinger)
    E0, R0, r0 = _thin_closed(sys, k)
    res = constraint_residuals((E0, R0, r0), sys, k)
    if np.max(np.abs(res)) >= 1e-12:
        raise RuntimeError(
            f"thin-torus closed form failed its residual guard: {res}"
        )
    return SolveResult(
        E0=E0, R0=R0, r0=r0,
        omega=2.0 * k.c / R0,
        U=1.25 * k.hbar * k.c / R0,
        iterations=0,
        residuals=tuple(float(r) for r in res),
        mode=THIN,
    )


def solve_full(k: PhysicalConstants = CODATA,
               sys: ConstraintSystem | None = None,
               tol: float = 1e-12) -> SolveResult:
    """Damped Newton solve of the constraint system in log-parameters.

    ``sys`` defaults to the full-corrections electron system with the
    Schwinger factor; the iteration starts from its thin closed form.
    All three unknowns are positive and span several orders of magnitude
    in SI, so iterating on log(E0, R0, r0) keeps the Jacobian well scaled.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if sys is None:
        sys = ConstraintSystem.for_electron(k)

    u = np.log(np.asarray(_thin_closed(sys, k)))

    def f(u_vec: np.ndarray) -> np.ndarray:
        return constraint_residuals(np.exp(u_vec), sys, k)

    res = f(u)
    iterations = 0
    for _ in range(_MAX_ITER):
        if np.max(np.abs(res)) < tol:
            break
        jac = np.empty((3, 3))
        for j in range(3):
            up, um = u.copy(), u.copy()
            up[j] += _JACOBIAN_STEP
            um[j] -= _JACOBIAN_STEP
            jac[:, j] = (f(up) - f(um)) / (2.0 * _JACOBIAN_STEP)
        step = np.linalg.solve(jac, res)
        lam = 1.0
        while lam > _MIN_DAMPING:
            if np.max(np.abs(f(u - lam * step))) < np.max(np.abs(res)):
                break
            lam *= 0.5
        u = u - lam * step
        res = f(u)
        iterations += 1

    if not np.max(np.abs(res)) < tol:
        raise ConvergenceError(
            f"no convergence to tol={tol:g} after {iterations} iterations "
            f"(final max residual {np.max(np.abs(res)):.3e}; likely below "
            "the floating-point floor if tol < ~1e-14)",
            residuals=tuple(float(r) for r in res),
        )

    E0, R0, r0 = (float(v) for v in np.exp(u))
    return SolveResult(
        E0=E0, R0=R0, r0=r0,
        omega=2.0 * k.c / R0,
        U=_energy(E0, R0, r0, sys.mode, k),
        iterations=iterations,
        residuals=tuple(float(r) for r in res),
        mode=sys.mode,
    )


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

"""Three-constraint fit: closed-form solve in both modes, domain guard, ratio report."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from toroidal_em.constants import derived_scales
from toroidal_em.fields import AnsatzParams, real_fields
from toroidal_em.solver import (FULL, THIN, ConstraintSystem, ConvergenceError,
                                constraint_residuals, ratio_report, solve_full,
                                solve_thin_torus)


class TestConstraintSystem:
    def test_electron_targets(self, k):
        sys = ConstraintSystem.for_electron(k)
        assert sys.spin_target == k.hbar / 2.0
        assert sys.charge_target == k.e_charge
        assert sys.mode == FULL

    def test_schwinger_factor_optional(self, k, ds):
        sys = ConstraintSystem.for_electron(k, include_schwinger=False)
        assert sys.moment_target == ds.mu_B

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstraintSystem(-1.0, 1.0, 1.0, THIN)
        with pytest.raises(ValueError):
            ConstraintSystem(1.0, 0.0, 1.0, THIN)
        with pytest.raises(ValueError):
            ConstraintSystem(1.0, 1.0, 1.0, "exact")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_target_rejected(self, which, bad):
        targets = [1.0, 1.0, 1.0]
        targets[which] = bad
        with pytest.raises(ValueError, match="finite and > 0"):
            ConstraintSystem(*targets, FULL)


class TestConstraintResiduals:
    def test_zero_at_thin_solution(self, thin, k):
        sys = ConstraintSystem.for_electron(k, mode=THIN)
        res = constraint_residuals((thin.E0, thin.R0, thin.r0), sys, k)
        assert np.max(np.abs(res)) < 1e-12

    def test_amplitude_doubling_shifts_each_constraint(self, thin, k):
        # spin ~ E0^2, charge ~ E0, moment ~ E0
        sys = ConstraintSystem.for_electron(k, mode=THIN)
        res = constraint_residuals((2.0 * thin.E0, thin.R0, thin.r0), sys, k)
        np.testing.assert_allclose(res, [3.0, 1.0, 1.0], atol=1e-12)

    def test_tube_radius_doubling(self, thin, k):
        # every constraint carries r0^2 and nothing else in thin mode
        sys = ConstraintSystem.for_electron(k, mode=THIN)
        res = constraint_residuals((thin.E0, thin.R0, 2.0 * thin.r0), sys, k)
        np.testing.assert_allclose(res, [3.0, 3.0, 3.0], atol=1e-12)

    def test_nonpositive_parameters_rejected(self, k):
        sys = ConstraintSystem.for_electron(k)
        for bad in ((0.0, 1.0, 0.1), (1.0, -2.0, 0.1), (1.0, 1.0, 0.0),
                    (np.nan, 1.0, 0.1), (1.0, np.nan, 0.1), (1.0, 1.0, np.nan),
                    (np.inf, 1.0, 0.1), (1.0, np.inf, 0.1), (1.0, 1.0, -np.inf)):
            with pytest.raises(ValueError, match="finite and > 0"):
                constraint_residuals(bad, sys, k)


class TestThinSolve:
    def test_residuals_and_metadata(self, thin):
        assert thin.iterations == 0
        assert thin.mode == THIN
        assert max(abs(r) for r in thin.residuals) < 1e-12



class TestFullSolve:
    def test_residuals_and_metadata(self, full):
        assert full.iterations == 0
        assert max(abs(r) for r in full.residuals) < 1e-12
        assert full.mode == FULL

    def test_within_two_percent_of_thin(self, full, thin):
        for name in ("E0", "R0", "r0"):
            shift = abs(getattr(full, name) / getattr(thin, name) - 1.0)
            assert shift < 0.02, name

    def test_thin_mode_system_reproduces_closed_form(self, thin, k):
        sys = ConstraintSystem.for_electron(k, mode=THIN)
        sr = solve_full(k, sys=sys)
        assert sr.E0 == pytest.approx(thin.E0, rel=1e-10)
        assert sr.R0 == pytest.approx(thin.R0, rel=1e-10)
        assert sr.r0 == pytest.approx(thin.r0, rel=1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, True, False])
    def test_bad_tolerance_rejected(self, k, tol):
        # nan would report a miss of a 2e-16 solution, and inf or True
        # would turn the residual guard off
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_full(k, tol=tol)

    def test_unreachable_tolerance_raises_with_diagnostics(self, k):
        with pytest.raises(ConvergenceError) as exc:
            solve_full(k, tol=1e-17)
        assert len(exc.value.residuals) == 3

    def test_omega_and_energy_consistent(self, full, k):
        assert full.omega == pytest.approx(2.0 * k.c / full.R0, rel=1e-15)
        u_expect = (k.eps0 * np.pi**2 * full.R0 * full.r0**2 * full.E0**2
                    * (2.5 + full.r0**2 / (8.0 * full.R0**2)))
        assert full.U == pytest.approx(u_expect, rel=1e-15)

    def test_as_params_is_the_faraday_constructor(self, full, k):
        p = full.as_params(k)
        assert p == AnsatzParams.faraday(full.E0, full.R0, full.r0, k)
        assert p.omega * p.R0 == 2.0 * k.c  # the phase velocity, bit for bit
        _, B = real_fields(p.R0, np.pi / 2.0, 0.0, 0.0, p, k)  # sin(psi) = 1 on the axis
        assert -B[2] == pytest.approx(p.E0 / k.c, rel=1e-15)


def targets_with_a(a, k, mode):
    """Electron spin and moment targets, with the charge that sets a = Q^2/(2 pi^2 eps0 c S)."""
    base = ConstraintSystem.for_electron(k)
    Q = np.sqrt(a * 2.0 * np.pi**2 * k.eps0 * k.c * base.spin_target)
    return ConstraintSystem(base.spin_target, float(Q), base.moment_target, mode)


class TestDomainGuard:
    """A solution with r0 >= R0 (a >= 4/5 full, a >= 1 thin) is refused up front."""

    @pytest.mark.parametrize("mode, a", [(FULL, 0.79), (THIN, 0.79), (THIN, 0.81)])
    def test_inside_the_domain_solves(self, k, mode, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sr = solve_full(k, targets_with_a(a, k, mode))
        assert sr.r0 < sr.R0
        assert max(abs(r) for r in sr.residuals) < 1e-12
        sr.as_params(k)

    @pytest.mark.parametrize("mode, a", [(FULL, 0.81), (FULL, 4.5), (THIN, 1.01), (THIN, 4.5)])
    def test_outside_the_domain_raises_one_clean_error(self, k, mode, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^a = .*r0 >= R0"):
                solve_full(k, targets_with_a(a, k, mode))


class TestUnrepresentableTargets:
    """Targets whose solution overflows or underflows floats raise one ValueError."""

    @pytest.mark.parametrize("targets", [
        (9.207e77, 2.782e256, 1.396e-161),     # Q**2 overflows
        (4.198e-190, 3.496e-195, 1.806e187),   # R0 = inf, so E0 = 0 divides the r0 line
    ], ids=["square-overflows", "divides-by-zero"])
    def test_raises_value_error_naming_the_targets(self, k, targets):
        with pytest.raises(ValueError, match=r"^targets \(spin, charge, moment\) = ") as exc:
            solve_full(k, ConstraintSystem(*targets, FULL))
        assert str(targets) in str(exc.value)


class TestTargetSensitivity:
    """Raising the charge target: E0 rises with it, R0 falls, r0 holds."""

    def test_thin_mode_directions(self, thin, k):
        base = ConstraintSystem.for_electron(k, mode=THIN)
        bumped = ConstraintSystem(base.spin_target, 1.01 * base.charge_target,
                                  base.moment_target, THIN)
        sr = solve_full(k, sys=bumped)
        assert sr.E0 == pytest.approx(1.01 * thin.E0, rel=1e-8)
        assert sr.R0 == pytest.approx(thin.R0 / 1.01, rel=1e-8)
        assert sr.r0 == pytest.approx(thin.r0, rel=1e-8)

    def test_full_mode_directions(self, full, k):
        base = ConstraintSystem.for_electron(k)
        bumped = ConstraintSystem(base.spin_target, 1.01 * base.charge_target,
                                  base.moment_target, FULL)
        sr = solve_full(k, sys=bumped)
        assert sr.E0 > 1.005 * full.E0
        assert sr.R0 < full.R0
        assert abs(sr.r0 / full.r0 - 1.0) < 1e-2


class TestRatioReport:
    def test_frequency_radius_product(self, full, thin, ds, k):
        for sr in (full, thin):
            rr = ratio_report(sr, ds, k)
            assert rr.omega_over_omegaD * rr.R0_over_rc == pytest.approx(
                1.0, rel=1e-12)

    def test_si_echoes_passthrough(self, full, ds, k):
        rr = ratio_report(full, ds, k)
        assert (rr.E0, rr.R0, rr.r0, rr.omega, rr.U) == (
            full.E0, full.R0, full.r0, full.omega, full.U)

    def test_unit_rescale_leaves_ratios_invariant(self, thin, full, ds, k, rescaled):
        lam = 100.0
        k2 = rescaled(k, lam)
        ds2 = derived_scales(k2)
        for solve, ref in ((solve_thin_torus, thin), (solve_full, full)):
            rr2 = ratio_report(solve(k2), ds2, k2)
            rr1 = ratio_report(ref, ds, k)
            for name in ("E0_over_ES", "R0_over_rc", "r0_over_rc",
                         "U_over_mec2", "omega_over_omegaD"):
                assert getattr(rr2, name) == pytest.approx(
                    getattr(rr1, name), rel=1e-12), name

    @pytest.mark.parametrize("solution, scales", [
        ({"U": 0.0}, {}),           # U/(m_e c^2) = 0
        ({}, {"E_S": 1e-300}),      # E0/E_S overflows to inf
    ], ids=["zero-energy", "E0-ratio-overflows"])
    def test_non_finite_or_non_positive_ratio_raises(self, full, ds, k, solution, scales):
        sr, scales = dataclasses.replace(full, **solution), dataclasses.replace(ds, **scales)
        ratios = (sr.E0 / scales.E_S, sr.R0 / scales.r_c, sr.r0 / scales.r_c,
                  sr.U / scales.rest_energy, sr.omega / scales.omega_D)
        assert sum(0.0 < v < math.inf for v in ratios) == 4
        with pytest.raises(ValueError) as exc:
            ratio_report(sr, scales, k)
        assert str(exc.value) == f"non-finite or non-positive ratio in {ratios}"

"""Maxwell-equation residual verification for the torus ansatz.

Each of the four laws has one residual, computed with second-order
central finite differences in space (cylindrical div/curl) and in time
at seeded random interior (point, time) samples:

* gauss_B: the FD div B;
* gauss_E: the FD div E minus the hand-derived source rho/eps0;
* faraday: |FD curl E + FD dB/dt|, and the check also requires omega to
  equal 2c/R0 to ``FARADAY_OMEGA_TOL`` relative, since the law holds at
  exactly that frequency;
* ampere_continuity: the FD div J plus the FD d(rho)/dt.

The closed forms that the field kernels hold (div E, curl E, J from
Ampere-Maxwell, continuity) are proved once, symbolically, by the sympy
audit in ``tests/test_maxwell_symbolic.py``; no residual here re-types
them, so every residual compares two separately written things and can
fail.

Per-equation residuals are normalized by the natural field-derivative
scale so that a passing check means "the law holds to ~1e-6 of the terms
involved" independent of amplitude and of SI magnitudes.  The sampler,
:func:`interior_samples`, owns the margin: it draws points only from the
tube shrunk by ``BOUNDARY_MARGIN_STEPS`` finite-difference steps, away
from the boundary where the confinement mask makes derivatives undefined.
The public FD operators always guard it: they raise
:class:`BoundaryProximityError` for a point within that margin.

:func:`full_verification` does each piece of work once: it draws the
samples and fixes the time step a single time, then evaluates the
stencils in fixed blocks of samples, so memory stays flat in the sample
count; each block's raw residuals land in full-length arrays that are
reduced once, which keeps the reports independent of the block size.
The four reports come back as one list, in the order gauss_B, gauss_E,
faraday, ampere_continuity; a single law's report is
``full_verification(...)[i]``.

Under the ansatz E_z, B_R, B_phi and J_z vanish identically, so a block
evaluates only the nonzero components that a residual reads, through the
per-component kernels of :mod:`.fields`:

    stencil point    components          read by
    R +- dl          E_R, E_phi, J_R     gauss_E, faraday, continuity
    phi +- h         E_R, E_phi, J_phi   gauss_E, faraday, continuity
    z +- dl          E_R, E_phi, B_z     faraday, gauss_B
    t +- dt          B_z, rho            faraday, continuity
    centre           rho                 gauss_E

The zero components are never evaluated or differenced: each would add
an exact +-0.0 to a residual whose magnitude alone is reported.  The
stencil sees five distinct phases (psi, psi at phi +- h, psi at t +- dt)
and five distinct (R, z) points (the centre, R +- dl, z +- dl).  Each
point's mask is computed once per block, and so is each sine and cosine
a kernel reads: sin and cos of the first three phases and sin of the
last two, 8 per sample.  The public field functions call the same
kernels, so the reports are bit-identical to evaluating every neighbour
through them with :func:`fd_div_cylindrical` and :func:`fd_curl_cylindrical`.
The difference formulas are written once, in ``_diff_R``
((1/R)*d(R*f)/dR), ``_diff_phi`` ((1/R)*df/dphi) and ``_diff`` (df/dz,
and df/dR inside the curl); the public operators and the verification
both use them.

Verification is interior-only by construction: surface (delta-function)
contributions of the mask discontinuity at r = r0 are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .fields import (AnsatzParams, _b_z, _charge_density, _e_phi, _e_r, _j_phi, _j_r,
                     mask)

# Points closer than this many FD steps to the tube boundary are never
# sampled, and the FD operators reject them.
BOUNDARY_MARGIN_STEPS = 10.0

DEFAULT_TOLERANCE = 1e-6

# Samples per block of the shared stencil evaluation in full_verification:
# a block's stencil arrays stay cache-sized, and peak memory stays flat in
# the sample count.
_BLOCK_POINTS = 8192


class SamplingError(ValueError):
    """Sampling settings that the residual checks cannot honour for a configuration."""


@dataclass(frozen=True)
class SamplingConfig:
    """Residual-check sampling: point count, RNG seed, and FD step.

    ``h`` is relative: spatial steps are h*R0 in R and z and h radians
    in phi; the time step is h periods / (2*pi).
    """

    n_points: int = 1000
    seed: int = 42
    h: float = 1e-5

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise SamplingError(f"n_points must be >= 1, got {self.n_points}")
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise SamplingError(f"h must be finite and > 0, got {self.h}")


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one equation check at sampled interior points."""

    equation: str            # gauss_B | gauss_E | faraday | ampere_continuity
    n_points: int
    seed: int
    h: float
    max_rel_residual: float
    mean_rel_residual: float
    max_fd_residual: float  # largest |residual| from the FD path (raw units)
    normalization: str      # label of the scale dividing the residuals
    normalization_value: float
    tolerance: float
    passed: bool
    note: str = ""


class BoundaryProximityError(ValueError):
    """Point too close to the mask discontinuity for finite differences."""


def _check_margin(R, z, p: AnsatzParams, dl: float) -> None:
    s = np.sqrt((np.asarray(R, dtype=float) - p.R0) ** 2 + np.asarray(z, dtype=float) ** 2)
    if np.any(np.abs(s - p.r0) < BOUNDARY_MARGIN_STEPS * dl):
        raise BoundaryProximityError(
            f"point within {BOUNDARY_MARGIN_STEPS} FD steps of the tube boundary; "
            "derivatives are undefined across the confinement mask"
        )


def _stencil(field, R, phi, z, h: float, dl):
    """``field`` at the six central-difference neighbours of (R, phi, z).

    Order: R + dl, R - dl, phi + h, phi - h, z + dl, z - dl.
    """
    return (field(R + dl, phi, z), field(R - dl, phi, z),
            field(R, phi + h, z), field(R, phi - h, z),
            field(R, phi, z + dl), field(R, phi, z - dl))


def _diff_R(f_rp, f_rm, R, dl):
    """(1/R)*d(R*f)/dR from f at R +- dl."""
    return ((R + dl) * f_rp - (R - dl) * f_rm) / (2.0 * dl * R)


def _diff_phi(f_pp, f_pm, R, h: float):
    """(1/R)*df/dphi from f at phi +- h."""
    return (f_pp - f_pm) / (2.0 * h * R)


def _diff(f_p, f_m, dl):
    """df/dz from f at z +- dl; df/dR from f at R +- dl."""
    return (f_p - f_m) / (2.0 * dl)


def fd_div_cylindrical(field, R, phi, z, h: float, p: AnsatzParams):
    """Central-difference cylindrical divergence of ``field`` at (R, phi, z).

    ``field(R, phi, z)`` must return the (R, phi, z) components on the
    leading axis.  Steps: h*p.R0 in R and z and h radians in phi.  Points
    within ``BOUNDARY_MARGIN_STEPS`` steps of the tube boundary of ``p``
    raise :class:`BoundaryProximityError`.
    """
    R, dl = np.asarray(R, dtype=float), h * p.R0
    _check_margin(R, z, p, dl)
    f_rp, f_rm, f_pp, f_pm, f_zp, f_zm = _stencil(field, R, phi, z, h, dl)
    return (_diff_R(f_rp[0], f_rm[0], R, dl) + _diff_phi(f_pp[1], f_pm[1], R, h)
            + _diff(f_zp[2], f_zm[2], dl))


def fd_curl_cylindrical(field, R, phi, z, h: float, p: AnsatzParams) -> np.ndarray:
    """Central-difference cylindrical curl; same conventions as the divergence."""
    R, dl = np.asarray(R, dtype=float), h * p.R0
    _check_margin(R, z, p, dl)
    f_rp, f_rm, f_pp, f_pm, f_zp, f_zm = _stencil(field, R, phi, z, h, dl)
    curl_r = _diff_phi(f_pp[2], f_pm[2], R, h) - _diff(f_zp[1], f_zm[1], dl)
    curl_phi = _diff(f_zp[0], f_zm[0], dl) - _diff(f_rp[2], f_rm[2], dl)
    curl_z = _diff_R(f_rp[1], f_rm[1], R, dl) - _diff_phi(f_pp[0], f_pm[0], R, h)
    return np.stack(np.broadcast_arrays(curl_r, curl_phi, curl_z))


def _period(p: AnsatzParams, k: PhysicalConstants) -> float:
    """One period 2*pi/omega, or R0/c for a static configuration."""
    return 2.0 * np.pi / p.omega if p.omega > 0.0 else p.R0 / k.c


def interior_samples(p: AnsatzParams, sampling: SamplingConfig,
                     k: PhysicalConstants = CODATA):
    """Seeded random interior (R, phi, z, t) samples away from the boundary.

    Points are drawn uniformly over the tube cross-section shrunk by
    ``BOUNDARY_MARGIN_STEPS`` FD steps; times cover one full period (or an
    R0/k.c interval for a static configuration).
    """
    rng = np.random.default_rng(sampling.seed)
    s_max = p.r0 - BOUNDARY_MARGIN_STEPS * sampling.h * p.R0
    if s_max <= 0.0:
        raise SamplingError("FD margin exceeds the tube radius; reduce h")
    s = s_max * np.sqrt(rng.uniform(size=sampling.n_points))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=sampling.n_points)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=sampling.n_points)
    t = rng.uniform(0.0, _period(p, k), size=sampling.n_points)
    return p.R0 + s * np.cos(theta), phi, s * np.sin(theta), t


def _report(equation: str, sampling: SamplingConfig, fd_res,
            norm_label: str, norm_value: float, tol: float,
            passed_extra: bool = True, note: str = "") -> ResidualReport:
    fd_abs = np.abs(np.atleast_1d(np.asarray(fd_res, dtype=float)))
    if norm_value == 0.0:
        # Degenerate (zero-amplitude) configuration: residuals are 0/0 and
        # every law holds vacuously.
        rel = np.zeros_like(fd_abs)
        note = (note + " " if note else "") + "zero normalization (E0 = 0); residuals vacuous"
        passed_extra = True
    else:
        rel = fd_abs / norm_value
    max_rel = float(np.max(rel))
    return ResidualReport(
        equation=equation,
        n_points=sampling.n_points,
        seed=sampling.seed,
        h=sampling.h,
        max_rel_residual=max_rel,
        mean_rel_residual=float(np.mean(rel)),
        max_fd_residual=float(np.max(fd_abs)),
        normalization=norm_label,
        normalization_value=norm_value,
        tolerance=tol,
        passed=bool(max_rel < tol) and passed_extra,
        note=note,
    )


def _block_rows(out, R, phi, z, t, p: AnsatzParams, k: PhysicalConstants,
                h: float, dl: float, dt: float) -> None:
    """Write the FD residual of each law at one block of samples into the
    rows of ``out``, in report order.

    A function of its own, so the block's temporaries are freed when it
    returns: peak memory holds one block's stencil, never two, and none
    while the reports are reduced.
    """
    # The stencils see five phases (psi, psi at phi +- h, psi at t +- dt)
    # and five (R, z) points (centre, R +- dl, z +- dl): each point's mask
    # and each sine or cosine a kernel reads is computed once and shared.
    # Only the nonzero components a residual reads are evaluated, so cos
    # at t +- dt is never needed.
    omega_t = p.omega * t
    psi = phi - omega_t
    sin_psi, cos_psi = np.sin(psi), np.cos(psi)
    psi_pp, psi_pm = (phi + h) - omega_t, (phi - h) - omega_t
    sin_pp, cos_pp = np.sin(psi_pp), np.cos(psi_pp)
    sin_pm, cos_pm = np.sin(psi_pm), np.cos(psi_pm)
    sin_tp = np.sin(phi - p.omega * (t + dt))
    sin_tm = np.sin(phi - p.omega * (t - dt))
    R_rp, R_rm = R + dl, R - dl
    h_c = mask(R, z, p)
    h_rp, h_rm = mask(R_rp, z, p), mask(R_rm, z, p)
    h_zp, h_zm = mask(R, z + dl, p), mask(R, z - dl, p)

    # gauss_B: B has only a z-component independent of z, so div B = 0
    out[0] = _diff(_b_z(h_zp, sin_psi, p), _b_z(h_zm, sin_psi, p), dl)

    # gauss_E: FD div E against the hand-derived source rho/eps0
    source = _charge_density(h_c, sin_psi, p, k) / k.eps0
    out[1] = (_diff_R(_e_r(h_rp, sin_psi, p), _e_r(h_rm, sin_psi, p), R, dl)
              + _diff_phi(_e_phi(R, h_c, cos_pp, p), _e_phi(R, h_c, cos_pm, p), R, h)
              - source)

    # faraday: curl E = -2(E0/R0)cos(psi) a_z; dB_z/dt = omega*B0*cos(psi)
    c_r = -_diff(_e_phi(R, h_zp, cos_psi, p), _e_phi(R, h_zm, cos_psi, p), dl)
    c_phi = _diff(_e_r(h_zp, sin_psi, p), _e_r(h_zm, sin_psi, p), dl)
    c_z = (_diff_R(_e_phi(R_rp, h_rp, cos_psi, p), _e_phi(R_rm, h_rm, cos_psi, p), R, dl)
           - _diff_phi(_e_r(h_c, sin_pp, p), _e_r(h_c, sin_pm, p), R, h)
           + (_b_z(h_c, sin_tp, p) - _b_z(h_c, sin_tm, p)) / (2.0 * dt))
    out[2] = np.sqrt(c_r * c_r + c_phi * c_phi + c_z * c_z)

    # continuity: div J = eps0*omega*(E0/R0)*cos(psi) = -drho/dt exactly
    fd_drho = (_charge_density(h_c, sin_tp, p, k)
               - _charge_density(h_c, sin_tm, p, k)) / (2.0 * dt)
    out[3] = (_diff_R(_j_r(R_rp, h_rp, cos_psi, p, k), _j_r(R_rm, h_rm, cos_psi, p, k), R, dl)
              + _diff_phi(_j_phi(R, h_c, sin_pp, p, k), _j_phi(R, h_c, sin_pm, p, k), R, h)
              + fd_drho)


def full_verification(p: AnsatzParams, sampling: SamplingConfig = SamplingConfig(),
                      k: PhysicalConstants = CODATA,
                      tol: float = DEFAULT_TOLERANCE) -> list[ResidualReport]:
    """Run all four checks; the configuration passes iff every report does.

    Reports come in the order gauss_B, gauss_E, faraday, ampere_continuity.
    Faraday passes only when its residual is small AND omega matches 2c/R0
    to ``FARADAY_OMEGA_TOL`` relative: the law holds at exactly one
    frequency, so a detuned configuration must fail.  Raises
    :class:`SamplingError` when ``sampling.h`` leaves no interior sample
    or makes a finite-difference denominator that is not a normal float,
    and when a residual, its maximum or mean, or a normalization is not
    finite, so every report holds finite numbers only.
    """
    h = sampling.h
    dl = h * p.R0
    dt = h * _period(p, k) / (2.0 * np.pi)
    # A subnormal, zero or infinite denominator turns a difference quotient
    # into noise, inf or nan; every R in the tube bounds 2*dl*R and 2*h*R.
    R_span = (p.R0 - p.r0, p.R0 + p.r0)
    denominators = (2.0 * dl, 2.0 * dt, *(2.0 * step * R for step in (dl, h) for R in R_span))
    if not all(np.finfo(float).tiny <= d < np.inf for d in denominators):
        raise SamplingError(
            f"h = {h!r} gives a finite-difference denominator (2*dl, 2*dl*R, 2*h*R or "
            f"2*dt) that is not a normal float at R0 = {p.R0!r} m, omega = {p.omega!r} rad/s")
    R, phi, z, t = interior_samples(p, sampling, k=k)

    # An extreme but finite configuration can overflow a residual or its
    # quotient by the normalization; the check after this block turns that
    # into a SamplingError.
    with np.errstate(over="ignore", invalid="ignore"):
        # FD residual of each law, in report order
        rows = np.empty((4, sampling.n_points))
        for start in range(0, sampling.n_points, _BLOCK_POINTS):
            b = slice(start, start + _BLOCK_POINTS)
            _block_rows(rows[:, b], R[b], phi[b], z[b], t[b], p, k, h, dl, dt)

        # Faraday holds at exactly one frequency, so a detuned configuration
        # must fail whatever its residual.
        omega_ok = p.is_faraday(k)
        note = "" if omega_ok else \
            f"omega detuned from 2c/R0 by {p.omega * p.R0 / (2.0 * k.c) - 1.0:+.3e} relative"
        reports = [
            _report("gauss_B", sampling, rows[0], "E0/(c*R0)", p.E0 / (k.c * p.R0), tol),
            _report("gauss_E", sampling, rows[1], "E0/R0", p.E0 / p.R0, tol),
            _report("faraday", sampling, rows[2], "E0/R0", p.E0 / p.R0, tol,
                    passed_extra=omega_ok, note=note),
            _report("ampere_continuity", sampling, rows[3],
                    "eps0*omega*E0/R0", k.eps0 * p.omega * p.E0 / p.R0, tol),
        ]
    # The maximum and the mean carry any inf or nan of the samples.
    for r in reports:
        scalars = (r.max_rel_residual, r.mean_rel_residual, r.max_fd_residual,
                   r.normalization_value)
        if not all(map(math.isfinite, scalars)):
            raise SamplingError(
                f"the {r.equation} residual is not finite in float64 at R0 = {p.R0!r} m, "
                f"E0 = {p.E0!r} V/m, omega = {p.omega!r} rad/s, h = {h!r}")
    return reports

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

:func:`full_verification` evaluates the stencils in blocks of samples,
and each block draws its own samples, so no full-length sample array is
ever held and memory stays flat in the sample count.  The bit-identity
argument: ``default_rng(seed)`` is a PCG64, whose ``uniform`` takes one
64-bit step per double, and :func:`interior_samples` draws n values of
s, then of theta, phi and t.  So the samples ``start:stop`` of
coordinate j are the doubles of a fresh generator advanced
(``bit_generator.advance``) by j*n + start steps, and every block sees,
bit for bit, the samples of the one sequential draw.

A single block (n <= ``_BLOCK_POINTS``) is evaluated inline.  More
blocks run on a pool of one thread per usable CPU, at most
``_MAX_WORKERS`` (numpy releases the GIL in its loops); the pool's
blocks are short enough that the stencils in flight stay at two full
blocks' worth whatever its size.  Each block writes its own columns of
one (4, n) array of raw residuals, one row per law.  Once every block
has finished, that array is reduced
row-wise and in place: |residual|, its maximum, the division by each
law's normalization, and the maximum and mean of the result, with no
full-length temporary.  A row-wise maximum or mean of that C-ordered
array equals, bit for bit, the reduction of the row on its own, so the
reports depend neither on the block length nor on the number of
threads.  The four reports come back as one list, in the order gauss_B,
gauss_E, faraday, ampere_continuity; a single law's report is
``full_verification(...)[i]``.  A step ``h`` whose difference roundoff,
about ``_ROUNDOFF_FACTOR``*eps/h*R0/(R0 - r0) relative, exceeds the
tolerance is a :class:`SamplingError`, not a failed law.

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
an exact +-0.0 to a residual whose magnitude alone is reported.  Each
term that several differences share is computed once per block:

    shared term                       computed by      read by
    (R - R0)^2, z^2 at the centre     _stencil_masks   3 masks each
    masks at the 5 (R, z) points      _stencil_masks   every kernel call
    sin at 5 phases, cos at 3         _stencil_trig    every kernel call
    R +- dl, 2*dl*R, 2*h*R, 2*dl      _steps           every difference

The five phases are psi, psi at phi +- h and psi at t +- dt, and the
five points the centre, R +- dl and z +- dl: 8 sines and cosines per
sample.  A kernel called with a pair of phase factors (or of points) on
a leading axis returns the pair and evaluates the amplitude they share
once; E_phi and J_phi, for instance, form (1 + R/R0) once per call.  The
public field functions call the same kernels, so the reports are
bit-identical to evaluating every neighbour through them with
:func:`fd_div_cylindrical` and :func:`fd_curl_cylindrical`.  The
difference formulas are written once, in ``_diff`` (a central difference
over a given denominator: df/dz, df/dR, (1/R)*df/dphi, df/dt) and
``_diff_R`` ((1/R)*d(R*f)/dR); the public operators and the verification
both use them.

Verification is interior-only by construction: surface (delta-function)
contributions of the mask discontinuity at r = r0 are out of scope.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .fields import (AnsatzParams, _b_z, _charge_density, _e_phi, _e_r, _inside, _j_phi,
                     _j_r)
from .geometry import toroidal_to_cylindrical
from .scalar import DEFAULT_TOLERANCE, SamplingConfig, SamplingError

# Points closer than this many FD steps to the tube boundary are never
# sampled, and the FD operators reject them.
BOUNDARY_MARGIN_STEPS = 10.0

# A residual's relative roundoff is at most about this factor times eps/h
# times R0/(R0 - r0), the largest R0/R in the tube.  Measured: at most
# 10.5 over r0/R0 from 0.05 to 0.99, h from 1e-12 to 1e-8, R0 from 1e-15
# to 1 m and E0 from 1 to 1e20 V/m, tuned and detuned, 1e3 and 1e5 samples.
_ROUNDOFF_FACTOR = 12.0

# Samples per block of the shared stencil evaluation in full_verification:
# a block's stencil arrays stay cache-sized, and peak memory stays flat in
# the sample count.
_BLOCK_POINTS = 8192

# A many-block verification runs its blocks on a pool of one thread per
# usable CPU, at most _MAX_WORKERS.  The pool's blocks hold
# 2*_BLOCK_POINTS/workers samples (at most _BLOCK_POINTS), so the stencils
# in flight cover 2*_BLOCK_POINTS samples whatever the CPU count, and peak
# memory stays flat in it too.  The cap keeps a block at 2048 samples or
# more, where a block costs within 4% per sample of a full one; at 1024
# samples its fixed cost, about 0.3 ms, makes that 40% (one thread).
_MAX_WORKERS = 8

# (ThreadPoolExecutor, block length), created on first use.
_pool = None
_pool_lock = threading.Lock()


def _make_pool(workers: int):
    """A pool of ``workers`` threads and the block length it runs."""
    from concurrent.futures import ThreadPoolExecutor
    return (ThreadPoolExecutor(workers, thread_name_prefix="toroidal_em-block"),
            min(_BLOCK_POINTS, 2 * _BLOCK_POINTS // workers))


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity masks on this platform
                cpus = os.cpu_count() or 1
            _pool = _make_pool(min(cpus, _MAX_WORKERS))
        return _pool


def _forget_pool() -> None:
    """A forked child has none of the parent's pool threads, and a lock some
    thread held at the fork stays held: start afresh on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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


def _steps(R, h: float, dl):
    """Terms every difference at R shares: the pair (R + dl, R - dl) on a
    leading axis, and the denominators 2*dl*R, 2*h*R and 2*dl."""
    return np.add.outer((dl, -dl), R), 2.0 * dl * R, 2.0 * h * R, 2.0 * dl


def _diff(f, den):
    """Central difference (f[0] - f[1])/den of the pair f at +- one step.

    df/dz and df/dR over den = 2*dl, (1/R)*df/dphi over 2*h*R, and df/dt
    over 2*dt.
    """
    return (f[0] - f[1]) / den


def _diff_R(f, R_pm, den_R):
    """(1/R)*d(R*f)/dR from the pair f at R_pm = (R + dl, R - dl); den_R = 2*dl*R."""
    return (R_pm[0] * f[0] - R_pm[1] * f[1]) / den_R


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
    R_pm, den_R, den_phi, den_z = _steps(R, h, dl)
    return (_diff_R((f_rp[0], f_rm[0]), R_pm, den_R) + _diff((f_pp[1], f_pm[1]), den_phi)
            + _diff((f_zp[2], f_zm[2]), den_z))


def fd_curl_cylindrical(field, R, phi, z, h: float, p: AnsatzParams) -> np.ndarray:
    """Central-difference cylindrical curl; same conventions as the divergence."""
    R, dl = np.asarray(R, dtype=float), h * p.R0
    _check_margin(R, z, p, dl)
    f_rp, f_rm, f_pp, f_pm, f_zp, f_zm = _stencil(field, R, phi, z, h, dl)
    R_pm, den_R, den_phi, den_z = _steps(R, h, dl)
    curl_r = _diff((f_pp[2], f_pm[2]), den_phi) - _diff((f_zp[1], f_zm[1]), den_z)
    curl_phi = _diff((f_zp[0], f_zm[0]), den_z) - _diff((f_rp[2], f_rm[2]), den_z)
    curl_z = _diff_R((f_rp[1], f_rm[1]), R_pm, den_R) - _diff((f_pp[0], f_pm[0]), den_phi)
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
    return _samples(p, sampling, k, _s_max(p, sampling.h), 0, sampling.n_points)


def _s_max(p: AnsatzParams, h: float) -> float:
    """Radius of the sampled cross-section: the tube shrunk by the FD margin."""
    s_max = p.r0 - BOUNDARY_MARGIN_STEPS * h * p.R0
    if s_max <= 0.0:
        raise SamplingError("FD margin exceeds the tube radius; reduce h")
    return s_max


def _samples(p: AnsatzParams, sampling: SamplingConfig, k: PhysicalConstants,
             s_max: float, start: int, stop: int):
    """Samples ``start:stop`` of :func:`interior_samples`, drawn on their own.

    The seeded PCG64 draws n uniforms per coordinate, in the order s, theta,
    phi, t, one 64-bit step each; advancing it to step j*n + start before
    coordinate j gives those samples bit for bit.
    """
    n, m = sampling.n_points, stop - start
    rng = np.random.default_rng(sampling.seed)
    if start:
        rng.bit_generator.advance(start)

    def uniform(high):
        u = rng.uniform(0.0, high, size=m)
        if m < n:  # on to sample ``start`` of the next coordinate
            rng.bit_generator.advance(n - m)
        return u

    s = s_max * np.sqrt(uniform(1.0))
    theta = uniform(2.0 * np.pi)
    phi = uniform(2.0 * np.pi)
    t = uniform(_period(p, k))
    R, z = toroidal_to_cylindrical(s, theta, p.geometry)
    return R, phi, z, t


def _reports(rows, sampling: SamplingConfig, laws, tol: float) -> list[ResidualReport]:
    """One report per row of raw FD residuals, reduced row-wise in place.

    ``laws`` holds (equation, normalization label, normalization value,
    passed_extra, note) per row.  ``rows`` is overwritten with the
    relative residuals |residual|/normalization; its row-wise maxima and
    means equal those of each row on its own, bit for bit.
    """
    np.abs(rows, out=rows)
    max_fd = rows.max(axis=1)
    for row, (_, _, norm_value, _, _) in zip(rows, laws):
        if norm_value == 0.0:
            row.fill(0.0)
        else:
            row /= norm_value
    reports = []
    for law, max_rel, mean_rel, max_abs in zip(laws, rows.max(axis=1).tolist(),
                                               rows.mean(axis=1).tolist(), max_fd.tolist()):
        equation, norm_label, norm_value, passed_extra, note = law
        if norm_value == 0.0:
            # Degenerate (zero-amplitude) configuration: residuals are 0/0 and
            # every law holds vacuously.
            note = (note + " " if note else "") + "zero normalization (E0 = 0); residuals vacuous"
            passed_extra = True
        reports.append(ResidualReport(
            equation=equation,
            n_points=sampling.n_points,
            seed=sampling.seed,
            h=sampling.h,
            max_rel_residual=max_rel,
            mean_rel_residual=mean_rel,
            max_fd_residual=max_abs,
            normalization=norm_label,
            normalization_value=norm_value,
            tolerance=tol,
            passed=max_rel < tol and passed_extra,
            note=note,
        ))
    return reports


def _stencil_masks(R, R_pm, z, p: AnsatzParams, dl: float):
    """Masks at the centre, at the pair R +- dl and at the pair z +- dl.

    The squares of R - R0 and of z at the centre are each computed once
    and read by three masks.
    """
    dR2, z2 = (R - p.R0) ** 2, z**2
    return (_inside(dR2, z2, p), _inside((R_pm - p.R0) ** 2, z2, p),
            _inside(dR2, np.add.outer((dl, -dl), z) ** 2, p))


def _stencil_trig(phi, t, p: AnsatzParams, h: float, dt: float):
    """sin of the phase psi at phi + h, phi - h, the centre, t + dt and
    t - dt, on a leading axis, and cos at the first three."""
    psi = np.empty((5, np.size(phi)))
    np.subtract(np.add.outer((h, -h, 0.0), phi), p.omega * t, out=psi[:3])
    np.subtract(phi, p.omega * np.add.outer((dt, -dt), t), out=psi[3:])
    return np.sin(psi), np.cos(psi[:3])


def _block_rows(out, R, phi, z, t, p: AnsatzParams, k: PhysicalConstants,
                h: float, dl: float, dt: float) -> None:
    """Write the FD residual of each law at one block of samples into the
    rows of ``out``, in report order.

    A function of its own, so the block's temporaries are freed when it
    returns: peak memory holds one block's stencil per thread, never two,
    and none while the reports are reduced.
    """
    # Each shared term is computed once: the masks at the five (R, z)
    # points, the sines and cosines at the five phases, R +- dl and the
    # denominators.  A kernel called with a pair of phase factors, or of
    # points, on a leading axis returns the pair, and evaluates an
    # amplitude shared by the pair once.
    R_pm, den_R, den_phi, den_z = _steps(R, h, dl)
    den_t = 2.0 * dt
    h_c, h_R, h_z = _stencil_masks(R, R_pm, z, p, dl)
    sin, cos = _stencil_trig(phi, t, p, h, dt)
    sin_psi, cos_psi = sin[2], cos[2]
    rho = _charge_density(h_c, sin[2:], p, k)  # at psi, t + dt, t - dt

    # gauss_B: B has only a z-component independent of z, so div B = 0
    out[0] = _diff(_b_z(h_z, sin_psi, p), den_z)

    # gauss_E: FD div E against the hand-derived source rho/eps0
    out[1] = (_diff_R(_e_r(h_R, sin_psi, p), R_pm, den_R)
              + _diff(_e_phi(R, h_c, cos[:2], p), den_phi)
              - rho[0] / k.eps0)

    # faraday: curl E = -2(E0/R0)cos(psi) a_z; dB_z/dt = omega*B0*cos(psi)
    c_r = -_diff(_e_phi(R, h_z, cos_psi, p), den_z)
    c_phi = _diff(_e_r(h_z, sin_psi, p), den_z)
    c_z = (_diff_R(_e_phi(R_pm, h_R, cos_psi, p), R_pm, den_R)
           - _diff(_e_r(h_c, sin[:2], p), den_phi)
           + _diff(_b_z(h_c, sin[3:], p), den_t))
    out[2] = np.sqrt(c_r * c_r + c_phi * c_phi + c_z * c_z)

    # continuity: div J = eps0*omega*(E0/R0)*cos(psi) = -drho/dt exactly
    out[3] = (_diff_R(_j_r(R_pm, h_R, cos_psi, p, k), R_pm, den_R)
              + _diff(_j_phi(R, h_c, sin[:2], p, k), den_phi)
              + _diff(rho[1:], den_t))


def full_verification(p: AnsatzParams, sampling: SamplingConfig = SamplingConfig(),
                      k: PhysicalConstants = CODATA,
                      tol: float = DEFAULT_TOLERANCE) -> list[ResidualReport]:
    """Run all four checks; the configuration passes iff every report does.

    Reports come in the order gauss_B, gauss_E, faraday, ampere_continuity.
    Faraday passes only when its residual is small AND omega matches 2c/R0
    to ``FARADAY_OMEGA_TOL`` relative: the law holds at exactly one
    frequency, so a detuned configuration must fail.  Raises
    :class:`SamplingError` when ``sampling.h`` leaves no interior sample,
    makes a finite-difference denominator that is not a normal float, or
    gives a roundoff floor (about 12*eps/h*R0/(R0 - r0)) above ``tol``, and
    when a residual, its maximum or mean, or a normalization is not
    finite, so every report holds finite numbers only.
    """
    h = sampling.h
    dl = h * p.R0
    dt = h * _period(p, k) / (2.0 * np.pi)
    # A subnormal, zero or infinite denominator turns a difference quotient
    # into noise, inf or nan; every R in the tube bounds 2*dl*R and 2*h*R.
    R_span = (p.R0 - p.r0, p.R0 + p.r0)
    denominators = (2.0 * dl, 2.0 * dt, *(2.0 * step * R for step in (dl, h) for R in R_span))
    if not all(sys.float_info.min <= d < math.inf for d in denominators):
        raise SamplingError(
            f"h = {h!r} gives a finite-difference denominator (2*dl, 2*dl*R, 2*h*R or "
            f"2*dt) that is not a normal float at R0 = {p.R0!r} m, omega = {p.omega!r} rad/s")
    # Below this floor a residual cannot tell the law from difference roundoff.
    floor = _ROUNDOFF_FACTOR * sys.float_info.epsilon / h * p.R0 / (p.R0 - p.r0)
    if floor > tol:
        raise SamplingError(
            f"h = {h!r} gives a finite-difference roundoff floor of {floor:.1e} relative "
            f"at r0/R0 = {p.r0 / p.R0:.3g}, above the tolerance {tol!r}; "
            "use a larger h or a looser tolerance")
    s_max = _s_max(p, h)
    n = sampling.n_points
    rows = np.empty((4, n))  # FD residual of each law, in report order

    def fill(start, stop):
        _block_rows(rows[:, start:stop], *_samples(p, sampling, k, s_max, start, stop),
                    p, k, h, dl, dt)

    def fill_block(start):
        # np.errstate is context-local: a pool thread enters it itself
        with np.errstate(over="ignore", invalid="ignore"):
            fill(start, min(start + block, n))

    # An extreme but finite configuration can overflow a residual or its
    # quotient by the normalization; the check after this block turns that
    # into a SamplingError.
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= _BLOCK_POINTS:
            fill(0, n)
        else:
            # Each block writes its own columns of rows; reading every result
            # re-raises the first exception of any block.
            pool, block = _executor()
            list(pool.map(fill_block, range(0, n, block)))

        # Faraday holds at exactly one frequency, so a detuned configuration
        # must fail whatever its residual.
        omega_ok = p.is_faraday(k)
        note = "" if omega_ok else \
            f"omega detuned from 2c/R0 by {p.omega * p.R0 / (2.0 * k.c) - 1.0:+.3e} relative"
        reports = _reports(rows, sampling, [
            ("gauss_B", "E0/(c*R0)", p.E0 / (k.c * p.R0), True, ""),
            ("gauss_E", "E0/R0", p.E0 / p.R0, True, ""),
            ("faraday", "E0/R0", p.E0 / p.R0, omega_ok, note),
            ("ampere_continuity", "eps0*omega*E0/R0", k.eps0 * p.omega * p.E0 / p.R0, True, ""),
        ], tol)
    # The maximum and the mean carry any inf or nan of the samples.
    for r in reports:
        scalars = (r.max_rel_residual, r.mean_rel_residual, r.max_fd_residual,
                   r.normalization_value)
        if not all(map(math.isfinite, scalars)):
            raise SamplingError(
                f"the {r.equation} residual is not finite in float64 at R0 = {p.R0!r} m, "
                f"E0 = {p.E0!r} V/m, omega = {p.omega!r} rad/s, h = {h!r}")
    return reports

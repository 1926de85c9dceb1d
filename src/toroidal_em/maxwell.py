"""Maxwell-equation residual verification for the torus ansatz.

Each of the four laws has one residual, computed with complex-step
derivatives at seeded random interior (point, time) samples:

* gauss_B: div B, an identity inside the tube (see below);
* gauss_E: div E minus the hand-derived source rho/eps0;
* faraday: curl E + dB/dt, which is (2E0/R0)*d*cos(psi) for the
  relative detune d = omega*R0/(2c) - 1: the law holds at exactly
  omega = 2c/R0, and the normalized residual reads twice any detune;
* ampere_continuity: div J plus d(rho)/dt.

The complex step takes f'(x) = Im f(x + i*delta)/delta with no
subtraction, so each derivative is exact to roundoff whatever delta
(Lyness & Moler, SIAM J. Numer. Anal. 4(2), 1967; Squire & Trapp, SIAM
Rev. 40(1), 1998).  The kernels of :mod:`.fields` are analytic in R and in
the phase psi = phi - omega*t: products, R/R0, c/R, sin and cos.  So R
moves to R*(1 + i*delta) for d/dR, and psi to psi + i*delta for d/dphi =
d/dpsi and d/dt = -omega*d/dpsi.  The mask is not analytic; it is
evaluated at the real point, which never moves, so every derivative is
one of the interior formula and a sample may lie anywhere in the tube.
Every kernel reads z only through the mask, so each z-derivative is 0:
the R and phi components of curl E vanish, and div B = dB_z/dz is 0.0 at
every sample by construction.  The gauss_B report says so in its note;
it is kept as the law's record, not as evidence.

The closed forms that the field kernels hold (div E, curl E, J from
Ampere-Maxwell, continuity) are proved once, symbolically, by the sympy
audit in ``tests/test_maxwell_symbolic.py``; no residual here re-types
them, so every residual compares two separately written things and can
fail.

Each residual is normalized by the amplitude of the terms it differences,
so that a passing check means "the law holds to ~1e-12 of the terms
involved" independent of amplitude and of SI magnitudes: E0/R0 for
gauss_E and faraday, and for continuity eps0*E0*(omega + c/R0)/R0, the
J_R amplitude at R0, which stays finite at omega = 0.  Only a zero
amplitude E0 = 0 makes the residuals vacuous, and the notes say so.

:func:`full_verification` evaluates the residuals in blocks of samples,
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
blocks are short enough that the temporaries in flight stay at two full
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
``full_verification(...)[i]``.

Under the ansatz E_z, B_R, B_phi and J_z vanish identically, so a block
evaluates only the nonzero components that a residual reads, through the
per-component kernels of :mod:`.fields`, with one mask and one sin/cos
pair per sample.  For delta <= 1e-8 the complex sine and cosine are
exactly s + i*delta*c and c - i*delta*s in float64 (cosh(delta) rounds to
1 and sinh(delta) to delta), so the pair gives both complex phase
factors.  Verification is interior-only: surface (delta-function)
contributions of the mask discontinuity at r = r0 are out of scope.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .fields import (AnsatzParams, _b_z, _charge_density, _e_phi, _e_r, _inside, _j_phi,
                     _j_r)
from .geometry import toroidal_to_cylindrical
from .scalar import DEFAULT_TOLERANCE, SamplingConfig, SamplingError

# The imaginary step of every complex-step derivative: at most 1e-8, so the
# complex sine and cosine of psi + i*_DELTA are s + i*_DELTA*c and
# c - i*_DELTA*s exactly and the O(_DELTA^2) truncation is far below
# roundoff; a power of two, so dividing by it is exact.
_DELTA = 2.0**-30

# Samples per block of the verification in full_verification: a block's
# temporaries stay cache-sized, and peak memory stays flat in the sample
# count.
_BLOCK_POINTS = 8192

# A many-block verification runs its blocks on a pool of one thread per
# usable CPU, at most _MAX_WORKERS.  The pool's blocks hold
# 2*_BLOCK_POINTS/workers samples (at most _BLOCK_POINTS), so the
# temporaries in flight cover 2*_BLOCK_POINTS samples whatever the CPU
# count, and peak memory stays flat in it too.  The cap keeps a block at
# 2048 samples or more, where a block costs within 4% per sample of a full
# one; at 1024 samples its fixed cost, about 0.3 ms, makes that 40% (one
# thread).
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
    h: float                 # SamplingConfig.h, echoed; no derivative reads it
    max_rel_residual: float
    mean_rel_residual: float
    max_fd_residual: float  # largest raw |residual| (name kept for the JSON schema)
    normalization: str      # label of the scale dividing the residuals
    normalization_value: float
    tolerance: float
    passed: bool
    note: str = ""


def _period(p: AnsatzParams, k: PhysicalConstants) -> float:
    """One period 2*pi/omega, or R0/c for a static configuration."""
    return 2.0 * np.pi / p.omega if p.omega > 0.0 else p.R0 / k.c


def interior_samples(p: AnsatzParams, sampling: SamplingConfig,
                     k: PhysicalConstants = CODATA):
    """Seeded random interior (R, phi, z, t) samples.

    Points are drawn uniformly over the tube cross-section; times cover
    one full period (or an R0/k.c interval for a static configuration).
    """
    return _samples(p, sampling, k, 0, sampling.n_points)


def _samples(p: AnsatzParams, sampling: SamplingConfig, k: PhysicalConstants,
             start: int, stop: int):
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

    s = p.r0 * np.sqrt(uniform(1.0))
    theta = uniform(2.0 * np.pi)
    phi = uniform(2.0 * np.pi)
    t = uniform(_period(p, k))
    R, z = toroidal_to_cylindrical(s, theta, p.geometry)
    return R, phi, z, t


def _reports(rows, sampling: SamplingConfig, laws, tol: float,
             vacuous: bool) -> list[ResidualReport]:
    """One report per row of raw residuals, reduced row-wise in place.

    ``laws`` holds (equation, normalization label, normalization value,
    note) per row; ``vacuous`` marks a zero-amplitude configuration, whose
    residuals are all 0 and whose laws hold vacuously.  ``rows`` is
    overwritten with the relative residuals |residual|/normalization; its
    row-wise maxima and means equal those of each row on its own, bit for
    bit.
    """
    np.abs(rows, out=rows)
    max_raw = rows.max(axis=1)
    if not vacuous:
        for row, law in zip(rows, laws):
            row /= law[2]
    reports = []
    for law, max_rel, mean_rel, max_abs in zip(laws, rows.max(axis=1).tolist(),
                                               rows.mean(axis=1).tolist(), max_raw.tolist()):
        equation, norm_label, norm_value, note = law
        if vacuous:
            note = "; ".join(filter(None, (note, "zero normalization (E0 = 0); residuals vacuous")))
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
            passed=max_rel < tol,
            note=note,
        ))
    return reports


def _d(f, step):
    """Im f/step: the derivative of f along the imaginary step of its input."""
    return f.imag / step


def _block_rows(out, R, phi, z, t, p: AnsatzParams, k: PhysicalConstants) -> None:
    """Write the residual of each law at one block of samples into the rows
    of ``out``, in report order.

    A function of its own, so the block's temporaries are freed when it
    returns: peak memory holds one block's temporaries per thread, never
    two, and none while the reports are reduced.
    """
    h = _inside((R - p.R0) ** 2, z**2, p)
    psi = phi - p.omega * t
    sin, cos = np.sin(psi), np.cos(psi)
    # the phase factors at psi + i*delta, and R at R*(1 + i*delta)
    sin_c, cos_c = sin + (1j * _DELTA) * cos, cos - (1j * _DELTA) * sin
    R_c = R * (1.0 + 1j * _DELTA)
    dR = R_c.imag
    # A kernel is a real amplitude times its phase factor, so its real part
    # at psi + i*delta is its value at psi, bit for bit.
    rho = _charge_density(h, sin_c, p, k)
    e_r = _e_r(h, sin_c, p)

    # gauss_B: B_z reads z only through the mask, so div B = dB_z/dz = 0
    out[0] = 0.0

    # gauss_E: div E = (1/R)*d(R*E_R)/dR + (1/R)*dE_phi/dphi against rho/eps0
    out[1] = ((_d(R_c * e_r.real, dR) + _d(_e_phi(R, h, cos_c, p), _DELTA)) / R
              - rho.real / k.eps0)

    # faraday: curl E = ((1/R)*d(R*E_phi)/dR - (1/R)*dE_R/dphi) a_z, and
    # dB_z/dt = -omega*dB_z/dpsi; the R and phi components of curl E are
    # z-derivatives, 0
    out[2] = ((_d(R_c * _e_phi(R_c, h, cos, p), dR) - _d(e_r, _DELTA)) / R
              - p.omega * _d(_b_z(h, sin_c, p, k), _DELTA))

    # continuity: div J + drho/dt, with drho/dt = -omega*drho/dpsi
    out[3] = ((_d(R_c * _j_r(R_c, h, cos, p, k), dR) + _d(_j_phi(R, h, sin_c, p, k), _DELTA)) / R
              - p.omega * _d(rho, _DELTA))


def full_verification(p: AnsatzParams, sampling: SamplingConfig = SamplingConfig(),
                      k: PhysicalConstants = CODATA,
                      tol: float = DEFAULT_TOLERANCE) -> list[ResidualReport]:
    """Run all four checks; the configuration passes iff every report does.

    Reports come in the order gauss_B, gauss_E, faraday, ampere_continuity,
    and each passes when its ``max_rel_residual`` is below ``tol``.  A
    detuned omega fails Faraday through its residual, twice the relative
    detune, and the faraday note states the detune whenever it is not
    exactly 0.  ``sampling.h`` is echoed in the reports and read by
    nothing else.  Raises :class:`SamplingError` when a residual, its
    maximum or mean, or a normalization is not finite, so every report
    holds finite numbers only.
    """
    n = sampling.n_points
    rows = np.empty((4, n))  # raw residual of each law, in report order

    def fill(start, stop):
        _block_rows(rows[:, start:stop], *_samples(p, sampling, k, start, stop), p, k)

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

        detune = p.omega * p.R0 / (2.0 * k.c) - 1.0
        reports = _reports(rows, sampling, [
            ("gauss_B", "E0/(c*R0)", p.E0 / (k.c * p.R0),
             "identity: B_z reads z only through the mask"),
            ("gauss_E", "E0/R0", p.E0 / p.R0, ""),
            ("faraday", "E0/R0", p.E0 / p.R0,
             f"omega detuned from 2c/R0 by {detune:+.3e} relative" if detune else ""),
            ("ampere_continuity", "eps0*E0*(omega + c/R0)/R0",
             k.eps0 * p.E0 * (p.omega + k.c / p.R0) / p.R0, ""),
        ], tol, p.E0 == 0.0)
    # The maximum and the mean carry any inf or nan of the samples.
    for r in reports:
        scalars = (r.max_rel_residual, r.mean_rel_residual, r.max_fd_residual,
                   r.normalization_value)
        if not all(map(math.isfinite, scalars)):
            raise SamplingError(
                f"the {r.equation} residual is not finite in float64 at R0 = {p.R0!r} m, "
                f"E0 = {p.E0!r} V/m, omega = {p.omega!r} rad/s")
    return reports

"""Maxwell-equation residual verification for the torus ansatz.

Each of the four laws has one residual, computed with exact derivatives
at seeded random interior (point, time) samples:

* gauss_B: div B, an identity inside the tube (see below);
* gauss_E: div E minus the hand-derived source rho/eps0;
* faraday: curl E + dB/dt, which is (2E0/R0)*d*cos(psi) for the
  relative detune d = omega*R0/(2c) - 1: the law holds at exactly
  omega = 2c/R0, and the normalized residual reads twice any detune;
* ampere_continuity: div J plus d(rho)/dt.

Each kernel of :mod:`.fields` is a real amplitude, which reads R, times
its phase factor, sin or cos of the phase psi = phi - omega*t.  A kernel
is linear in that factor, so its derivative along psi is the same kernel
called on the factor's derivative: cos for sin, -sin for cos.  That gives
d/dphi = d/dpsi and d/dt = -omega*d/dpsi in real arithmetic, bit for bit
what a complex step in psi gives (``tests/complex_step_reference.py``
keeps that form, and a property test holds the two equal).  The
amplitudes are not linear in R (R/R0, c/R), so d/dR is a complex step:
f'(R) = Im f(R*(1 + i*delta))/(R*delta), with no subtraction, so it is
exact to roundoff for any small delta (Lyness & Moler, SIAM J. Numer.
Anal. 4(2), 1967; Squire & Trapp, SIAM Rev. 40(1), 1998).  The kernels
hold the interior formulas and read neither the mask nor z.  Every
sample lies strictly inside the tube (s = r0*sqrt(u) with u < 1), where
the mask reads 1.0, so no mask is evaluated and every derivative is one
of the interior formula.  Each z-derivative is 0: the R and phi
components of curl E vanish, and div B = dB_z/dz is 0.0 at every sample
by construction.  The gauss_B report says so in its note; it is kept as
the law's record, not as evidence.

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
argument: ``default_rng(seed)`` is a PCG64, whose ``random`` takes one
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
one (4, n) array, one row per law, and reduces them in place on its own
thread: |residual|, its per-law maximum, the division by each law's
normalization, and the per-law maximum of the result, both maxima kept
in the block's row of a small preallocated array.  Once every block has
finished, what is left is the maximum of those per-block maxima and the
row-wise mean of the (4, n) array.  A maximum is exact in any grouping
and carries any nan; the elementwise |.| and division are the same
operations whatever the block; and a row-wise mean of that C-ordered
array equals, bit for bit, the mean of the row on its own.  So the
reports depend neither on the block length nor on the number of
threads.  The four reports come back as one list, in the order gauss_B,
gauss_E, faraday, ampere_continuity; a single law's report is
``full_verification(...)[i]``.

Under the ansatz E_z, B_R, B_phi and J_z vanish identically, so a block
evaluates only the nonzero components that a residual reads, through the
per-component kernels of :mod:`.fields`.  Each sample costs three
trigonometric calls: the one cosine of its R = R0 + s*cos(theta) (no z
is formed), and the one sine and one cosine of its phase, which serve as
the phase factors and as their derivatives.  Complex arithmetic is left
to the three R-steps, of E_R, E_phi and J_R.  A block draws its samples
and forms R and psi in place, in buffers it already holds.
Verification is interior-only: surface (delta-function) contributions of
the mask discontinuity at r = r0 are out of scope.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, PhysicalConstants
from .fields import AnsatzParams, _b_z, _charge_density, _e_phi, _e_r, _j_phi, _j_r
from .geometry import _cylindrical_R, toroidal_to_cylindrical
from .scalar import DEFAULT_TOLERANCE, SamplingConfig, SamplingError

# The relative imaginary step of the complex-step R-derivatives, R ->
# R*(1 + i*_DELTA): a power of two, so R*_DELTA and the division by it are
# exact, and small enough that 1 + _DELTA**2 rounds to 1, so the
# O(_DELTA^2) truncation vanishes.  Every power from 2^-27 down then gives
# the same residuals, bit for bit, until the imaginary parts underflow.
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
    s, theta, phi, t = _samples(p, sampling, k, 0, sampling.n_points)
    R, z = toroidal_to_cylindrical(s, theta, p.geometry)
    return R, phi, z, t


def _samples(p: AnsatzParams, sampling: SamplingConfig, k: PhysicalConstants,
             start: int, stop: int):
    """Samples ``start:stop`` of :func:`interior_samples`, drawn on their own,
    as toroidal (s, theta, phi, t): the caller maps them to the cylindrical
    coordinates it reads.

    The seeded PCG64 draws n uniforms per coordinate, in the order s, theta,
    phi, t, one 64-bit step each; advancing it to step j*n + start before
    coordinate j gives those samples bit for bit.
    """
    n, m = sampling.n_points, stop - start
    rng = np.random.default_rng(sampling.seed)
    if start:
        rng.bit_generator.advance(start)

    def uniform(high):
        # rng.uniform(0, high) is 0 + high*u for the u that rng.random
        # draws, so u*high, scaled in place, holds the same bits
        u = rng.random(m)
        if m < n:  # on to sample ``start`` of the next coordinate
            rng.bit_generator.advance(n - m)
        u *= high
        return u

    s = uniform(1.0)
    np.sqrt(s, out=s)
    s *= p.r0  # r0*sqrt(u)
    theta = uniform(2.0 * np.pi)
    phi = uniform(2.0 * np.pi)
    t = uniform(_period(p, k))
    return s, theta, phi, t


def _reports(peaks, means, sampling: SamplingConfig, laws, tol: float,
             vacuous: bool) -> list[ResidualReport]:
    """One report per law, from the maxima of every block and the means.

    ``peaks[i]`` holds block i's per-law maxima of |residual| and of
    |residual|/normalization; ``means`` holds the per-law mean of the
    latter over every sample.  ``laws`` holds (equation, normalization
    label, normalization value, note) per law; ``vacuous`` marks a
    zero-amplitude configuration, whose residuals are all 0 and whose laws
    hold vacuously.  NumPy's maximum is exact and carries any nan, so the
    maxima over the blocks are those over every sample, bit for bit.
    """
    max_raw, max_rels = peaks.max(axis=0).tolist()
    reports = []
    for law, max_rel, mean_rel, max_abs in zip(laws, max_rels, means.tolist(), max_raw):
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


def _block_rows(out, R, phi, t, p: AnsatzParams, k: PhysicalConstants) -> None:
    """Write the residual of each law at one block of samples into the rows
    of ``out``, in report order.

    A function of its own, so the block's temporaries are freed when it
    returns: peak memory holds one block's temporaries per thread, never
    two, and none while the block is reduced.  ``R``, ``phi`` and ``t``
    are left as they were.
    """
    psi = p.omega * t
    np.subtract(phi, psi, out=psi)  # phi - omega*t
    cos = np.cos(psi)
    sin = np.sin(psi, out=psi)
    # A kernel is a real amplitude times its phase factor, so its
    # psi-derivative is the kernel of the factor's derivative: d(sin)/dpsi =
    # cos and d(cos)/dpsi = -sin.  R moves to R*(1 + i*delta) for d/dR.
    R_c = R * (1.0 + 1j * _DELTA)
    dR = R_c.imag
    e_r = _e_r(sin, p)

    # gauss_B: the kernels do not read z, so div B = dB_z/dz = 0
    out[0] = 0.0

    # gauss_E: div E = (1/R)*d(R*E_R)/dR + (1/R)*dE_phi/dphi against rho/eps0
    out[1] = ((_d(R_c * e_r, dR) + _e_phi(R, -sin, p)) / R
              - _charge_density(sin, p, k) / k.eps0)

    # faraday: curl E = ((1/R)*d(R*E_phi)/dR - (1/R)*dE_R/dphi) a_z, and
    # dB_z/dt = -omega*dB_z/dpsi; the R and phi components of curl E are
    # z-derivatives, 0
    out[2] = ((_d(R_c * _e_phi(R_c, cos, p), dR) - _e_r(cos, p)) / R
              - p.omega * _b_z(cos, p, k))

    # continuity: div J + drho/dt, with drho/dt = -omega*drho/dpsi
    out[3] = ((_d(R_c * _j_r(R_c, cos, p, k), dR) + _j_phi(R, cos, p, k)) / R
              - p.omega * _charge_density(cos, p, k))


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
    detune = p.omega * p.R0 / (2.0 * k.c) - 1.0
    laws = [
        ("gauss_B", "E0/(c*R0)", p.E0 / (k.c * p.R0),
         "identity: B_z reads z only through the mask"),
        ("gauss_E", "E0/R0", p.E0 / p.R0, ""),
        ("faraday", "E0/R0", p.E0 / p.R0,
         f"omega detuned from 2c/R0 by {detune:+.3e} relative" if detune else ""),
        ("ampere_continuity", "eps0*E0*(omega + c/R0)/R0",
         k.eps0 * p.E0 * (p.omega + k.c / p.R0) / p.R0, ""),
    ]
    vacuous = p.E0 == 0.0
    pool, block = (None, n) if n <= _BLOCK_POINTS else _executor()
    rows = np.empty((4, n))  # |residual|/normalization of each law, in report order
    peaks = np.empty((-(-n // block), 2, 4))  # per block: max |residual|, max relative

    def fill(i):
        start = i * block
        s, theta, phi, t = _samples(p, sampling, k, start, min(start + block, n))
        R = _cylindrical_R(s, theta, p.geometry, out=theta)  # the laws read no z
        del s, theta  # not held while the block's residuals are evaluated
        out = rows[:, start:start + block]
        # An extreme but finite configuration can overflow a residual or its
        # quotient by the normalization; the finiteness check below turns
        # that into a SamplingError.  np.errstate is context-local: a pool
        # thread enters it itself.
        with np.errstate(over="ignore", invalid="ignore"):
            _block_rows(out, R, phi, t, p, k)
            np.abs(out, out=out)
            out.max(axis=1, out=peaks[i, 0])
            if not vacuous:
                for row, law in zip(out, laws):
                    row /= law[2]
            out.max(axis=1, out=peaks[i, 1])

    if pool is None:
        fill(0)
    else:
        # Each block writes its own columns of rows and its own row of
        # peaks; reading every result re-raises the first exception of any
        # block.
        list(pool.map(fill, range(len(peaks))))
    with np.errstate(over="ignore", invalid="ignore"):
        means = rows.mean(axis=1)
    reports = _reports(peaks, means, sampling, laws, tol, vacuous)
    # The maximum and the mean carry any inf or nan of the samples.
    for r in reports:
        scalars = (r.max_rel_residual, r.mean_rel_residual, r.max_fd_residual,
                   r.normalization_value)
        if not all(map(math.isfinite, scalars)):
            raise SamplingError(
                f"the {r.equation} residual is not finite in float64 at R0 = {p.R0!r} m, "
                f"E0 = {p.E0!r} V/m, omega = {p.omega!r} rad/s")
    return reports

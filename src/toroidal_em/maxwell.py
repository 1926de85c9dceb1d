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
by construction.  So no gauss_B residual is stored: its report is built
from 0.0, with the law's normalization and a note that says so; it is
kept as the law's record, not as evidence.

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

Up to ``_INLINE_POINTS`` samples are one block, run on the calling
thread; more are split into equal blocks, which the calling thread and
threads started for the call take in turn from one shared counter (numpy
releases the GIL in its loops).  Each block writes its own columns of
one (3, n) array, one row per law with a residual, and reduces them in
place on its own thread: |residual|, its per-law maximum, the division
by each law's normalization, and the per-law maximum of the result, kept
in the block's row of a small array.  What is left is the maximum of the
per-block maxima and the row-wise mean of the (3, n) array.  A maximum
is exact in any grouping and carries any nan; |.| and the division are
elementwise; and a row-wise mean of that C-ordered array equals, bit for
bit, the mean of the row on its own.  Nor do the rows depend on the
block length, since each complex operand of a product with the stepped R
is named: numpy reuses an unnamed temporary of 256 KiB or more (16,384
complex samples) as the product's output, and its complex multiply into
it rounds differently.  So the reports depend neither on the block
length nor on the number of threads.  The four reports come back in the
order gauss_B, gauss_E, faraday, ampere_continuity.

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

# More than _INLINE_POINTS samples are split into workers*ceil(n/_IN_FLIGHT)
# equal blocks, for one thread per usable CPU, at most _MAX_WORKERS: about
# _IN_FLIGHT samples at most are in flight whatever the sample and CPU counts,
# and every block holds over 1,024 samples, against a fixed cost near 90 us
# (seeding, about 70 numpy calls, a GIL hand-off).  On two CPUs, two threads
# beat one inline block from about 8,192 samples on.
_INLINE_POINTS = 8192
_IN_FLIGHT = 32768
_MAX_WORKERS = 8


def _workers() -> int:
    """Threads of a many-block verification."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _block_length(n: int, workers: int) -> int:
    """Samples per block of an n-sample verification on ``workers`` threads."""
    return n if n <= _INLINE_POINTS else -(-n // (workers * -(-n // _IN_FLIGHT)))


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

    ``peaks[i]`` holds block i's maxima of |residual| and of
    |residual|/normalization for the laws after gauss_B; ``means`` holds
    the mean of the latter over every sample.  gauss_B's are those of a row
    of 0.0 (nan if its normalization underflows to 0 while E0 does not).
    ``laws`` holds (equation, normalization label, normalization value,
    note) per law; ``vacuous`` marks a zero-amplitude configuration, whose
    residuals are all 0 and whose laws hold vacuously.  NumPy's maximum is
    exact and carries any nan, so the maxima over the blocks are those over
    every sample, bit for bit.
    """
    max_raw, max_rels = peaks.max(axis=0).tolist()
    zero = 0.0 if vacuous or laws[0][2] else math.nan
    reports = []
    for law, max_rel, mean_rel, max_abs in zip(laws, [zero, *max_rels],
                                               [zero, *means.tolist()], [0.0, *max_raw]):
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
    """Write the residuals of gauss_E, faraday and ampere_continuity at one
    block of samples into the three rows of ``out``.

    A function of its own, so the block's temporaries are freed when it
    returns: peak memory holds one block's temporaries per thread, never
    two, and none while the block is reduced.  ``R``, ``phi`` and ``t``
    are left as they were.  A complex operand of a product with ``R_c`` is
    named, so numpy does not multiply into it (see the module docstring).
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

    # gauss_E: div E = (1/R)*d(R*E_R)/dR + (1/R)*dE_phi/dphi against rho/eps0
    e_r = _e_r(sin, p)
    out[0] = ((_d(R_c * e_r, dR) + _e_phi(R, -sin, p)) / R
              - _charge_density(sin, p, k) / k.eps0)

    # faraday: curl E = ((1/R)*d(R*E_phi)/dR - (1/R)*dE_R/dphi) a_z, and
    # dB_z/dt = -omega*dB_z/dpsi; the R and phi components of curl E are
    # z-derivatives, 0
    e_phi = _e_phi(R_c, cos, p)
    out[1] = ((_d(R_c * e_phi, dR) - _e_r(cos, p)) / R
              - p.omega * _b_z(cos, p, k))
    del e_phi

    # continuity: div J + drho/dt, with drho/dt = -omega*drho/dpsi
    j_r = _j_r(R_c, cos, p, k)
    out[2] = ((_d(R_c * j_r, dR) + _j_phi(R, cos, p, k)) / R
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
    workers = _workers() if n > _INLINE_POINTS else 1
    block = _block_length(n, workers)
    count = -(-n // block)
    rows = np.empty((3, n))  # |residual|/normalization of each law after gauss_B
    peaks = np.empty((count, 2, 3))  # per block: max |residual|, max relative
    taken, lock, errors = iter(range(count)), threading.Lock(), []

    def fill(i):
        start = i * block
        s, theta, phi, t = _samples(p, sampling, k, start, min(start + block, n))
        R = _cylindrical_R(s, theta, p.geometry, out=theta)  # the laws read no z
        del s, theta  # not held while the block's residuals are evaluated
        out = rows[:, start:start + block]
        # An overflow of a residual or its quotient by the normalization is a
        # SamplingError of the finiteness check below; np.errstate is per thread.
        with np.errstate(over="ignore", invalid="ignore"):
            _block_rows(out, R, phi, t, p, k)
            np.abs(out, out=out)
            out.max(axis=1, out=peaks[i, 0])
            if not vacuous:
                for row, law in zip(out, laws[1:]):
                    row /= law[2]
            out.max(axis=1, out=peaks[i, 1])

    def work():
        # take the next block until none is left or a thread has failed
        try:
            while not errors:
                with lock:
                    i = next(taken, None)
                if i is None:
                    return
                fill(i)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    if count == 1:
        fill(0)
    else:
        # each block writes its own columns of rows and its own row of peaks
        threads = [threading.Thread(target=work) for _ in range(min(workers, count) - 1)]
        for thread in threads:
            thread.start()
        work()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
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

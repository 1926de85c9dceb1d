"""Property tests: full_verification over the whole parameter space.

For any r0/R0 from 0.01 to 0.95, R0 from 1e-15 to 1 m and E0 from 1 to
1e20 V/m, the residuals of a tuned configuration are
roundoff, at most 1e-13 relative, and a detuned (1-20%) or static omega
fails Faraday's law and no other.  For E0 from 1e-300 V/m and r0/R0 up to
1 - 1e-6, a tuned configuration reads at most 1e-14 on every law.

Over the parameter space of the ``verify_dense`` benchmark, the Faraday
check passes exactly when its residual is below the tolerance, and that
residual reads twice the relative detune d = omega/(2c/R0) - 1, within
1e-12 relative from |d| = 0.01 up; and the residual rows at random
interior samples equal, bit for bit, those of ``complex_step_reference``,
whose psi-derivatives are complex steps; and the dual-number R-derivative
of each kernel that reads R is its complex-step derivative to roundoff.
The rows form no value that they discard: each d(R*F)/dR, the
reciprocal's derivative and the returned J_R are, bit for bit, what the
full dual arithmetic and a fresh kernel call give.  E_phi formed once at
the unit phase factor, times each law's factor, is the kernel called on
that factor, bit for bit, and gauss_E's subtraction of it times sin is
the sum with the kernel at -sin.

Each of the eight field kernels serves every number type: a float and a
0-d array give the same bits, and so does the value part of a dual R;
Fraction inputs give a Fraction, within 4 ulp of the float value.
"""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

import complex_step_reference
from toroidal_em import maxwell
from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams
from toroidal_em.maxwell import SamplingConfig, full_verification, interior_samples
from toroidal_em.scalar import (_b_z, _charge_density, _e_phi, _e_r,
                                _energy_density_model, _g_phi, _j_phi, _j_r)

# Largest relative residual of a tuned law: 1e-13, against a 1e-12 default
# tolerance and about 2e-14 measured over these ranges.
TUNED_MAX = 1e-13


@st.composite
def configurations(draw):
    """(params, tuning, sampling): log-uniform E0 and R0, r0/R0 in [0.01, 0.95]."""
    E0 = 10.0 ** draw(st.floats(0.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.01, 0.95)) * R0
    tuning = draw(st.sampled_from(["tuned", "detuned", "static"]))
    p = AnsatzParams.faraday(E0, R0, r0)
    if tuning == "detuned":
        factor = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 0.2))
        p = AnsatzParams.with_omega(E0, R0, r0, omega=factor * p.omega)
    elif tuning == "static":
        p = AnsatzParams.with_omega(E0, R0, r0, omega=0.0)
    sampling = SamplingConfig(n_points=draw(st.integers(1, 300)),
                              seed=draw(st.integers(0, 2**32 - 1)))
    return p, tuning, sampling


@given(configurations())
def test_tuned_laws_hold_to_roundoff_and_detuning_fails_faraday_alone(configuration):
    p, tuning, sampling = configuration
    reports = full_verification(p, sampling)
    failed = [r.equation for r in reports if not r.passed]
    if tuning == "tuned":
        assert failed == []
        assert max(r.max_rel_residual for r in reports) <= TUNED_MAX
    else:
        assert failed == ["faraday"]
        assert max(r.max_rel_residual for r in reports if r.equation != "faraday") <= TUNED_MAX


@st.composite
def detuned_configurations(draw):
    """(params, detuned): log-uniform E0 in [1, 1e20] V/m and R0 in
    [1e-15, 1] m, r0/R0 in [0.05, 0.9], and omega = 2c/R0 or detuned by
    1e-11 to 0.2 relative."""
    E0 = 10.0 ** draw(st.floats(0.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.05, 0.9)) * R0
    p = AnsatzParams.faraday(E0, R0, r0)
    detuned = draw(st.booleans())
    if detuned:
        detune = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-11.0, math.log10(0.2)))
        p = AnsatzParams(E0, R0, r0, omega=p.omega * (1.0 + detune))
    return p, detuned


@given(detuned_configurations())
def test_faraday_passes_iff_its_residual_is_below_tol_and_reads_twice_the_detune(configuration):
    p, detuned = configuration
    # curl E + dB/dt = (2*E0/R0)*d*cos(psi), normalized by E0/R0 from R0
    # outward, where half the nodes lie
    d = p.omega / (2.0 * CODATA.c / p.R0) - 1.0
    note = f"omega detuned from 2c/R0 by {d:+.3e} relative" if d else ""
    for tol in (1e-12, 1e-6, 1e-2):
        faraday = full_verification(p, SamplingConfig(n_points=64, seed=3), tol=tol)[2]
        assert faraday.passed == (faraday.max_rel_residual < tol)
        assert faraday.note == note
    if detuned:
        assert 1.99 <= faraday.max_rel_residual / abs(d) <= 2.01
        if abs(d) >= 0.01:
            assert abs(faraday.max_rel_residual / (2.0 * abs(d)) - 1.0) <= 1e-12
    else:
        assert faraday.max_rel_residual <= TUNED_MAX


@st.composite
def faraday_arguments(draw):
    """(E0, R0, r0) of ``AnsatzParams.faraday``: log-uniform E0 in [1, 1e20]
    V/m and R0 in [1e-15, 1] m, r0/R0 in [0.01, 0.95]."""
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    return 10.0 ** draw(st.floats(0.0, 20.0)), R0, draw(st.floats(0.01, 0.95)) * R0


@given(faraday_arguments())
# a radius where omega*R0/(2c) - 1, a detune not formed against the same
# 2c/R0 float, reads -2.220e-16
@example((1e10, 0.5384551847092592, 0.25))
def test_faraday_note_names_only_a_detune_that_a_caller_made(arguments):
    p = AnsatzParams.faraday(*arguments)
    sampling = SamplingConfig(n_points=2)
    assert full_verification(p, sampling)[2].note == ""
    detuned = dataclasses.replace(p, omega=p.omega * 1.1)
    assert (full_verification(detuned, sampling)[2].note
            == "omega detuned from 2c/R0 by +1.000e-01 relative")


@st.composite
def tuned_configurations(draw):
    """Faraday-tuned params: log-uniform E0 in [1e-300, 1e20] V/m and R0 in
    [1e-15, 1] m, r0/R0 in [0.05, 1 - 1e-6]."""
    E0 = 10.0 ** draw(st.floats(-300.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    aspect = draw(st.one_of(st.floats(0.05, 1.0 - 1e-6),
                            st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
    return AnsatzParams.faraday(E0, R0, aspect * R0)


@given(tuned_configurations(), st.sampled_from([1, 2, 64, 1000]))
def test_tuned_laws_hold_to_roundoff_at_tiny_amplitudes_and_fat_tori(p, n):
    # the profile runs at unit amplitude and is normalized at each R, so
    # neither a subnormal E0-scaled step nor the walls of a fat torus show
    reports = full_verification(p, SamplingConfig(n_points=n))
    assert max(r.max_rel_residual for r in reports) <= 1e-14, reports


@st.composite
def dense_configurations(draw):
    """(params, sampling): log-uniform E0 in [1, 1e20] V/m and R0 in
    [1e-15, 1] m, r0/R0 in [0.05, 0.999], and omega = 0, 2c/R0, or 2c/R0
    detuned by up to 20% either way."""
    E0 = 10.0 ** draw(st.floats(0.0, 20.0))
    R0 = 10.0 ** draw(st.floats(-15.0, 0.0))
    r0 = draw(st.floats(0.05, 0.999)) * R0
    tuned = 2.0 * CODATA.c / R0
    omega = draw(st.sampled_from([0.0, tuned, None]))
    if omega is None:
        omega = tuned * (1.0 + draw(st.floats(-0.2, 0.2)))
    sampling = SamplingConfig(n_points=draw(st.integers(1, 300)),
                              seed=draw(st.integers(0, 2**32 - 1)))
    return AnsatzParams(E0, R0, r0, omega), sampling


@given(dense_configurations())
def test_rows_equal_the_complex_step_reference(configuration):
    # every kernel is linear in its phase factor, so its psi-derivative is
    # the kernel of the factor's derivative, bit for bit
    p, sampling = configuration
    R, phi, _, t = interior_samples(p, sampling)
    psi = phi - p.omega * t
    rows, reference = np.empty((2, 3, sampling.n_points))
    maxwell._rows(rows, R, np.sin(psi), np.cos(psi), p, CODATA)
    complex_step_reference.block_rows(reference, R, phi, t, p, CODATA)
    assert rows.tobytes() == reference.tobytes()


# Bound on |dual - complex step| in units of eps*(|R*F'| + |F|): the dual
# derivative rounds within 5 half-ulps of that scale and the complex step,
# whose product with R*(1 + i*delta) and division by R*delta round too,
# within 7; about 3 is measured over 15,000 configurations.
R_STEP_EPS = 6.0


@given(dense_configurations())
def test_dual_r_derivative_is_the_complex_step_to_roundoff(configuration):
    # two exact-derivative methods, written apart, of d(R*F)/dR = F + R*F'
    # for each kernel that reads R
    p, sampling = configuration
    R, phi, _, t = interior_samples(p, sampling)
    cos = np.cos(phi - p.omega * t)
    for kernel, args in ((_e_phi, (cos, p)), (_j_r, (cos, p, CODATA))):
        Rd = maxwell._Dual(R, 1)
        f = kernel(Rd, *args)
        dual = (Rd * f).d
        scale = np.abs(R * f.d) + np.abs(f.v)
        step = complex_step_reference.r_step(kernel, R, *args)
        assert np.all(np.abs(dual - step) <= R_STEP_EPS * np.finfo(float).eps * scale), \
            kernel.__name__


@given(dense_configurations())
def test_rows_form_only_what_they_read(configuration):
    # each part of the dual arithmetic that _rows skips is exact to drop:
    # d(R*F)/dR from the dual's parts is the full product's derivative part,
    # and E_R, which does not read R, is its own; the reciprocal's
    # derivative is -q*1/R; and the returned J_R is the kernel's value
    p, sampling = configuration
    R, phi, _, t = interior_samples(p, sampling)
    psi = phi - p.omega * t
    sin, cos = np.sin(psi), np.cos(psi)
    Rd = maxwell._Dual(R, 1)
    for F in (_e_phi(Rd, cos, p), _j_r(Rd, cos, p, CODATA)):
        assert maxwell._d_rf(F, R).tobytes() == (Rd * F).d.tobytes()
    e_r = _e_r(sin, p)
    assert e_r.tobytes() == (Rd * e_r).d.tobytes()
    q = CODATA.c / R
    assert (CODATA.c / Rd).d.tobytes() == (-q * 1 / R).tobytes()
    rows = np.empty((3, sampling.n_points))
    for f in (cos, 1.0):
        j_r = maxwell._rows(rows, R, sin, f, p, CODATA)
        assert j_r.tobytes() == _j_r(R, f, p, CODATA).tobytes()


@given(dense_configurations())
def test_e_phi_is_its_amplitude_times_its_factor(configuration):
    # _rows forms E_phi once, at the unit factor, on the dual radius, and
    # multiplies it by each law's factor: bit for bit the kernel called on
    # that factor, on R for gauss_E and on the dual radius for faraday
    p, sampling = configuration
    R, phi, _, t = interior_samples(p, sampling)
    psi = phi - p.omega * t
    sin, cos = np.sin(psi), np.cos(psi)
    Rd = maxwell._Dual(R, 1)
    amplitude = _e_phi(Rd, maxwell._UNIT, p)
    # gauss_E subtracts the amplitude times sin: float negation is exact
    e_r = _e_r(sin, p)
    assert (e_r - amplitude.v * sin).tobytes() == (e_r + _e_phi(R, -sin, p)).tobytes()
    for f in (-sin, cos, 1.0, -1.0):
        assert (_e_phi(R, maxwell._UNIT, p) * f).tobytes() == _e_phi(R, f, p).tobytes()
        assert (amplitude.v * f).tobytes() == _e_phi(R, f, p).tobytes()
        shared, direct = amplitude * f, _e_phi(Rd, f, p)
        assert shared.v.tobytes() == direct.v.tobytes()
        assert np.asarray(shared.d).tobytes() == np.asarray(direct.d).tobytes()


KERNELS = (_e_r, _e_phi, _b_z, _charge_density, _j_r, _j_phi, _g_phi, _energy_density_model)


def call(kernel, R, f, p, k):
    """``kernel`` on the arguments its signature names: R, the phase factor
    f as ``sin_psi`` or ``cos_psi``, p and k."""
    values = {"R": R, "sin_psi": f, "cos_psi": f, "p": p, "k": k}
    return kernel(*(values[name] for name in inspect.signature(kernel).parameters))


def bits(x):
    return np.float64(x).tobytes()


@given(dense_configurations())
def test_each_kernel_serves_every_number_type(configuration):
    # one kernel set for the public arrays, the dual-number derivatives and
    # exact arithmetic: a float literal in a kernel turns a Fraction into a
    # float
    p, sampling = configuration
    R, phi, _, t = interior_samples(p, SamplingConfig(n_points=2, seed=sampling.seed))
    exact_p = AnsatzParams(*map(Fraction, (p.E0, p.R0, p.r0, p.omega)))
    exact_k = dataclasses.replace(CODATA, c=Fraction(CODATA.c), eps0=Fraction(CODATA.eps0))
    for R_, psi in zip(R.tolist(), (phi - p.omega * t).tolist()):
        for f in (math.sin(psi), math.cos(psi)):
            for kernel in KERNELS:
                value = call(kernel, R_, f, p, CODATA)
                assert type(value) is float, kernel.__name__
                assert bits(call(kernel, np.array(R_), np.array(f), p, CODATA)) == bits(value), \
                    kernel.__name__
                if "R" in inspect.signature(kernel).parameters:
                    dual = call(kernel, maxwell._Dual(R_, 1), f, p, CODATA)
                    assert bits(dual.v) == bits(value), kernel.__name__
                exact = call(kernel, Fraction(R_), Fraction(f), exact_p, exact_k)
                assert type(exact) is Fraction, kernel.__name__
                assert abs(float(exact) - value) <= 4 * math.ulp(float(exact)), kernel.__name__

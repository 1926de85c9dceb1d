"""An mpmath anchor for the Maxwell residuals, and the golden-file writer.

For each law the anchor evaluates its terms exactly, in mpmath, at one
(R, phi, z, t) sample.  Only the ansatz's E and B are typed here; sympy
derives rho = eps0*div E, J = curl B/mu0 - eps0*dE/dt (mu0 = 1/(eps0*c^2))
and every derivative, so no kernel of ``fields`` and no complex step is
shared with the code under test.  The terms of each law, in cylindrical
coordinates inside the tube, with each (1/R)*d(R*F)/dR written as
dF/dR + F/R, two terms that cancel where F holds a c/R part (J_R at
omega = 0 has no other):

    gauss_B            dB_z/dz
    gauss_E            dE_R/dR, E_R/R, (1/R)*dE_phi/dphi, -rho/eps0
    faraday            dE_phi/dR, E_phi/R, -(1/R)*dE_R/dphi, dB_z/dt
    ampere_continuity  dJ_R/dR, J_R/R, (1/R)*dJ_phi/dphi, drho/dt

Every term depends on phi and t only through the phase psi = phi - omega*t,
and the anchor evaluates it at psi as float64 rounds it, the one input
that the float evaluation rounds before any kernel reads it (near a zero
of cos(psi), that rounding alone moves a detuned Faraday residual by tens
of ulp of its terms).  A law's exact residual is the sum of its terms.
``check_rows`` asserts that each float residual row of
``maxwell._block_rows`` lies within ``ULPS`` ulp, of the law's largest term
at that sample, of the exact one.

Run as a script to regenerate ``data/residual_golden.json`` from the
code, anchored sample by sample (a few minutes for its 312,067 samples):

    PYTHONPATH=src python tests/residual_anchor.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import sympy as sp

from toroidal_em import maxwell
from toroidal_em.constants import CODATA
from toroidal_em.fields import AnsatzParams
from toroidal_em.maxwell import SamplingConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "residual_golden.json"
EQUATIONS = ("gauss_B", "gauss_E", "faraday", "ampere_continuity")

# A float residual lies within this many ulp of the law's largest term of
# the exact residual; measured at most 4 over the golden samples.
ULPS = 8

mpmath.mp.dps = 40


def _law_terms():
    R, phi, z, t, psi_, E0, R0, omega, c, eps0 = sp.symbols(
        "R phi z t psi E0 R0 omega c eps0", real=True)
    psi = phi - omega * t
    E_R, E_phi = -E0 * sp.sin(psi), -E0 * (1 + R / R0) * sp.cos(psi)
    B_z = -(E0 / c) * sp.sin(psi)
    mu0 = 1 / (eps0 * c**2)
    rho = eps0 * (sp.diff(R * E_R, R) / R + sp.diff(E_phi, phi) / R)
    J_R = (sp.diff(B_z, phi) / R) / mu0 - eps0 * sp.diff(E_R, t)
    J_phi = -sp.diff(B_z, R) / mu0 - eps0 * sp.diff(E_phi, t)
    terms = [
        [sp.diff(B_z, z)],
        [sp.diff(E_R, R), E_R / R, sp.diff(E_phi, phi) / R, -rho / eps0],
        [sp.diff(E_phi, R), E_phi / R, -sp.diff(E_R, phi) / R, sp.diff(B_z, t)],
        [sp.diff(J_R, R), J_R / R, sp.diff(J_phi, phi) / R, sp.diff(rho, t)],
    ]
    # every term reads phi and t only through psi
    terms = [[term.subs(phi, psi_ + omega * t) for term in law] for law in terms]
    args = (R, psi_, E0, R0, omega, c, eps0)
    assert set().union(*(term.free_symbols for law in terms for term in law)) <= set(args)
    return [sp.lambdify(args, law, modules="mpmath") for law in terms]


_LAWS = _law_terms()


def exact(p: AnsatzParams, R: float, z: float, psi: float, k=CODATA):
    """(largest |term|, exact residual) of each law at one float sample
    (R, z) and phase psi, with every term 0 outside the tube."""
    R, z = mpmath.mpf(R), mpmath.mpf(z)
    if not (R - p.R0) ** 2 + z**2 < mpmath.mpf(p.r0) ** 2:
        return [(mpmath.mpf(0), mpmath.mpf(0))] * len(_LAWS)
    args = (R, mpmath.mpf(psi), *map(mpmath.mpf, (p.E0, p.R0, p.omega, k.c, k.eps0)))
    out = []
    for law in _LAWS:
        terms = law(*args)
        out.append((max(abs(x) for x in terms), mpmath.fsum(terms)))
    return out


def check_rows(p: AnsatzParams, sampling: SamplingConfig, k=CODATA):
    """Assert every float residual is within ULPS ulp of the exact one, and
    return, per law, the largest term and the largest |exact residual|
    over the samples, as floats."""
    n = sampling.n_points
    R, phi, z, t = maxwell.interior_samples(p, sampling, k)
    rows = np.zeros((len(EQUATIONS), n))  # gauss_B's residual is 0.0 by construction
    maxwell._block_rows(rows[1:], R, phi, t, p, k)
    psi = phi - p.omega * t
    anchor = [[0.0, 0.0] for _ in EQUATIONS]
    for i, sample in enumerate(zip(R.tolist(), z.tolist(), psi.tolist())):
        for j, (term, residual) in enumerate(exact(p, *sample, k)):
            bound = ULPS * math.ulp(float(term))
            assert abs(rows[j, i] - residual) <= bound, (EQUATIONS[j], sample, rows[j, i],
                                                         float(residual), float(term))
            anchor[j][0] = max(anchor[j][0], float(term))
            anchor[j][1] = max(anchor[j][1], float(abs(residual)))
    return [{"equation": eq, "max_term": a[0], "max_abs_exact_residual": a[1]}
            for eq, a in zip(EQUATIONS, anchor)]


def main() -> int:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for case in golden["cases"]:
        stored = dict(case["params"])
        stored.pop("B0")
        p = AnsatzParams(**stored)
        sampling = SamplingConfig(**case["sampling"])
        case["reports"] = [dataclasses.asdict(r) for r in maxwell.full_verification(p, sampling)]
        case["anchor"] = check_rows(p, sampling)
        print(case["name"], sampling.n_points, file=sys.stderr)
    golden["description"] = (
        "ResidualReport fields of full_verification(params, sampling) with the default "
        "constants and tolerance; floats written by repr.  Each case's anchor holds, per "
        "law, the largest term and the largest |exact residual| over its samples, from "
        "the mpmath evaluation of tests/residual_anchor.py, which checked every float "
        "residual against its exact value sample by sample.")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""An mpmath anchor for the Maxwell residuals, and the golden-file writer.

For each law the anchor evaluates its terms exactly, in mpmath, at one
radius R and phase psi.  Only the ansatz's E and B are typed here; sympy
derives rho = eps0*div E, J = curl B/mu0 - eps0*dE/dt (mu0 = 1/(eps0*c^2))
and every derivative, so no kernel of ``fields`` and no derivative rule
(dual number or phase-factor call) is shared with the code under test.
The terms of each law, in cylindrical coordinates inside the tube, with
each (1/R)*d(R*F)/dR written as
dF/dR + F/R, two terms that cancel where F holds a c/R part (J_R at
omega = 0 has no other):

    gauss_B            dB_z/dz
    gauss_E            dE_R/dR, E_R/R, (1/R)*dE_phi/dphi, -rho/eps0
    faraday            dE_phi/dR, E_phi/R, -(1/R)*dE_R/dphi, dB_z/dt
    ampere_continuity  dJ_R/dR, J_R/R, (1/R)*dJ_phi/dphi, drho/dt

Every term depends on phi and t only through the phase psi = phi - omega*t.
``full_verification`` evaluates each law's radial profile, its residual at
the phase where its one phase factor is 1: the anchor evaluates gauss_E
at psi = pi/2 and the other laws at psi = 0, exactly.  A law's exact
residual is the sum of its terms.  ``check_rows`` asserts that each float
residual row of ``maxwell._rows`` at the nodes of the verification, at
unit amplitude as ``full_verification`` evaluates them, lies within
``ULPS`` ulp, of the law's largest term at that node, of the exact one.
Every term is linear in E0, so the anchor it returns is the unit one
times E0, in mpmath.

The cases named in :func:`solved_params` run the configuration that
``solve_full()`` fits today, as is or by the rule of the name; the script
writes their parameters from it, so the file cannot go on checking a
configuration that the command line no longer runs.  The other cases keep
the parameters the file stores.

Run as a script to regenerate ``data/residual_golden.json`` from the
code, anchored node by node (a few minutes for its 312,046 nodes):

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
from toroidal_em.solver import solve_full

GOLDEN_PATH = Path(__file__).parent / "data" / "residual_golden.json"
EQUATIONS = ("gauss_B", "gauss_E", "faraday", "ampere_continuity")

# A float residual lies within this many ulp of the law's largest term of
# the exact residual; measured at most 4 over the golden nodes.
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


# The phase of each law's profile: sin(psi) = 1 for gauss_E, cos(psi) = 1
# for the others (gauss_B's terms vanish at any phase).
PEAK_PHASES = (mpmath.mpf(0), mpmath.pi / 2, mpmath.mpf(0), mpmath.mpf(0))


def solved_params():
    """The parameters of each case built from ``solve_full().as_params()``,
    by its name: as is, omega times 1.1 or 0.9, E0 = 0 or omega = 0."""
    tuned = solve_full().as_params()
    return {
        "tuned": tuned,
        "detuned_plus_10pct": dataclasses.replace(tuned, omega=tuned.omega * 1.1),
        "detuned_minus_10pct": dataclasses.replace(tuned, omega=tuned.omega * 0.9),
        "E0_zero": dataclasses.replace(tuned, E0=0.0),
        "omega_zero": dataclasses.replace(tuned, omega=0.0),
    }


def exact(p: AnsatzParams, R: float, k=CODATA):
    """(largest |term|, exact residual) of each law at one float radius R
    inside the tube, at the law's peak phase."""
    out = []
    for law, psi in zip(_LAWS, PEAK_PHASES):
        terms = law(mpmath.mpf(R), psi, *map(mpmath.mpf, (p.E0, p.R0, p.omega, k.c, k.eps0)))
        out.append((max(abs(x) for x in terms), mpmath.fsum(terms)))
    return out


def check_rows(p: AnsatzParams, sampling: SamplingConfig, k=CODATA):
    """Assert every float residual of the profile at unit amplitude is within
    ULPS ulp of the exact one, and return, per law, the largest term and the
    largest |exact residual| over the nodes at amplitude E0, as floats."""
    unit = AnsatzParams(1.0, p.R0, p.r0, p.omega)
    R = np.concatenate(list(maxwell._node_blocks(p, sampling.n_points)))
    rows = np.zeros((len(EQUATIONS), R.size))  # gauss_B's residual is 0.0 by construction
    maxwell._rows(rows[1:], R, 1.0, 1.0, unit, k)
    anchor = [[0.0, 0.0] for _ in EQUATIONS]
    E0 = mpmath.mpf(p.E0)
    for i, node in enumerate(R.tolist()):
        assert abs(node - p.R0) < p.r0, node
        for j, (term, residual) in enumerate(exact(unit, node, k)):
            bound = ULPS * math.ulp(float(term))
            assert abs(rows[j, i] - residual) <= bound, (EQUATIONS[j], node, rows[j, i],
                                                         float(residual), float(term))
            anchor[j][0] = max(anchor[j][0], float(E0 * term))
            anchor[j][1] = max(anchor[j][1], float(E0 * abs(residual)))
    return [{"equation": eq, "max_term": a[0], "max_abs_exact_residual": a[1]}
            for eq, a in zip(EQUATIONS, anchor)]


def main() -> int:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    solved = solved_params()
    for case in golden["cases"]:
        if case["name"] in solved:
            fit = solved[case["name"]]
            case["params"] = {**dataclasses.asdict(fit), "B0": fit.E0 / CODATA.c}
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
        "residual of the radial profile against its exact value node by node.")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

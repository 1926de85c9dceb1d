"""Symbolic audit of the closed-form constraint solve, and the 50-digit
anchor of every number the CLI prints (sympy, test only).

With symbolic targets S, Q, M and constants eps0, c, the solution

    x^2 = a/(1 - a/4),  a = Q^2/(2*pi^2*eps0*c*S),
    R0 = pi*M/(c*Q*(1 + x^2/2)),  E0 = sqrt(2)*c*S/(Q*R0^2*(1 + x^2/4)),
    r0 = x*R0,

and its thin-torus form without the brackets (x^2 = a) are substituted
into the three constraints, each of which must simplify to its target.
The constraint left-hand sides are the closed forms of L_z, Q_rms and
mu_z; the float closed forms in ``scalar`` and the float solve must agree
with these expressions at sample points.

For the electron's thin-torus targets (S = hbar/2, Q = e and M =
mu_B*(1 + alpha/2pi), or mu_B without the Schwinger factor) and with
eps0 written through alpha = e^2/(4*pi*eps0*hbar*c), the five ratios over
the scales of ``derived_scales`` are closed forms in alpha alone, with
X = (pi/2)*(1 + alpha/2pi), or pi/2:

    R0/r_c = X,  r0/r_c = 2X*sqrt(alpha/pi),  U/(m_e c^2) = 5/(4X),
    omega/omega_D = 1/X,  E0/E_S = 1/(sqrt(2)*X^2),

with U = (5/2)*pi^2*eps0*R0*r0^2*E0^2, the thin form of ``_u_closed``,
and omega = 2c/R0.

These proven expressions, with the derived scales and the electron
targets typed once below, are the one anchor of the reproduced numbers:
evaluated at 50 digits from the floats of ``CODATA`` made exact, without
the package's code, they hold every float that the CLI's JSON prints,
unless ``EXEMPT`` names its reason (``test_cli_json_matches_the_anchor``).
"""

import dataclasses
import json
import math
import types

import pytest
import sympy as sp

from toroidal_em import cli, constants, observables, report, solver
from toroidal_em.constants import CODATA
from toroidal_em.geometry import integrate_axisymmetric
from toroidal_em.scalar import _l_z_closed, _mu_z_closed, _q_rms_closed, _u_closed, to_json
from toroidal_em.solver import FULL, THIN, ConstraintSystem, solve_full

S, Q, M, eps0, c = sp.symbols("S Q M eps0 c", positive=True)
E0, R0, r0 = sp.symbols("E0 R0 r0", positive=True)
hbar, m_e, e, alpha = sp.symbols("hbar m_e e alpha", positive=True)
a = Q**2 / (2 * sp.pi**2 * eps0 * c * S)


def lhs(E0, R0, r0, corrections):
    """(spin, charge, moment): the closed forms of L_z, Q_rms and mu_z."""
    w = 1 if corrections else 0
    return (eps0 * E0**2 * sp.pi**2 * R0**2 * r0**2 / c * (1 + w * r0**2 / (4 * R0**2)),
            sp.sqrt(2) * sp.pi**2 * eps0 * E0 * r0**2,
            sp.sqrt(2) * eps0 * sp.pi * c * E0 * R0 * r0**2 * (1 + w * r0**2 / (2 * R0**2)))


def solution(corrections):
    """(E0, R0, r0) of the closed form, symbolic in the targets."""
    w = 1 if corrections else 0
    x2 = a / (1 - w * a / 4)
    R0 = sp.pi * M / (c * Q * (1 + w * x2 / 2))
    E0 = sp.sqrt(2) * c * S / (Q * R0**2 * (1 + w * x2 / 4))
    return E0, R0, sp.sqrt(x2) * R0


def u(E0, R0, r0, corrections):
    """The total energy of ``_u_closed``; thin, its bracket is 5/2."""
    w = 1 if corrections else 0
    return eps0 * sp.pi**2 * R0 * r0**2 * E0**2 * (sp.Rational(5, 2) + w * r0**2 / (8 * R0**2))


# the scales of constants.derived_scales and the targets of
# ConstraintSystem.for_electron
SCALES = {"r_c": hbar / (m_e * c), "E_S": m_e**2 * c**3 / (e * hbar),
          "mu_B": e * hbar / (2 * m_e), "omega_D": 2 * m_e * c**2 / hbar,
          "rest_energy": m_e * c**2}


def targets(schwinger):
    return {S: hbar / 2, Q: e, M: SCALES["mu_B"] * (1 + alpha / (2 * sp.pi) if schwinger else 1)}


def test_aspect_ratio_solves_the_reduced_equation():
    x2 = a / (1 - a / 4)
    assert sp.simplify(x2 - a * (1 + x2 / 4)) == 0


@pytest.mark.parametrize("corrections", [True, False], ids=["full", "thin"])
def test_closed_form_meets_every_constraint(corrections):
    for value, target in zip(lhs(*solution(corrections), corrections), (S, Q, M)):
        assert sp.simplify(value / target - 1) == 0


@pytest.mark.parametrize("corrections", [True, False], ids=["full", "thin"])
def test_float_closed_forms_match_the_symbolic_ones(corrections):
    point = {E0: 3.1e17, R0: 6.2e-13, r0: 2.7e-13, eps0: CODATA.eps0, c: CODATA.c}
    k = types.SimpleNamespace(eps0=CODATA.eps0, c=CODATA.c)
    floats = (_l_z_closed(3.1e17, 6.2e-13, 2.7e-13, k, corrections),
              _q_rms_closed(3.1e17, 2.7e-13, k),
              _mu_z_closed(3.1e17, 6.2e-13, 2.7e-13, k, corrections),
              _u_closed(3.1e17, 6.2e-13, 2.7e-13, k, corrections))
    for got, expr in zip(floats, (*lhs(E0, R0, r0, corrections), u(E0, R0, r0, corrections))):
        assert got == pytest.approx(float(expr.evalf(30, subs=point)), rel=1e-15)


@pytest.mark.parametrize("mode", [FULL, THIN])
def test_float_solve_matches_the_symbolic_solution(mode):
    targets = {S: 3.0e-33, Q: 1.0e-17, M: 7.0e-22, eps0: CODATA.eps0, c: CODATA.c}
    sr = solve_full(CODATA, ConstraintSystem(3.0e-33, 1.0e-17, 7.0e-22, mode))
    for got, expr in zip((sr.E0, sr.R0, sr.r0), solution(mode == FULL)):
        assert got == pytest.approx(float(expr.evalf(30, subs=targets)), rel=1e-14)


@pytest.mark.parametrize("include_schwinger", [True, False], ids=["schwinger", "no-schwinger"])
def test_thin_ratios_are_closed_forms_in_alpha(include_schwinger):
    # eps0 through alpha = e^2/(4*pi*eps0*hbar*c)
    eps0_alpha = e**2 / (4 * sp.pi * alpha * hbar * c)
    E0_, R0_, r0_ = (v.subs({**targets(include_schwinger), eps0: eps0_alpha})
                     for v in solution(False))
    X = sp.pi / 2 * (1 + alpha / (2 * sp.pi) if include_schwinger else 1)
    ratios = {  # ratio: (its value at the solution, its closed form in alpha)
        "E0/E_S": (E0_ / SCALES["E_S"], 1 / (sp.sqrt(2) * X**2)),
        "R0/r_c": (R0_ / SCALES["r_c"], X),
        "r0/r_c": (r0_ / SCALES["r_c"], 2 * X * sp.sqrt(alpha / sp.pi)),
        "U/(m_e c^2)": (u(E0_, R0_, r0_, False).subs(eps0, eps0_alpha) / SCALES["rest_energy"],
                        5 / (4 * X)),
        "omega/omega_D": (2 * c / R0_ / SCALES["omega_D"], 1 / X),
    }
    for name, (value, closed_form) in ratios.items():
        assert sp.simplify(value - closed_form) == 0, name


# A printed float lies within ULPS ulp of its anchor: the derived scales
# and mu0 read within 1.11, the solutions within 3.04, the ratios and the
# claims within 3.1, a few correctly rounded operations on the solution's
# error.  A quadrature sums 2,048 nodes; they read within 3.23.  A residual
# normalization, a quotient of the full solution's E0 and R0, adds their
# errors: 7.63.  A relative field reads within 2.81.  A closed form off by
# 1e-14 relative is 45 ulp off.
ULPS, QUAD_ULPS, NORM_ULPS = 4, 4, 8
EXEMPT = {**dict.fromkeys(("max_rel_residual", "mean_rel_residual", "max_abs_residual"),
                          "residual magnitudes: tests/data/residual_golden.json pins them"),
          "residuals": "a solve's residuals, roundoff of an exact 0, bounded at 1e-12",
          "reference_value": "published references: test_reference_values_pinned pins them",
          "tolerance": "claim tolerances: test_tolerance_tiers pins them"}
# a relative field: (its numerator, anchored, and its denominator, as printed)
RELATIVE = {"rel_deviation": ("computed_value", "reference_value"),
            "rel_difference": ("quadrature", "closed_form")}
INPUTS = {"c": c, "eps0": eps0, "hbar": hbar, "e_charge": e, "m_e": m_e, "alpha": alpha}
EXACT = {sym: sp.Rational(getattr(CODATA, name)) for name, sym in INPUTS.items()}
INVOCATIONS = [argv.split() for argv in (
    "constants", "observables", "verify-maxwell", "report", "report --schwinger off",
    "solve", "solve --schwinger off", "solve --mode thin", "solve --mode thin --schwinger off")]


def solve_tree(corrections, schwinger):
    """The JSON tree of ``solve``, at the exact solution."""
    E0_, R0_, r0_ = (v.subs(targets(schwinger)) for v in solution(corrections))
    omega, U, s = 2 * c / R0_, u(E0_, R0_, r0_, corrections), SCALES
    sol = {"E0": E0_, "R0": R0_, "r0": r0_, "omega": omega, "U": U}
    return {"solution": sol, "ratios": {
        "E0_over_ES": E0_ / s["E_S"], "R0_over_rc": R0_ / s["r_c"], "r0_over_rc": r0_ / s["r_c"],
        "U_over_mec2": U / s["rest_energy"], "omega_over_omegaD": omega / s["omega_D"], **sol,
        "U_MeV": U / (e * 10**6)}}


def anchor(argv):
    """The JSON tree that ``argv`` prints, each anchored float an exact
    expression, or (expression, ulp bound); an input is held to 0 ulp."""
    consts = {**{n: (sym, 0) for n, sym in INPUTS.items()}, "mu0": 1 / (eps0 * c**2)}
    if argv[0] == "constants":
        return {**consts, **SCALES}
    schwinger = "off" not in argv
    if argv[0] == "solve":
        return solve_tree("thin" not in argv, schwinger)
    thin, full = solve_tree(False, schwinger), solve_tree(True, schwinger)["solution"]
    E0_, R0_ = full["E0"], full["R0"]
    spin, charge, moment = lhs(E0_, R0_, full["r0"], True)
    checks = {eq: {"normalization_value": (v, NORM_ULPS), "tolerance": (sp.Rational(1e-12), 0)}
              for eq, v in (("gauss_B", E0_ / (c * R0_)), ("gauss_E", E0_ / R0_),
                            ("faraday", E0_ / R0_),
                            ("ampere_continuity", eps0 * E0_ * (full["omega"] + c / R0_) / R0_))}
    obs = {n: {"closed_form": v, "quadrature": (v * (2 * sp.pi if n == "mu_z" else 1), QUAD_ULPS)}
           for n, v in (("Q_rms", charge), ("mu_z", moment), ("L_z", spin), ("U", full["U"]))}
    obs.update(v_phase=full["omega"] * R0_, mu_quadrature_ratio=(2 * sp.pi, QUAD_ULPS))
    if argv[0] != "report":
        return checks if argv[0] == "verify-maxwell" else obs
    rr = thin["ratios"]
    claims = {**{f"ratio.{n}": rr[n] for n in list(rr)[:5]},
              **{f"si.{n}": rr[n] for n in ("E0", "R0", "r0", "U_MeV", "omega")},
              "velocity.v_phase": 2 * c, "target.Q_rms": (charge, QUAD_ULPS),
              "target.mu_z": moment, "target.L_z": (spin, QUAD_ULPS)}
    claims = {cid: {"computed_value": v} for cid, v in claims.items()}
    for cid, target in (("L_z", S), ("Q_rms", Q), ("mu_z", M)):  # with the Schwinger factor
        claims[f"target.{cid}"]["reference_value"] = targets(True)[target]
    return {"sampling": {"h": (sp.Rational(1e-5), 0)}, "constants": consts, "scales": SCALES,
            "residual_checks": checks, "observables": obs, "solve_thin": thin["solution"],
            "solve_full": full, "ratios": rr, "claims": claims}


def leaves(doc, path=()):
    """{path: leaf} of a tree; a list item is keyed by its id or equation, or index."""
    if isinstance(doc, list):
        doc = {v.get("id", v.get("equation")) if isinstance(v, dict) else i: v
               for i, v in enumerate(doc)}
    if isinstance(doc, dict):
        return {p: v for key, sub in doc.items() for p, v in leaves(sub, (*path, key)).items()}
    return {} if isinstance(doc, (bool, int, str)) else {path: doc}


def misses(argv, capsys):
    """{path: why} of each float that ``argv`` prints off its anchor's bound
    or unclassified, and of each anchored path that does not print."""
    cli.main([*argv, "--output", "-"])
    got = leaves(json.loads(capsys.readouterr().out))
    want = {p: v if isinstance(v, tuple) else (v, ULPS) for p, v in leaves(anchor(argv)).items()}
    out = {p: "anchored but not printed" for p in want.keys() - got.keys()}
    for path, value in got.items():
        unit = math.ulp(value)
        if path[-1] in RELATIVE:  # in ulp(1.0) at least
            num, den = ((*path[:-1], field) for field in RELATIVE[path[-1]])
            exact, ulps = want[num]
            exact, unit = exact / sp.Rational(got[den]) - 1, max(unit, math.ulp(1.0))
        elif path in want:
            exact, ulps = want[path]
        else:
            if [p for p in path if isinstance(p, str)][-1] not in EXEMPT:
                out[path] = "unclassified: anchor it or exempt it"
            continue
        off = abs(sp.Rational(value) - exact.xreplace(EXACT).evalf(50)) / unit
        if off > ulps:
            out[path] = f"{value!r} is {float(off):.2f} ulp off its anchor"
    return out


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_json_matches_the_anchor(argv, capsys):
    assert misses(argv, capsys) == {}


@pytest.mark.parametrize("mutant", ["schwinger-factor", "u-closed", "r_c", "quadrature",
                                    "new-field"])
def test_anchor_fails_each_mutant(mutant, monkeypatch, capsys):
    """A closed form, a scale or a quadrature off by 1e-14 relative fails the
    anchor, and so does a float field that is neither anchored nor exempt."""
    scale = 1 + 1e-14
    if mutant == "schwinger-factor":
        built = ConstraintSystem.for_electron.__func__

        def for_electron(cls, k=CODATA, mode=FULL, include_schwinger=True):
            sys = built(cls, k, mode, include_schwinger)
            return dataclasses.replace(sys, moment_target=sys.moment_target * (
                scale if include_schwinger else 1.0))
        monkeypatch.setattr(ConstraintSystem, "for_electron", classmethod(for_electron))
    elif mutant == "u-closed":
        monkeypatch.setattr(solver, "_u_closed", lambda *args: _u_closed(*args) * scale)
    elif mutant == "r_c":
        scales = constants.derived_scales
        for module in (solver, report, cli):
            monkeypatch.setattr(module, "derived_scales", lambda k: dataclasses.replace(
                scales(k), r_c=scales(k).r_c * scale))
    elif mutant == "quadrature":
        monkeypatch.setattr(observables, "integrate_axisymmetric",
                            lambda *args: integrate_axisymmetric(*args) * scale)
    else:
        monkeypatch.setattr(cli, "to_json", lambda doc: to_json(
            {**doc, "new": 1.0} if isinstance(doc, dict) else doc))
    found = [why for argv in INVOCATIONS for why in misses(argv, capsys).values()]
    why = "unclassified: anchor it or exempt it" if mutant == "new-field" else "ulp off its anchor"
    assert found and all(w.endswith(why) for w in found)

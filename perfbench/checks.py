"""Output checks that need neither numpy nor the package.

Every check raises :class:`CheckFailed` on a wrong output, so each one
can fail; the benchmark's tests feed each a deliberately wrong output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

GOLDEN_REL = 1e-12        # claim and observable values against the golden file
QUAD_REL = 1e-8           # each quadrature against its closed form
TEXT_REL = 5e-7           # the text report prints claims with 7 significant digits
OBSERVABLES = ("Q_rms", "mu_z", "L_z", "U")
# The quadrature member of mu_z is the report's labelled R x J diagnostic,
# which comes out exactly 2*pi times the closed form.
QUAD_RATIO = {"mu_z": 2.0 * math.pi}
EQUATIONS = ("gauss_B", "gauss_E", "faraday", "ampere_continuity")
EXPORT_COLUMNS = ["R", "phi", "z", "t", "E_R", "E_phi", "E_z", "B_z", "rho",
                  "J_R", "J_phi", "S_R", "S_phi", "u"]


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rel_close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * abs(reference)


def report_numbers(doc: dict) -> dict:
    """The seed-independent numeric content of a JSON report.

    Residual magnitudes are left out: they are finite-difference noise
    near 1e-10 and depend on the residual seed.
    """
    return {
        "claims": {c["id"]: c["computed_value"] for c in doc["claims"]},
        "observables": {name: {"closed_form": doc["observables"][name]["closed_form"],
                               "quadrature": doc["observables"][name]["quadrature"]}
                        for name in OBSERVABLES},
    }


def _check_claims(found: dict, golden: dict, rel: float) -> None:
    require(list(found) == list(golden["claims"]),
            f"claim ids {list(found)} differ from the golden file")
    for cid, value in found.items():
        require(rel_close(value, golden["claims"][cid], rel),
                f"claim {cid} = {value!r}, golden {golden['claims'][cid]!r}")


def check_report_output(fmt: str, text: str, golden: dict, seed: int) -> None:
    """Check one rendered report against the golden numbers.

    JSON carries every claim, observable and residual check.  CSV carries
    the claims only, and the text render the claims at 7 digits plus one
    PASS/FAIL line per residual check; for those formats the exit code 0,
    which the caller checks, is what says every residual check passed.
    """
    if fmt == "json":
        doc = json.loads(text)
        require(doc["overall_pass"] is True, "overall_pass is not true")
        require(doc["sampling"]["seed"] == seed, "report ran with another seed")
        numbers = report_numbers(doc)
        _check_claims(numbers["claims"], golden, GOLDEN_REL)
        for name, pair in numbers["observables"].items():
            for key in ("closed_form", "quadrature"):
                require(rel_close(pair[key], golden["observables"][name][key], GOLDEN_REL),
                        f"observable {name}.{key} = {pair[key]!r} differs from golden")
            ratio = QUAD_RATIO.get(name, 1.0)
            require(rel_close(pair["quadrature"], ratio * pair["closed_form"], QUAD_REL),
                    f"observable {name}: quadrature is not within {QUAD_REL:g} "
                    f"of {ratio:g} x closed form")
        checks = doc["residual_checks"]
        require([r["equation"] for r in checks] == list(EQUATIONS),
                "residual checks are missing or out of order")
        require(all(r["passed"] is True for r in checks), "a residual check failed")
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        require(all(r["passed"] == "True" for r in rows), "a claim failed")
        _check_claims({r["id"]: float(r["computed_value"]) for r in rows}, golden, GOLDEN_REL)
    elif fmt == "text":
        require(f", seed {seed}\n" in text, "report ran with another seed")
        claims = re.findall(r"^  (PASS|FAIL)  (\S+)\s+computed=(\S+)", text, re.M)
        residuals = re.findall(r"^  (PASS|FAIL)  (\S+)\s+max=", text, re.M)
        require([eq for _, eq in residuals] == list(EQUATIONS),
                "residual check lines are missing")
        require(all(s == "PASS" for s, _ in residuals), "a residual check failed")
        require(all(s == "PASS" for s, _, _ in claims), "a claim failed")
        _check_claims({cid: float(v) for _, cid, v in claims}, golden, TEXT_REL)
        require(text.rstrip().endswith("OVERALL: PASS"), "OVERALL is not PASS")
    else:
        raise ValueError(f"unknown report format {fmt!r}")

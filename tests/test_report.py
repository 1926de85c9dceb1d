"""Report assembly: claim manifest, pass rules, and the three renderers."""

import csv
import dataclasses
import io
import json
import re
from types import NoneType

import pytest

from toroidal_em.maxwell import SamplingConfig
from toroidal_em.report import (CLAIM_IDS, CSV_CLAIMS_HEADER, RATIO_TOL_ABS,
                                SCHEMA_VERSION, SI_TOL_REL, TARGET_TOL_REL,
                                build_claims, build_full_report, render)


@pytest.fixture(scope="module")
def report(k):
    return build_full_report(k, resolution=(32, 64, 64),
                             sampling=SamplingConfig(1000, 42, 1e-5))


class TestClaims:
    def test_manifest_complete_and_ordered(self, report):
        assert tuple(c.id for c in report.claims) == CLAIM_IDS
        assert len(report.claims) == 14

    def test_pass_rule_is_uniform(self, report):
        for c in report.claims:
            assert c.passed == (abs(c.rel_deviation) <= c.tolerance), c.id

    def test_all_claims_pass(self, report):
        assert all(c.passed for c in report.claims)

    def test_tolerance_tiers(self, report):
        by_id = {c.id: c for c in report.claims}
        for cid in CLAIM_IDS:
            c = by_id[cid]
            if cid.startswith("ratio."):
                assert c.tolerance == RATIO_TOL_ABS / c.reference_value
            elif cid.startswith("si."):
                assert c.tolerance == SI_TOL_REL
            elif cid.startswith("target."):
                assert c.tolerance == TARGET_TOL_REL
            else:
                assert c.tolerance == 1e-12

    def test_phase_velocity_deviation_is_exactly_zero(self, report):
        c = {c.id: c for c in report.claims}["velocity.v_phase"]
        assert c.rel_deviation == 0.0
        assert c.computed_value == c.reference_value

    def test_reference_values_pinned(self, report):
        ref = {c.id: c.reference_value for c in report.claims}
        assert ref["ratio.E0_over_ES"] == 0.286
        assert ref["ratio.R0_over_rc"] == 1.5726
        assert ref["ratio.r0_over_rc"] == 0.1516
        assert ref["ratio.U_over_mec2"] == 0.7949
        assert ref["ratio.omega_over_omegaD"] == 0.636
        assert ref["si.E0"] == 3.783e17
        assert ref["si.R0"] == 6.073e-13
        assert ref["si.r0"] == 5.854e-14
        assert ref["si.U_MeV"] == 0.406
        assert ref["si.omega"] == 9.86e20

    def test_build_claims_wants_matching_solutions(self, report, ds, k):
        claims = build_claims(report.solve_thin, report.observables, ds, k)
        assert [c.computed_value for c in claims] == [
            c.computed_value for c in report.claims]


class TestFullReport:
    def test_overall_pass(self, report):
        assert report.overall_pass is True
        assert report.overall_pass == (
            all(c.passed for c in report.claims)
            and all(r.passed for r in report.residual_checks))

    def test_metadata(self, report):
        assert report.schema_version == SCHEMA_VERSION
        assert report.resolution == (32, 64, 64)
        assert report.include_schwinger is True
        assert [r.equation for r in report.residual_checks] == [
            "gauss_B", "gauss_E", "faraday", "ampere_continuity"]

    def test_deterministic(self, k, report):
        again = build_full_report(k, resolution=(32, 64, 64),
                                  sampling=SamplingConfig(1000, 42, 1e-5))
        assert render(again, "json") == render(report, "json")


class TestRender:
    def test_json_round_trips(self, report):
        data = json.loads(render(report, "json"))
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["overall_pass"] is True
        assert len(data["claims"]) == 14
        assert [c["id"] for c in data["claims"]] == list(CLAIM_IDS)
        assert data["claims"][0]["reference_value"] == 0.286
        assert data["resolution"] == [32, 64, 64]
        assert data["observables"]["mu_quadrature_ratio"] == pytest.approx(
            6.283185307, rel=1e-9)

    def test_json_is_plain_types(self, report):
        def walk(node):
            assert type(node) in (dict, list, tuple, str, int, float, bool, NoneType)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, (list, tuple)):
                for v in node:
                    walk(v)

        walk(dataclasses.asdict(report))

    def test_csv_claims_table(self, report):
        text = render(report, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_CLAIMS_HEADER
        assert len(rows) == 15
        assert [r[0] for r in rows[1:]] == list(CLAIM_IDS)
        # repr round-trip keeps full precision
        assert float(rows[1][4]) == report.claims[0].computed_value

    def test_text_summary(self, report):
        text = render(report, "text")
        assert "OVERALL: PASS" in text
        for cid in CLAIM_IDS:
            assert cid in text
        for eq in ("gauss_B", "gauss_E", "faraday", "ampere_continuity"):
            assert eq in text
        [moment] = [line for line in text.splitlines() if "magnetic-moment" in line]
        assert "expected 2*pi when omega = 2c/R0" in moment
        assert "not part of OVERALL" in moment
        assert not re.match(r"  (PASS|FAIL)", moment)

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render(report, "yaml")

"""Report assembly: claim manifest, pass rules, and the three renderers."""

import csv
import dataclasses
import io
import json
import re
from pathlib import Path
from types import NoneType

import pytest

from toroidal_em.cli import EXPORT_UNITS
from toroidal_em.fields import AnsatzParams
from toroidal_em.maxwell import SamplingConfig
from toroidal_em.report import (CLAIM_IDS, CSV_CLAIMS_HEADER, RATIO_TOL_ABS,
                                SCHEMA_VERSION, SI_TOL_REL, TARGET_TOL_REL,
                                build_claims, build_full_report, render, to_json)


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

    def test_omega_skewed_by_5e_10_fails_the_phase_velocity(self, monkeypatch, k):
        # v_phase is measured as omega*R0, so a solved omega off 2c/R0 by
        # 5e-10 fails its 1e-12 claim, and the faraday note states the detune
        tuned = AnsatzParams.faraday.__func__

        def skewed(cls, E0, R0, r0, k=k):
            p = tuned(cls, E0, R0, r0, k)
            return dataclasses.replace(p, omega=p.omega * (1.0 + 5e-10))

        monkeypatch.setattr(AnsatzParams, "faraday", classmethod(skewed))
        mutant = build_full_report(k, resolution=(8, 8, 8), sampling=SamplingConfig(100))
        assert [c.id for c in mutant.claims if not c.passed] == ["velocity.v_phase"]
        assert [r.equation for r in mutant.residual_checks if not r.passed] == ["faraday"]
        assert mutant.residual_checks[2].note == "omega detuned from 2c/R0 by +5.000e-10 relative"

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

    @pytest.mark.parametrize("resolution", [(8, 16, 4), (32, 64, 64)], ids=str)
    @pytest.mark.parametrize("schwinger", [True, False], ids=["schwinger-on", "schwinger-off"])
    def test_json_matches_an_asdict_reference(self, k, resolution, schwinger):
        r = build_full_report(k, resolution=resolution,
                              sampling=SamplingConfig(200, 7, 1e-5),
                              include_schwinger=schwinger)
        reference = json.dumps(dataclasses.asdict(r), indent=2) + "\n"
        assert render(r, "json") == reference

    def test_json_rejects_non_finite_numbers(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                to_json({"x": value})
        with pytest.raises(TypeError):
            to_json({"x": object()})


class TestSchemaDoc:
    """The lists that docs/report_schema.md keeps by hand match the code."""

    TEXT = (Path(__file__).resolve().parent.parent / "docs" / "report_schema.md"
            ).read_text(encoding="utf-8")

    def test_claim_ids_are_the_manifest(self):
        paragraph = self.TEXT.split("The fourteen claim ids, in order:", 1)[1]
        ids = re.findall(r"`([^`]+)`", paragraph.split("\n\n", 1)[0])
        assert tuple(ids) == CLAIM_IDS

    def test_export_columns_are_the_cli_order(self):
        columns = re.search(r"The CSV column order is fixed:\s*`([^`]+)`", self.TEXT)
        assert columns.group(1).split(",") == list(EXPORT_UNITS)

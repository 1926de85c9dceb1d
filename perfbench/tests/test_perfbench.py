"""Tests of the benchmark itself: every output check can fail, the traced
report equals the untraced one, counts repeat, and the manifest matches.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from checks import CheckFailed, check_report_output
from toroidal_em import cli
from toroidal_em.constants import CODATA
from toroidal_em.solver import FULL, ConstraintSystem, solve_full
from tracer import Tracer
from workloads import (ExportField, FitSweep, Report, VerifyDense, fit_closed_form,
                       electron_targets)


@pytest.fixture
def quiet(capsys):
    """The CLI prints a line per file it writes."""
    yield
    capsys.readouterr()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One rendered report per format, with the residual seed used."""
    tmp = tmp_path_factory.mktemp("reports")
    wl = Report(7, str(tmp))
    out = {}
    for i in range(wl.cycle):
        inp = wl.op_input(i)
        assert wl.call(inp)["code"] == 0
        with open(inp["output"], encoding="utf-8") as fh:
            out[inp["format"]] = (fh.read(), inp["seed"])
    return wl.golden, out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_report_check_passes_on_real_output(reports, fmt):
    golden, out = reports
    text, seed = out[fmt]
    check_report_output(fmt, text, golden, seed)


def _json_mutations(doc):
    def claim(d):
        d["claims"][3]["computed_value"] *= 1 + 1e-9
    def observable(d):
        d["observables"]["U"]["quadrature"] *= 1 + 1e-9
    def mu_ratio(d):
        d["observables"]["mu_z"]["quadrature"] = d["observables"]["mu_z"]["closed_form"]
    def residual(d):
        d["residual_checks"][2]["passed"] = False
    def overall(d):
        d["overall_pass"] = False
    def seed(d):
        d["sampling"]["seed"] += 1
    def missing_check(d):
        del d["residual_checks"][0]
    return [claim, observable, mu_ratio, residual, overall, seed, missing_check]


@pytest.mark.parametrize("mutation", range(7))
def test_report_json_check_fails_on_wrong_output(reports, mutation):
    golden, out = reports
    text, seed = out["json"]
    doc = json.loads(text)
    _json_mutations(doc)[mutation](doc)
    with pytest.raises(CheckFailed):
        check_report_output("json", json.dumps(doc), golden, seed)


def _nudge_csv(text):
    lines = text.splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-9))
    lines[5] = ",".join(fields)
    return "".join(lines)


@pytest.mark.parametrize("wrong", [
    _nudge_csv,
    lambda t: t.replace("True", "False", 1),
    lambda t: "".join(t.splitlines(keepends=True)[:-1]),
])
def test_report_csv_check_fails_on_wrong_output(reports, wrong):
    golden, out = reports
    text, seed = out["csv"]
    with pytest.raises(CheckFailed):
        check_report_output("csv", wrong(text), golden, seed)


@pytest.mark.parametrize("wrong", [
    lambda t: t.replace("computed=2.859151e-01", "computed=2.859161e-01"),
    lambda t: t.replace("PASS  faraday", "FAIL  faraday"),
    lambda t: t.replace("OVERALL: PASS", "OVERALL: FAIL"),
    lambda t: t.replace("  PASS  si.R0", "  FAIL  si.R0"),
])
def test_report_text_check_fails_on_wrong_output(reports, wrong):
    golden, out = reports
    text, seed = out["text"]
    assert wrong(text) != text
    with pytest.raises(CheckFailed):
        check_report_output("text", wrong(text), golden, seed)


def test_report_check_fails_on_exit_code(tmp_path):
    wl = Report(1, str(tmp_path))
    with pytest.raises(CheckFailed):
        wl.check(wl.op_input(0), {"code": 1})


@pytest.mark.parametrize("i", range(3))
def test_traced_report_equals_untraced(tmp_path, quiet, i):
    wl = Report(5, str(tmp_path))
    inp = wl.op_input(i)
    tracer = Tracer()
    outcome = wl.call_traced(inp, tracer)
    with open(inp["output"], encoding="utf-8") as fh:
        traced = fh.read()
    assert cli.main(wl.argv(inp, str(tmp_path / "plain"))) == 0
    assert (tmp_path / "plain").read_text(encoding="utf-8") == traced
    wl.check(inp, outcome)  # compares with cli.main itself
    names = {span[0] for span in tracer.spans}
    assert {"cli.parse", "solver.solve_thin", "solver.solve_full", "geometry.build_grid",
            "observables.compute", "maxwell.verify", "report.build_claims",
            f"report.render_{inp['format']}", "cli.write", "fields.eval"} <= names


def test_traced_check_fails_when_traced_report_differs(tmp_path, quiet):
    wl = Report(5, str(tmp_path))
    inp = wl.op_input(0)
    outcome = wl.call_traced(inp, Tracer())
    with open(inp["output"], "a", encoding="utf-8") as fh:
        fh.write(" ")
    with pytest.raises(CheckFailed):
        wl.check(inp, outcome)


def _verify_op(wl, want_detuned):
    return next(inp for inp in map(wl.op_input, range(8)) if inp["detuned"] == want_detuned)


@pytest.fixture(scope="module")
def verify_ops():
    wl = VerifyDense(3, "")
    ops = {}
    for detuned in (False, True):
        inp = _verify_op(wl, detuned)
        ops[detuned] = (inp, wl.call(inp))
    return wl, ops


@pytest.mark.parametrize("detuned", [False, True])
def test_verify_check_passes_on_real_output(verify_ops, detuned):
    wl, ops = verify_ops
    wl.check(*ops[detuned])


def _replace_report(outcome, index, **changes):
    reports = list(outcome["reports"])
    reports[index] = dataclasses.replace(reports[index], **changes)
    return {"reports": reports}


@pytest.mark.parametrize("detuned,index,changes", [
    (False, 1, {"max_rel_residual": 2e-6}),
    (False, 2, {"passed": False}),
    (True, 2, {"passed": True}),
    (True, 0, {"passed": False}),
    (False, 3, {"n_points": 1000}),
])
def test_verify_check_fails_on_wrong_output(verify_ops, detuned, index, changes):
    wl, ops = verify_ops
    inp, outcome = ops[detuned]
    with pytest.raises(CheckFailed):
        wl.check(inp, _replace_report(outcome, index, **changes))


def test_verify_inputs_cover_the_parameter_space():
    wl = VerifyDense(11, "")
    inputs = [wl.op_input(i) for i in range(400)]
    assert sum(inp["detuned"] for inp in inputs) == 100
    R0 = np.array([inp["params"].R0 for inp in inputs])
    assert R0.min() < 1e-13 and R0.max() > 1e-2
    ratio = np.array([inp["params"].r0 / inp["params"].R0 for inp in inputs])
    assert 0.05 <= ratio.min() and ratio.max() <= 0.9


@pytest.fixture
def export_op(tmp_path, quiet):
    wl = ExportField(2, str(tmp_path))
    inp = dict(wl.op_input(0), n=9, times=[1.5e-21, 4.0e-21])
    assert wl.call(inp)["code"] == 0
    return wl, inp


def _rewrite_rows(path, change):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + [change(row) for row in rows]) + "\n")


def test_export_check_passes_on_real_and_on_17g_output(export_op):
    wl, inp = export_op
    wl.check(inp, {"code": 0})
    _rewrite_rows(inp["output"], lambda row: ",".join("%.17g" % float(v) for v in row.split(",")))
    wl.check(inp, {"code": 0})


def _nudge_e_r(row):
    values = [float(v) for v in row.split(",")]
    values[4] = float(np.nextafter(values[4], math.inf))
    return ",".join(repr(v) for v in values)


def _wrong_header(path):
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    header["columns"] = header["columns"][:-1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh)


def _drop_last_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def _repeat_last_row(path):
    with open(path, encoding="utf-8") as fh:
        last = fh.readlines()[-1]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last)


@pytest.mark.parametrize("corrupt", [
    lambda inp: _rewrite_rows(inp["output"], _nudge_e_r),
    lambda inp: _wrong_header(inp["header"]),
    lambda inp: _drop_last_row(inp["output"]),
    lambda inp: _repeat_last_row(inp["output"]),
])
def test_export_check_fails_on_wrong_output(export_op, corrupt):
    wl, inp = export_op
    corrupt(inp)
    with pytest.raises(CheckFailed):
        wl.check(inp, {"code": 0})


def test_export_ladder_mix_is_the_same_for_every_seed():
    for seed in (1, 2):
        wl = ExportField(seed, "")
        sizes = sorted((inp["n"], len(inp["times"])) for inp in map(wl.op_input, range(wl.cycle)))
        assert sizes == sorted(ExportField.LADDER)


def test_fit_check_passes_and_fails(quiet):
    wl = FitSweep(4, "")
    for i in range(wl.cycle):
        inp = wl.op_input(i)
        outcome = wl.call(inp)
        wl.check(inp, outcome)
    sr = outcome["solution"]
    wrong = dataclasses.replace(sr, E0=sr.E0 * (1 + 1e-10))
    with pytest.raises(CheckFailed):
        wl.check(inp, dict(outcome, solution=wrong, params=wrong.as_params(CODATA)))
    with pytest.raises(CheckFailed):
        wl.check(dict(inp, M=inp["M"] * (1 + 1e-9)), outcome)
    with pytest.raises(CheckFailed):
        wl.check(inp, {"error": RuntimeError("no convergence")})


def test_fit_inputs_keep_a_in_range():
    wl = FitSweep(9, "")
    a = [wl.op_input(i)["a"] for i in range(64)]
    assert 1e-4 <= min(a) and max(a) <= 0.6
    assert min(a) < 1e-3 and max(a) > 0.3


def test_closed_form_matches_the_electron_solve():
    S, Q, M = electron_targets()
    sr = solve_full(CODATA, ConstraintSystem(S, Q, M, FULL))
    for got, want in zip((sr.E0, sr.R0, sr.r0), fit_closed_form(S, Q, M)):
        assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("cls", [Report, VerifyDense, ExportField, FitSweep])
def test_inputs_come_from_the_seed(tmp_path, cls):
    def stream(seed):
        wl = cls(seed, str(tmp_path))
        return [repr(wl.op_input(i)) for i in range(2 * wl.cycle)]
    assert stream(3) == stream(3)
    assert stream(3) != stream(4)


@pytest.mark.parametrize("cls", [Report, FitSweep])
def test_counts_repeat_exactly(tmp_path, quiet, cls):
    def counts():
        wl = cls(6, str(tmp_path))
        total = {}
        for i in range(wl.cycle):
            inp = wl.op_input(i)
            for key, value in wl.counts(inp, wl.call_traced(inp, Tracer())).items():
                total[key] = total.get(key, 0) + value
            wl.cleanup(inp)
        return total
    first = counts()
    assert first == counts()
    if cls is Report:
        assert first["geometry.nodes"] == 3 * 32 * 64 * 64


def test_tracer_self_time():
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    ops = tracer.per_op()[0]
    outer, inner = ops["outer"], ops["inner"]
    assert outer[1] == pytest.approx(outer[0] - inner[0], abs=1e-12)
    assert [s[3] for s in tracer.spans] == [-1, 0]


def test_manifest_matches_the_benchmark():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    # export_field runs on demand but is left out of the manifest (README.md).
    assert [w["name"] for w in manifest["workloads"]] == ["report", "verify_dense", "fit_sweep"]
    assert set(run.WORKLOADS) == {"report", "verify_dense", "fit_sweep", "export_field"}
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

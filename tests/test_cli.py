"""Command-line interface: exit codes, formats, files, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toroidal_em.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE,
                             EXPORT_UNITS, build_parser, main)
from toroidal_em import fields
from toroidal_em.fields import AnsatzParams
from toroidal_em.geometry import build_grid
from toroidal_em.maxwell import SamplingConfig, full_verification
from toroidal_em.scalar import MIN_RESOLUTION, SamplingError
from toroidal_em.solver import ConvergenceError, solve_full

SRC = Path(__file__).resolve().parent.parent / "src"


class TestConfigDefaults:
    def test_documented_defaults(self):
        report = build_parser().parse_args(["report"])
        assert tuple(report.resolution) == (32, 64, 64)
        assert report.h == 1e-5
        assert report.samples == 1000
        assert report.seed == 42
        assert report.schwinger == "on"
        verify = build_parser().parse_args(["verify-maxwell"])
        assert verify.samples == 1000 and verify.tol == 1e-12
        assert not hasattr(verify, "seed") and not hasattr(verify, "h")
        solve = build_parser().parse_args(["solve"])
        assert solve.mode == "full"
        assert solve.schwinger == "on"

    @pytest.mark.parametrize("command, default_file", [
        ("report", "report.json"), ("export-field", "field_export.csv")])
    def test_output_help_names_the_default_file(self, capsys, command, default_file):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert f"(default: {default_file}" in " ".join(out.split())
        assert "stdout" not in out


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert build_parser() is build_parser()
        assert main(["report", "--output", "-"]) == EXIT_OK
        first = capsys.readouterr().out
        assert first.endswith("}\n")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--samples", "0"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["report", "--help"])
        assert exc.value.code == EXIT_OK
        assert main(["export-field", "--export-resolution", "4", "6", "5"]) == EXIT_OK
        grid = json.loads((tmp_path / "field_export.header.json").read_text())["grid"]
        assert (grid["n_R"], grid["n_phi"], grid["n_z"]) == (4, 6, 5)
        capsys.readouterr()
        assert main(["report", "--output", "-"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert build_parser().parse_args(["export-field"]).export_resolution == (16, 36, 16)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["constants", "--frobnicate"],
        ["report", "--res", "8", "8", "8"],  # no flag is taken by a prefix
        ["verify-maxwell", "--omega", "1.1"],
    ], ids=" ".join)
    def test_unknown_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["verify-maxwell", "--samples", "0"],
        ["verify-maxwell", "--samples", "-5"],
        ["verify-maxwell", "--omega-scale", "-1"],
        ["verify-maxwell", "--omega-scale", "1e308"],
        ["verify-maxwell", "--omega-scale", "1e280"],
        ["verify-maxwell", "--omega-scale", "nan"],
        ["verify-maxwell", "--omega-scale", "inf"],
        ["verify-maxwell", "--omega-scale=-inf"],
        ["verify-maxwell", "--omega-scale", "x"],
        ["verify-maxwell", "--tol", "nan"],
        ["report", "--resolution", "2", "2", "2"],
        ["report", "--samples", "0"],
        ["report", "--seed", "-1"],
        ["report", "--h", "0"],
        ["report", "--h", "nan"],
        ["solve", "--tol", "0"],
        ["solve", "--tol", "nan"],
        ["export-field", "--export-resolution", "0", "0", "0"],
        ["export-field", "--time", "nan"],
        ["export-field", "--time", "inf"],
        ["export-field", "--time=-inf"],
        ["export-field", "--time", "1e300"],
        ["export-field", "--time", "1e-9"],
        ["export-field", "--time", "0", "--time", "nan"],
        ["export-field", "--time", "x"],
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error")
    def test_bad_numeric_input_is_a_usage_error(self, argv, tmp_path, capsys):
        try:
            code = main(argv + ["--output", str(tmp_path / "out")])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Traceback" not in err and "FAILED" not in err
        assert len([line for line in err.splitlines() if "error: " in line]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, target", [
        (["verify-maxwell"], "maxwell.full_verification"),
        (["report"], "report.build_full_report"),
    ])
    def test_program_faults_are_not_usage_errors(self, argv, target, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(f"toroidal_em.{target}", fault)
        with pytest.raises(ValueError, match="broadcast"):
            main(argv)

    def test_report_sampling_error_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def reject(*args, **kwargs):
            raise SamplingError("the gauss_E residual is not finite in float64")

        monkeypatch.setattr("toroidal_em.report.build_full_report", reject)
        code = main(["report", "--output", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: the gauss_E residual is not finite in float64\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, target", [
        (["observables"], "geometry.build_grid"),
        (["report"], "report.build_grid"),
        (["export-field"], "fields.real_fields"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_unallocatable_grid_is_a_usage_error(self, argv, target, tmp_path, capsys,
                                                 monkeypatch):
        # numpy's error for a grid such as --resolution 100000 100000 4,
        # raised at the default sizes so that no test asks for the memory
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(10000000000,) and data type float64")

        monkeypatch.setattr(f"toroidal_em.{target}", allocate)
        code = main(argv + ["--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: not enough memory for the arrays these flags ask for: ")
        assert "74.5 GiB" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overflowing_residual_exits_two_from_a_process(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-m", "toroidal_em", "verify-maxwell",
                              "--omega-scale", "1e280"], capture_output=True, text=True, env=env)
        assert out.returncode == EXIT_USAGE
        assert out.stderr.startswith("error: the faraday residual is not finite in float64 ")
        assert out.stderr.count("\n") == 1


def _library_value(text: str):
    """The number a library caller would pass for a flag's text."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _library_accepts(call) -> bool:
    """False when ``call()`` rejects its input with a ValueError (SamplingError
    is one); a tolerance that the solution misses was still accepted."""
    try:
        call()
    except ConvergenceError:
        pass
    except ValueError:
        return False
    return True


def _parser_accepts(argv) -> bool:
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def _sampling(field):
    def call(p, value):
        return SamplingConfig(**{field: value})
    call.__name__ = f"SamplingConfig({field})"
    return call


def _verify_tol(p, value):
    return full_verification(p, SamplingConfig(n_points=2), tol=value)


def _solve_tol(p, value):
    return solve_full(tol=value)


def _grid_count(i):
    def call(p, value):
        return build_grid(p.geometry, tuple(value if j == i else 4 for j in range(3)))
    call.__name__ = f"build_grid(count {i})"
    return call


# (argv with "{}" for the value, the library call of (params, value) that
# the flag guards, the least count or None for a tolerance)
AGREEMENT_PAIRS = [
    (["verify-maxwell", "--samples", "{}"], _sampling("n_points"), 1),
    (["report", "--samples", "{}"], _sampling("n_points"), 1),
    (["report", "--seed", "{}"], _sampling("seed"), 0),
    (["report", "--h", "{}"], _sampling("h"), None),
    (["verify-maxwell", "--tol", "{}"], _verify_tol, None),
    (["verify-maxwell", "--tol", "{}"], _solve_tol, None),
    (["solve", "--tol", "{}"], _solve_tol, None),
    (["solve", "--tol", "{}"], _verify_tol, None),
    *[([command, "--resolution", *("{}" if j == i else "4" for j in range(3))],
       _grid_count(i), MIN_RESOLUTION)
      for command in ("report", "observables") for i in range(3)],
]


class TestLibraryAgreement:
    """Each numeric flag and the library rule it guards accept the same values.

    argparse checks a flag before anything is solved and names the flag in
    its error; the library checks what a caller passes.  Both copies stay,
    and these boundary values keep them from drifting apart.
    """

    @pytest.mark.parametrize("argv, library, minimum", AGREEMENT_PAIRS,
                             ids=[f"{' '.join(a)}-{f.__name__}" for a, f, _ in AGREEMENT_PAIRS])
    def test_flag_and_library_accept_the_same_values(self, argv, library, minimum, params):
        texts = ["0", "1e5", "nan", "inf", "-0.0", "5e-324"]
        if minimum is not None:
            texts += [str(minimum - 1), str(minimum)]
        verdicts = {}
        for text in texts:
            cli = _parser_accepts([a.format(text) for a in argv])
            library_verdict = _library_accepts(lambda: library(params, _library_value(text)))
            verdicts[text] = (cli, library_verdict)
        assert all(cli == lib for cli, lib in verdicts.values()), verdicts
        assert {cli for cli, _ in verdicts.values()} == {True, False}, verdicts


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _redumped(text: str) -> str:
    """``text`` parsed as strict JSON and written again by ``json.dumps(indent=2)``
    with a newline: every JSON output of the CLI is exactly that."""
    return json.dumps(json.loads(text, parse_constant=_reject_constant), indent=2) + "\n"


class TestStdoutOutput:
    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["verify-maxwell", "--samples", "20"],
        ["observables", "--resolution", "4", "4", "4"],
        ["solve"],
        pytest.param(["solve", "--mode", "thin", "--schwinger", "off"], id="solve-thin"),
        ["report", "--samples", "20", "--resolution", "4", "4", "4"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.filterwarnings("error")
    def test_dash_writes_strict_json_to_stdout(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TOROIDAL_EM_OUTDIR", str(tmp_path))
        assert main(argv + ["--output", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == _redumped(out)
        assert list(tmp_path.iterdir()) == []

    def test_export_field_rejects_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["export-field", "--output", "-"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestConstants:
    def test_json_keys_and_values(self, capsys):
        assert main(["constants"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        # the field names of PhysicalConstants, then those of DerivedScales
        assert list(doc) == ["c", "eps0", "mu0", "hbar", "e_charge", "m_e", "alpha",
                             "r_c", "E_S", "mu_B", "omega_D", "rest_energy"]
        assert doc["c"] == 299792458.0
        assert doc["e_charge"] == 1.602176634e-19
        assert doc["rest_energy"] == 9.1093837015e-31 * 299792458.0**2

    def test_csv_format(self, capsys):
        assert main(["constants", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 13
        assert lines[1].startswith("c,")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "k.json"
        assert main(["constants", "--output", str(target)]) == EXIT_OK
        assert main(["constants"]) == EXIT_OK
        assert capsys.readouterr().out.endswith(f"\n{target.read_text()}")

    def test_outdir_env_resolves_relative_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOROIDAL_EM_OUTDIR", str(tmp_path))
        assert main(["constants", "--output", "k.json"]) == EXIT_OK
        assert (tmp_path / "k.json").exists()


class TestVerifyMaxwell:
    def test_tuned_configuration_passes(self, capsys):
        assert main(["verify-maxwell", "--samples", "50"]) == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert [r["equation"] for r in reports] == [
            "gauss_B", "gauss_E", "faraday", "ampere_continuity"]
        assert all(r["passed"] for r in reports)
        assert all(r["max_rel_residual"] < 1e-6 for r in reports)

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--h", "1e-5"]], ids=" ".join)
    def test_takes_no_seed_or_h(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify-maxwell", *flag])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: toroidal-em ")
        assert err.endswith(f"\ntoroidal-em: error: unrecognized arguments: {' '.join(flag)}\n")

    @pytest.mark.parametrize("command", ["verify-maxwell", "report"])
    def test_residual_reports_carry_only_what_the_check_measured(self, capsys, command):
        assert main([command, "--samples", "50", "--output", "-"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        if command == "report":
            assert doc["schema_version"] == "3.0"
            doc = doc["residual_checks"]
        assert [list(r) for r in doc] == [[
            "equation", "n_points", "max_rel_residual", "mean_rel_residual",
            "max_abs_residual", "normalization", "normalization_value",
            "tolerance", "passed", "note"]] * 4

    @pytest.mark.parametrize("scale", ["1e-3", "1e-6", "1e-10", "5e-324", "0"])
    def test_slow_or_static_omega_fails_faraday_alone(self, capsys, scale):
        code = main(["verify-maxwell", "--omega-scale", scale])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert captured.err == "FAILED checks: faraday\n"
        continuity = json.loads(captured.out)[3]
        assert continuity["max_rel_residual"] < 1e-15
        assert continuity["note"] == ""

    def test_detune_below_a_loose_tolerance_passes_with_the_note(self, capsys):
        # the residual decides: 2e-3 against --tol 1e-2
        assert main(["verify-maxwell", "--tol", "1e-2", "--omega-scale", "1.001"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        faraday = json.loads(captured.out)[2]
        assert faraday["passed"] and faraday["tolerance"] == 1e-2
        assert 1.99e-3 < faraday["max_rel_residual"] < 2.01e-3
        assert faraday["note"] == "omega detuned from 2c/R0 by +1.000e-03 relative"

    @pytest.mark.parametrize("tol", ["1e-12", "1e-2"])
    def test_detuned_frequency_fails(self, capsys, tol):
        code = main(["verify-maxwell", "--samples", "50", "--tol", tol,
                     "--omega-scale", "1.1"])
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err == "FAILED checks: faraday\n"
        reports = json.loads(captured.out)
        byeq = {r["equation"]: r for r in reports}
        assert not byeq["faraday"]["passed"]
        assert byeq["faraday"]["max_rel_residual"] > 0.05
        assert byeq["ampere_continuity"]["passed"]

    def test_deterministic_output(self, capsys):
        main(["verify-maxwell", "--samples", "10"])
        first = capsys.readouterr().out
        main(["verify-maxwell", "--samples", "10"])
        second = capsys.readouterr().out
        assert first == second

    def test_thin_mode_also_passes(self, capsys):
        assert main(["verify-maxwell", "--samples", "20",
                     "--mode", "thin"]) == EXIT_OK


class TestObservables:
    def test_json_structure(self, capsys):
        assert main(["observables"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [list(doc[name]) for name in ("Q_rms", "mu_z", "L_z", "U")] == [
            ["closed_form", "quadrature", "rel_difference"]] * 4
        assert "note" in doc

    def test_phi_count_reaches_no_output(self, capsys):
        # n_phi allocates nothing, so a count no memory could hold runs
        outputs = []
        for n_phi in ("4", "999999999999"):
            assert main(["observables", "--resolution", "4", "4", n_phi]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_coarse_resolution_still_exact(self, capsys):
        assert main(["observables", "--resolution", "8", "16", "16"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["U"]["rel_difference"]) < 1e-8


class TestSolve:
    def test_full_solution_json(self, capsys):
        assert main(["solve"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        sol = doc["solution"]
        assert sol["iterations"] == 0
        assert max(abs(r) for r in sol["residuals"]) < 1e-12
        assert sol["mode"] == "full_corrections"

    def test_loose_tolerance_converges(self, capsys):
        assert main(["solve", "--tol", "1e-10"]) == EXIT_OK

    def test_unreachable_tolerance_fails_cleanly(self, capsys):
        code = main(["solve", "--tol", "1e-17"])
        assert code == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert "residuals" in err

    def test_thin_mode_honours_tolerance(self, capsys):
        code = main(["solve", "--mode", "thin", "--tol", "1e-17"])
        assert code == EXIT_CHECK_FAILED
        out, err = capsys.readouterr()
        assert out == ""
        assert "final residuals" in err


class TestReport:
    def test_default_writes_report_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == EXIT_OK
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["overall_pass"] is True
        assert len(doc["claims"]) == 14
        assert "wrote report.json" in capsys.readouterr().out
        # the constants block is the PhysicalConstants part of `constants`, in order
        assert main(["constants"]) == EXIT_OK
        constants = json.loads(capsys.readouterr().out)
        assert list(doc["constants"].items()) == list(constants.items())[:7]

    def test_csv_and_text_extensions(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--format", "csv", "--samples", "100"]) == EXIT_OK
        assert (tmp_path / "report.csv").read_text().startswith("id,description")
        assert main(["report", "--format", "text", "--samples", "100"]) == EXIT_OK
        assert "OVERALL: PASS" in (tmp_path / "report.txt").read_text()

    @pytest.mark.parametrize("seed, h", [("7", "1e-3"), ("0", "1"), ("4294967295", "1e-300")])
    def test_seed_and_h_are_echoed_and_read_by_nothing(self, capsys, seed, h):
        argv = ["report", "--samples", "50", "--output", "-"]
        assert main(argv) == EXIT_OK
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--seed", seed, "--h", h]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"] == {"n_points": 50, "seed": int(seed), "h": float(h)}
        assert default["sampling"] == {"n_points": 50, "seed": 42, "h": 1e-5}
        del doc["sampling"], default["sampling"]
        assert doc == default
        assert main(argv + ["--seed", seed, "--h", h, "--format", "text"]) == EXIT_OK
        assert f"50 residual nodes in R, seed {seed}\n" in capsys.readouterr().out

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "report.json"
        code = main(["report", "--output", str(target)])
        assert code == EXIT_IO
        assert "cannot write" in capsys.readouterr().err


class TestExportField:
    def test_header_rows_and_sidecar(self, tmp_path, capsys, params):
        out = tmp_path / "fields.csv"
        assert main(["export-field", "--output", str(out),
                     "--export-resolution", "8", "12", "8",
                     "--time", "0.0", "--time", "5e-22"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(EXPORT_UNITS)
        assert len(lines) == 1 + 2 * 8 * 12 * 8

        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        R, phi, z, t = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
        outside = (R - params.R0) ** 2 + z**2 >= params.r0**2
        assert outside.any() and (~outside).any()
        assert np.all(data[outside][:, 4:] == 0.0)

        # inside rows must reproduce the closed-form components
        inside = data[~outside]
        psi = inside[:, 1] - params.omega * inside[:, 3]
        np.testing.assert_allclose(inside[:, 4], -params.E0 * np.sin(psi),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            inside[:, 5], -params.E0 * (1.0 + inside[:, 0] / params.R0) * np.cos(psi),
            rtol=1e-12)
        assert np.all(inside[:, 6] == 0.0)  # E_z vanishes identically

        # each line is the repr of the public fields functions' values on the
        # export grid: shortest round-trip floats, and -0.0 kept apart from 0.0
        assert lines[1:] == self.expected_lines(params, (8, 12, 8), (0.0, 5e-22))
        assert any("-0.0" in line.split(",") for line in lines[1:])

        text = (tmp_path / "fields.header.json").read_text()
        assert text == _redumped(text)
        header = json.loads(text)
        assert header["columns"] == list(EXPORT_UNITS)
        assert header["times"] == [0.0, 5e-22]
        assert header["grid"]["n_R"] == 8
        assert set(header["units"]) == set(EXPORT_UNITS)
        p = header["params"]
        assert sorted(p) == ["E0", "R0", "omega", "r0"]
        assert AnsatzParams(**p) == AnsatzParams.faraday(p["E0"], p["R0"], p["r0"]) == params

    @staticmethod
    def expected_lines(p, resolution, times):
        n_R, n_phi, n_z = resolution
        R = np.linspace(p.R0 - 1.2 * p.r0, p.R0 + 1.2 * p.r0, n_R)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        z = np.linspace(-1.2 * p.r0, 1.2 * p.r0, n_z)
        Rg, pg, zg = (a.ravel() for a in np.meshgrid(R, phi, z, indexing="ij"))
        lines = []
        for t in times:
            E, B = fields.real_fields(Rg, pg, zg, t, p)
            J = fields.current_density(Rg, pg, zg, t, p)
            S = fields.poynting_instantaneous(Rg, pg, zg, t, p)
            cols = (Rg, pg, zg, np.full_like(Rg, t), E[0], E[1], E[2], B[2],
                    fields.charge_density(Rg, pg, zg, t, p), J[0], J[1], S[0], S[1],
                    fields.energy_density_model(Rg, pg, zg, p))
            lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]
        return lines

    def test_default_time_slice_is_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["export-field",
                     "--export-resolution", "4", "6", "4"]) == EXIT_OK
        data = np.loadtxt("field_export.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 3] == 0.0)
        assert json.loads((tmp_path / "field_export.header.json").read_text())[
            "times"] == [0.0]

    def test_negative_exponent_time_takes_the_equals_form(self, tmp_path, capsys):
        # argparse reads "--time -1e-21" as a flag: its negative-number
        # pattern has no exponent
        out = tmp_path / "fields.csv"
        assert main(["export-field", "--output", str(out), "--export-resolution", "4", "4", "4",
                     "--time=-1e-21"]) == EXIT_OK
        assert json.loads((tmp_path / "fields.header.json").read_text())["times"] == [-1e-21]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "toroidal_em", "constants"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alpha"] == pytest.approx(7.2973525693e-3)

    @staticmethod
    def imported_modules(argv) -> set:
        """Every module a ``toroidal_em`` process with ``argv`` imports."""
        # -X importtime logs every module the process imports to stderr,
        # one "import time: self | cumulative | name" line each.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "toroidal_em", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["constants", "--format", "csv"],
        ["solve"],
        ["solve", "--mode", "thin", "--schwinger", "off"],
    ], ids=" ".join)
    def test_scalar_commands_never_import_numpy(self, argv):
        imported = self.imported_modules(argv)
        assert "toroidal_em.solver" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}

    @pytest.mark.parametrize("argv, module", [
        (["report", "--output", "-"], "toroidal_em.maxwell"),
        (["observables"], "toroidal_em.observables"),
        (["verify-maxwell"], "toroidal_em.maxwell"),
        (["verify-maxwell", "--samples", "100000"], "toroidal_em.maxwell"),
    ], ids=["report", "observables", "verify-maxwell", "verify-maxwell-many-blocks"])
    def test_commands_never_import_concurrent_futures_or_numpy_random(self, argv, module):
        # a many-block verification runs every block on the calling thread,
        # and the verification draws nothing; importing numpy.random took
        # about 23 ms cumulative (-X importtime, Python 3.11, 2-vCPU VM)
        imported = self.imported_modules(argv)
        assert module in imported
        assert not {m for m in imported if m.split(".")[0] == "concurrent"
                    or m.startswith("numpy.random")}

    def test_export_field_never_imports_the_report_modules(self, tmp_path):
        # the header's schema version is read from scalar, so an export
        # loads neither the report nor the modules that only it needs
        imported = self.imported_modules(["export-field", "--export-resolution", "4", "5", "6",
                                          "--output", str(tmp_path / "fields.csv")])
        assert "toroidal_em.fields" in imported
        assert not imported & {"toroidal_em.report", "toroidal_em.maxwell",
                               "toroidal_em.observables", "toroidal_em.geometry"}

    def test_cli_import_loads_only_the_scalar_modules(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, toroidal_em.cli; print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("toroidal_em")} == {
            "toroidal_em", "toroidal_em.cli", "toroidal_em.constants",
            "toroidal_em.scalar", "toroidal_em.solver"}

    def test_entry_raises_systemexit(self, monkeypatch, capsys):
        from toroidal_em.cli import entry
        monkeypatch.setattr(sys, "argv", ["toroidal-em", "constants"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == EXIT_OK

"""Property test: ``main(argv)`` over the argparse grammar.

Every drawn command line runs in-process, with warnings as errors, in a
fresh temporary working directory that ``TOROIDAL_EM_OUTDIR`` also names,
so every file it writes lands there.  Whatever the flags, ``main`` exits
0, 1, 2 or 3 without a traceback; its stdout is the document it was asked
to print or one ``wrote <path>`` line per file; and every document, on
stdout or in a file, is strict JSON (no NaN or infinity), a CSV whose
rows all have the header's width and whose numbers are all finite, or,
for ``report --format text``, a text report without a non-finite number.

The counts are drawn small (``--samples`` up to 64, each ``--resolution``
count up to 8 but for a huge n_phi, which allocates nothing, and each
``--export-resolution`` count up to 5), so no draw allocates much.  The
drawn values include those at the edges of each flag's range, the
abbreviated flags that are usage errors, and the anchors of ``ANCHORS``,
whose exit code and stderr are known.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, strategies as st

from toroidal_em.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK,
                             EXIT_USAGE, OUTDIR_ENV, build_parser, main)

FARADAY_FAILED = "FAILED checks: faraday\n"

# argv -> (exit code, exact stderr or None to check only the code)
ANCHORS = {
    ("verify-maxwell", "--omega-scale", "0"): (EXIT_CHECK_FAILED, FARADAY_FAILED),
    ("verify-maxwell", "--omega-scale", "5e-324"): (EXIT_CHECK_FAILED, FARADAY_FAILED),
    ("verify-maxwell", "--omega-scale", "1e280"): (EXIT_USAGE, None),
    ("verify-maxwell", "--h", "1e-5"): (EXIT_USAGE, None),
    ("report", "--seed", "-1"): (EXIT_USAGE, None),
    ("report", "--h", "0"): (EXIT_USAGE, None),
    ("report", "--res", "4", "4", "4"): (EXIT_USAGE, None),
    ("report", "--samples", "8", "--resolution", "4", "4", "4", "--seed", "7",
     "--h", "0.5", "--output", "-"): (EXIT_OK, ""),
}


def texts(*values):
    return st.sampled_from(values)


def floats(low, high):
    return st.floats(low, high).map(repr)


def option(name, valid, invalid, nargs=1):
    """(valid, invalid) token lists of a flag: ``name`` and ``nargs`` values,
    all from ``valid``, or with one of them from ``invalid``."""
    def tokens(values):
        return [name, *values]

    def spoil(drawn):
        values, bad_value, i = drawn
        return values[:i] + [bad_value] + values[i + 1:]

    good = st.lists(valid, min_size=nargs, max_size=nargs)
    bad = st.tuples(good, invalid, st.integers(0, nargs - 1)).map(spoil)
    return good.map(tokens), bad.map(tokens)


def count(name, low, high, nargs=1):
    return option(name, st.integers(low, high).map(str),
                  texts(str(low - 1), "2.5", "1e5", "nan", "inf", "-0.0", "5e-324", "x"), nargs)


def positive(name):
    """A flag that takes a finite number > 0."""
    return option(name, texts("5e-324", "1e-300", "1e-12", "1e-2", "1", "1e5")
                  | floats(1e-300, 1e300),
                  texts("0", "-0.0", "-1", "nan", "inf", "-inf", "x"))


OUTPUT = option("--output", texts("-", "out.dat", "missing/out.dat", ""), st.nothing())
MODE = option("--mode", texts("thin", "full"), texts("half"))
SCHWINGER = option("--schwinger", texts("on", "off"), texts("maybe"))
SAMPLES = count("--samples", 1, 64)
RESOLUTION = count("--resolution", 4, 8, nargs=3)
EXPORT_RESOLUTION = count("--export-resolution", 1, 5, nargs=3)
# n_phi reaches no array, so it alone may be huge
HUGE_PHI = (texts(["--resolution", "4", "4", "999999999999"]), st.nothing())
# Abbreviations and unknown flags: each is a usage error.
ABBREVIATED = texts(["--out", "-"], ["--form", "csv"], ["--sample", "8"], ["--omega", "1.1"],
                    ["--schw", "off"], ["--frobnicate"], ["--res", "4", "4", "4"],
                    ["--export-res", "2", "2", "2"])

GRAMMAR = {
    "constants": [OUTPUT, option("--format", texts("json", "csv"), texts("xml"))],
    "verify-maxwell": [OUTPUT, SAMPLES, MODE, SCHWINGER, positive("--tol"), option(
        "--omega-scale", texts("0", "5e-324", "1e-10", "1.001", "1.1") | floats(0.0, 1e3),
        texts("-1", "nan", "inf", "1e280", "1e308", "x"))],
    "observables": [OUTPUT, RESOLUTION, HUGE_PHI, MODE, SCHWINGER],
    "solve": [OUTPUT, MODE, SCHWINGER, positive("--tol")],
    "report": [OUTPUT, RESOLUTION, HUGE_PHI, SAMPLES, SCHWINGER, positive("--h"),
               option("--format", texts("json", "csv", "text"), texts("pdf")),
               count("--seed", 0, 2**70)],
    # |omega*t| may reach a million periods: |t| up to about 6e-15 s
    "export-field": [OUTPUT, MODE, SCHWINGER, EXPORT_RESOLUTION,
                     option("--time", texts("0", "-0.0", "5e-324", "1e-21")
                            | floats(-1e-15, 1e-15),
                            texts("1e-9", "1e300", "nan", "inf", "-inf", "x"))],
}


@st.composite
def command_lines(draw):
    """A command with valid options, and one time in two one invalid token list."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    grammar = GRAMMAR[command]
    options = draw(st.lists(st.one_of(*(valid for valid, _ in grammar)), max_size=4))
    if command == "export-field":
        # a small grid first, which a drawn one overrides: the default
        # (16, 36, 16) is too large to run often
        options.insert(0, draw(EXPORT_RESOLUTION[0]))
    if draw(st.booleans()):
        invalid = st.one_of(*(bad for _, bad in grammar), ABBREVIATED)
        options.insert(draw(st.integers(0, len(options))), draw(invalid))
    return [command, *(token for tokens in options for token in tokens)]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def check_document(text: str, kind: str) -> None:
    """Assert that ``text`` is a strict document of ``kind``: json, csv or text."""
    assert text.endswith("\n"), text[-80:]
    if kind == "json":
        json.loads(text, parse_constant=_reject_constant)
        return
    if kind == "text":
        assert text.splitlines()[-1].startswith("OVERALL: "), text
        assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), text
        return
    header, *rows = csv.reader(io.StringIO(text))
    assert header and rows
    for row in rows:
        assert len(row) == len(header), row
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


def run(argv, workdir: Path):
    """(exit code, stdout, stderr) of ``main(argv)`` run in ``workdir``."""
    out, err = io.StringIO(), io.StringIO()
    cwd, outdir = os.getcwd(), os.environ.get(OUTDIR_ENV)
    os.chdir(workdir)
    os.environ[OUTDIR_ENV] = str(workdir)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if outdir is None:
            del os.environ[OUTDIR_ENV]
        else:
            os.environ[OUTDIR_ENV] = outdir
    return code, out.getvalue(), err.getvalue()


def kind_of(args, path: Path | None = None) -> str:
    """The format of what ``args`` print, or of the file ``path`` they wrote."""
    if path is not None and path.name.endswith(".header.json"):
        return "json"
    if args.command == "export-field":
        return "csv"
    return getattr(args, "format", "json")


def with_anchors(test):
    """Run ``test`` on every argv of ``ANCHORS`` besides the drawn ones."""
    for argv in ANCHORS:
        test = example(argv=list(argv))(test)
    return test


@given(argv=command_lines())
@with_anchors
def test_every_command_line_exits_cleanly_with_strict_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code, out, err = run(argv, workdir)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_IO), (code, err)
        assert "Traceback" not in err, err
        if tuple(argv) in ANCHORS:
            expected_code, expected_err = ANCHORS[tuple(argv)]
            assert code == expected_code, err
            assert expected_err is None or err == expected_err
        if code == EXIT_USAGE:
            assert "error: " in err, err
            return
        if code == EXIT_IO:
            assert err.startswith("error: cannot write "), err
        args = build_parser().parse_args(argv)
        written = [path for path in workdir.rglob("*") if path.is_file()]
        if args.output == "-" or (
                args.output is None and args.command not in ("report", "export-field")):
            assert written == []
            if out or code == EXIT_OK:
                check_document(out, kind_of(args))
        else:
            assert sorted(out.splitlines()) == sorted(f"wrote {path}" for path in written)
            assert written or code != EXIT_OK
        for path in written:
            check_document(path.read_text(encoding="utf-8"), kind_of(args, path))

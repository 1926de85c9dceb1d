"""Command-line interface.

Subcommands:
    constants       dump the constant set and derived scales
    verify-maxwell  run the four residual checks on solved or given params
    observables     closed-form vs quadrature observables
    solve           thin-torus or full-corrections constraint solve
    report          one-shot full comparison report (json/csv/text)
    export-field    sample the fields on a regular cylindrical grid (CSV)

Exit codes: 0 success / all checks pass; 1 verification or claim
failure; 2 usage error, a grid too large to allocate included; 3 I/O
error.  ``--output -`` writes to stdout, except for export-field, which
writes two files and rejects it.  Relative --output paths are resolved
under $TOROIDAL_EM_OUTDIR when that variable is set.

Each subcommand imports the numpy-backed modules it uses when it runs,
so ``constants`` and ``solve`` start without importing numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from .constants import CODATA, derived_scales
from .scalar import (DEFAULT_RESOLUTION, DEFAULT_TOLERANCE, MIN_RESOLUTION, SCHEMA_VERSION,
                     SamplingConfig, SamplingError, _fields_dict, to_json)
from .solver import (FULL, SOLVE_TOLERANCE, THIN, ConstraintSystem,
                     ConvergenceError, ratio_report, solve_full)

OUTDIR_ENV = "TOROIDAL_EM_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The export-field columns, in CSV order, with their units.
EXPORT_UNITS = {
    "R": "m", "phi": "rad", "z": "m", "t": "s",
    "E_R": "V/m", "E_phi": "V/m", "E_z": "V/m", "B_z": "T",
    "rho": "C/m^3", "J_R": "A/m^2", "J_phi": "A/m^2",
    "S_R": "W/m^2", "S_phi": "W/m^2", "u": "J/m^3",
}


def _resolve_output(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, output: str | None) -> int:
    """Write to --output (stdout when absent or ``-``); I/O problems exit with code 3."""
    if output is None or output == "-":
        sys.stdout.write(text)
        return EXIT_OK
    path = _resolve_output(output)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {path}")
    return EXIT_OK


def _usage_error(message: str) -> int:
    """Report flags that parse but cannot be honoured: one line, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _checked(kind, accept, requirement: str):
    """argparse ``type=`` that parses with ``kind`` and rejects values failing ``accept``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_grid_count = _checked(int, lambda n: n >= MIN_RESOLUTION,
                       f"an integer >= {MIN_RESOLUTION}")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0.0,
                     "a finite number > 0")

# Largest |omega*t| export-field accepts: a million periods.  float64 drops
# the low digits of the phase phi - omega*t, and there the fields one period
# apart already differ by ~2e-10 of E0.
_MAX_PHASE = 2.0 * math.pi * 1e6

# The defaults of --samples, --seed and --h.
_SAMPLING = SamplingConfig()


def _system(args: argparse.Namespace) -> ConstraintSystem:
    """The electron constraint system per --mode/--schwinger."""
    return ConstraintSystem.for_electron(
        CODATA, mode={"thin": THIN, "full": FULL}[args.mode],
        include_schwinger=args.schwinger == "on")


def _solve_for(args: argparse.Namespace):
    """Field parameters of the solution per --mode/--schwinger."""
    return solve_full(CODATA, _system(args)).as_params(CODATA)


def _cmd_constants(args: argparse.Namespace) -> int:
    values = {**_fields_dict(CODATA), **_fields_dict(derived_scales(CODATA))}
    if args.format == "csv":
        text = "name,value\n" + "".join(f"{n},{v!r}\n" for n, v in values.items())
    else:
        text = to_json(values)
    return _emit(text, args.output)


def _cmd_verify_maxwell(args: argparse.Namespace) -> int:
    from . import maxwell

    params = _solve_for(args)
    try:
        # AnsatzParams rejects an omega that the scale makes negative, NaN or infinite
        params = dataclasses.replace(params, omega=params.omega * args.omega_scale)
    except ValueError as exc:
        return _usage_error(f"--omega-scale {args.omega_scale!r}: {exc}")
    try:
        reports = maxwell.full_verification(params, SamplingConfig(n_points=args.samples),
                                            CODATA, args.tol)
    except SamplingError as exc:
        return _usage_error(str(exc))
    code = _emit(to_json(reports), args.output)
    if code != EXIT_OK:
        return code
    if not all(r.passed for r in reports):
        failed = [r.equation for r in reports if not r.passed]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_observables(args: argparse.Namespace) -> int:
    from .geometry import build_grid
    from .observables import compute_observables

    params = _solve_for(args)
    grid = build_grid(params.geometry, tuple(args.resolution))
    obs = compute_observables(params, grid, CODATA)
    doc = _fields_dict(obs)
    for name in ("Q_rms", "mu_z", "L_z", "U"):
        pair = doc[name]
        doc[name] = {**_fields_dict(pair), "rel_difference": pair.rel_difference}
    doc["note"] = ("mu_z quadrature is the (1/2) integral of R x J_rms "
                   "diagnostic; see mu_quadrature_ratio")
    return _emit(to_json(doc), args.output)


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        sr = solve_full(CODATA, _system(args), tol=args.tol)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"final residuals: {exc.residuals}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    rr = ratio_report(sr, derived_scales(CODATA), CODATA)
    return _emit(to_json({"solution": sr, "ratios": rr}), args.output)


def _cmd_report(args: argparse.Namespace) -> int:
    from . import report

    try:
        full = report.build_full_report(
            CODATA, resolution=tuple(args.resolution), include_schwinger=args.schwinger == "on",
            sampling=SamplingConfig(n_points=args.samples, seed=args.seed, h=args.h))
    except SamplingError as exc:
        return _usage_error(str(exc))
    ext = {"json": "json", "csv": "csv", "text": "txt"}[args.format]
    output = args.output if args.output is not None else f"report.{ext}"
    code = _emit(report.render(full, args.format), output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if full.overall_pass else EXIT_CHECK_FAILED


def _repr_column(values) -> list[str]:
    """``repr`` of each float of a column, formatted once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its sign.
    """
    import numpy as np

    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _cmd_export_field(args: argparse.Namespace) -> int:
    """Sample fields on a regular cylindrical grid spanning the tube.

    The grid extends 20% beyond the tube in R and z so the export
    includes outside-torus rows (all-zero fields), making the mask
    visible to plotting tools.
    """
    import numpy as np

    from .fields import (charge_density, current_density, energy_density_model,
                         poynting_instantaneous, real_fields)

    if args.output == "-":
        return _usage_error(
            "export-field writes a CSV and a header file; --output - (stdout) is not supported")
    params = _solve_for(args)
    times = args.time if args.time else [0.0]
    for t in times:
        if not abs(params.omega * t) <= _MAX_PHASE:  # a NaN or infinite time fails too
            return _usage_error(
                f"--time {t!r} s: the phase omega*t must be finite and within a million "
                f"periods, beyond which float64 loses its digits (omega = {params.omega!r} rad/s)")
    n_R, n_phi, n_z = args.export_resolution
    R = np.linspace(params.R0 - 1.2 * params.r0, params.R0 + 1.2 * params.r0, n_R)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    z = np.linspace(-1.2 * params.r0, 1.2 * params.r0, n_z)
    Rg, pg, zg = (a.ravel() for a in np.meshgrid(R, phi, z, indexing="ij"))

    rows = [",".join(EXPORT_UNITS)]
    for t in times:
        E, B = real_fields(Rg, pg, zg, t, params, CODATA)
        rho = charge_density(Rg, pg, zg, t, params, CODATA)
        J = current_density(Rg, pg, zg, t, params, CODATA)
        S = poynting_instantaneous(Rg, pg, zg, t, params, CODATA)
        u = energy_density_model(Rg, pg, zg, params, CODATA)
        cols = (Rg, pg, zg, np.full_like(Rg, t),
                E[0], E[1], E[2], B[2], rho, J[0], J[1], S[0], S[1], u)
        rows.extend(map(",".join, zip(*map(_repr_column, cols))))

    output = args.output if args.output is not None else "field_export.csv"
    code = _emit("\n".join(rows) + "\n", output)
    if code != EXIT_OK:
        return code

    header = {
        "schema_version": SCHEMA_VERSION,
        "columns": list(EXPORT_UNITS),
        "units": EXPORT_UNITS,
        "conventions": {
            "components": "cylindrical (R, phi, z); E_z, B_R, B_phi, J_z, S_z vanish identically",
            "real_fields": "componentwise real part of the phasor e^{i(phi - omega t)}",
            "mask": "fields are exactly zero outside the tube (boundary counts as outside)",
            "u": "normative closed-form energy density eps0*E0^2*(1 + R/(4*R0))",
        },
        "params": params,
        "times": list(times),
        "grid": {"n_R": n_R, "n_phi": n_phi, "n_z": n_z,
                 "R_span": [float(R[0]), float(R[-1])],
                 "z_span": [float(z[0]), float(z[-1])]},
    }
    header_path = os.path.splitext(output)[0] + ".header.json"
    return _emit(to_json(header), header_path)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    ``main`` reuses it for every call, so no default may be a mutable
    object that a parsed namespace could hand on to the next call.
    """
    parser = argparse.ArgumentParser(
        prog="toroidal-em",
        description="Workbench for the torus-confined rotating EM wave: "
                    "Maxwell residual checks, observables, constraint fit, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, run, **kwargs):
        # No abbreviated flags: ``verify-maxwell --h`` is a usage error, not --help.
        sp = sub.add_parser(name, allow_abbrev=False, **kwargs)
        sp.set_defaults(run=run)
        return sp

    def add_common(sp, resolution=False, sampling=False, solver=False,
                   fmt=None, output="stdout"):
        sp.add_argument("--output", help=f"output file (default: {output})")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=fmt[0])
        if resolution:
            sp.add_argument("--resolution", nargs=3, type=_grid_count,
                            default=DEFAULT_RESOLUTION,
                            metavar=("N_R", "N_THETA", "N_PHI"),
                            help="quadrature grid resolution")
        if sampling:
            sp.add_argument("--samples", type=_count, default=_SAMPLING.n_points,
                            help="residual node count: Chebyshev nodes in R")
        if solver:
            sp.add_argument("--mode", choices=["thin", "full"], default="full",
                            help="constraint solve used for the parameters")
            sp.add_argument("--schwinger", choices=["on", "off"], default="on",
                            help="keep the (1 + alpha/2pi) factor in the moment target")

    sp = add_parser("constants", _cmd_constants, help="dump constants and derived scales")
    add_common(sp, fmt=["json", "csv"])

    sp = add_parser("verify-maxwell", _cmd_verify_maxwell, help="run the four residual checks")
    add_common(sp, sampling=True, solver=True)
    sp.add_argument("--omega-scale", type=float, default=1.0,
                    help="detune omega by this factor before checking")
    sp.add_argument("--tol", type=_positive, default=DEFAULT_TOLERANCE,
                    help="normalized residual tolerance")

    sp = add_parser("observables", _cmd_observables, help="closed-form vs quadrature observables")
    add_common(sp, resolution=True, solver=True)

    sp = add_parser("solve", _cmd_solve, help="solve the three-constraint system")
    add_common(sp, solver=True)
    sp.add_argument("--tol", type=_positive, default=SOLVE_TOLERANCE)

    sp = add_parser("report", _cmd_report, help="one-shot full comparison report")
    add_common(sp, resolution=True, sampling=True, fmt=["json", "csv", "text"],
               output="report.json, report.csv or report.txt, per --format; "
                      "- writes to standard output")
    sp.add_argument("--seed", type=_seed, default=_SAMPLING.seed,
                    help="echoed in the report; the verification draws nothing")
    sp.add_argument("--h", type=_positive, default=_SAMPLING.h,
                    help="echoed in the report; no derivative reads it")
    sp.add_argument("--schwinger", choices=["on", "off"], default="on")

    sp = add_parser("export-field", _cmd_export_field,
                    help="sample fields on a regular grid as CSV")
    add_common(sp, solver=True, output="field_export.csv, with its header in "
                                       "field_export.header.json")
    sp.add_argument("--export-resolution", nargs=3, type=_count,
                    default=(16, 36, 16), metavar=("N_R", "N_PHI", "N_Z"))
    sp.add_argument("--time", type=float, action="append",
                    help="time slice in seconds (repeatable; default 0); "
                         "|omega*t| may not exceed a million periods; write a "
                         "negative exponent-form time as --time=-1e-21")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MemoryError as exc:
        # arrays that the flags size beyond the machine's memory: a usage error
        detail = str(exc) or "allocation failed"
        return _usage_error(f"not enough memory for the arrays these flags ask for: {detail}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

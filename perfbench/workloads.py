"""The four workloads: seeded inputs, the timed calls, and their checks.

Every workload calls only public entry points: ``toroidal_em.cli.main``
and module-level functions.  Op ``i`` of a run draws its inputs from
``(seed, i)`` alone, so a seed fixes the whole op stream.  Ops come in
cycles: each cycle covers the workload's input space by the same
stratified design, so runs with different seeds do the same mix of work.

Each workload provides
    op_input(i)              the generated inputs of op i
    call(inp)                the untraced op, as a user would run it
    call_traced(inp, tracer) the same public calls with a span around each
    check(inp, outcome)      raises CheckFailed on a wrong output
    counts(inp, outcome)     work counts of a traced op
    items(inp)               the op's work items (samples, rows or fits)
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from toroidal_em import cli
from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.fields import (AnsatzParams, charge_density, current_density,
                                energy_density_model, poynting_instantaneous,
                                real_fields)
from toroidal_em.geometry import build_grid
from toroidal_em.maxwell import SamplingConfig, full_verification, interior_samples
from toroidal_em.observables import compute_observables
from toroidal_em.report import (SCHEMA_VERSION, FullReport, build_claims,
                                render)
from toroidal_em.solver import (FULL, ConstraintSystem, ConvergenceError,
                                constraint_residuals, ratio_report, solve_full,
                                solve_thin_torus)

from checks import (EXPORT_COLUMNS, CheckFailed, check_report_output,
                    rel_close, require)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_REPORT = os.path.join(HERE, "golden_report.json")


def op_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, i, stream))


def cycle_position(seed: int, i: int, cycle: int) -> int:
    """Stratum of op i: a seeded permutation of 0..cycle-1 per cycle."""
    return int(np.random.default_rng((seed, i // cycle, 99)).permutation(cycle)[i % cycle])


def fit_closed_form(S: float, Q: float, M: float, k=CODATA) -> tuple[float, float, float]:
    """(E0, R0, r0) of the full-corrections fit, solved by hand.

    Eliminating E0 and R0 leaves x**2 = a*(1 + x**2/4) for x = r0/R0,
    with a = Q**2/(2*pi**2*eps0*c*S).
    """
    a = Q**2 / (2.0 * math.pi**2 * k.eps0 * k.c * S)
    x2 = a / (1.0 - a / 4.0)
    R0 = math.pi * M / (k.c * Q * (1.0 + x2 / 2.0))
    E0 = math.sqrt(2.0) * k.c * S / (Q * R0**2 * (1.0 + x2 / 4.0))
    return E0, R0, math.sqrt(x2) * R0


def electron_targets(k=CODATA) -> tuple[float, float, float]:
    """Spin hbar/2, charge e and moment mu_B*(1 + alpha/2pi)."""
    mu_b = k.e_charge * k.hbar / (2.0 * k.m_e)
    return k.hbar / 2.0, k.e_charge, mu_b * (1.0 + k.alpha / (2.0 * math.pi))


def evaluate_fields(R, phi, z, t, p: AnsatzParams) -> list[np.ndarray]:
    """The export's ten field columns, from the five pointwise evaluators."""
    E, B = real_fields(R, phi, z, t, p)
    rho = charge_density(R, phi, z, t, p, CODATA)
    J = current_density(R, phi, z, t, p, CODATA)
    S = poynting_instantaneous(R, phi, z, t, p, CODATA)
    u = energy_density_model(R, phi, z, p, CODATA)
    return [E[0], E[1], E[2], B[2], rho, J[0], J[1], S[0], S[1], u]


def _remove(*paths: str) -> None:
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class Report:
    """``toroidal-em report`` at the CLI defaults, cycling json, csv, text."""

    name = "report"
    cycle = 3
    FORMATS = ("json", "csv", "text")
    EXT = {"json": "json", "csv": "csv", "text": "txt"}
    SAMPLES = 1000

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed, self.tmp = seed, tmp
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            self.golden = json.load(fh)

    def op_input(self, i: int) -> dict:
        fmt = self.FORMATS[cycle_position(self.seed, i, self.cycle)]
        return {"format": fmt, "seed": int(op_rng(self.seed, i).integers(2**31)),
                "output": os.path.join(self.tmp, f"report-{i}.{self.EXT[fmt]}")}

    @staticmethod
    def argv(inp: dict, output: str) -> list[str]:
        return ["report", "--format", inp["format"], "--seed", str(inp["seed"]),
                "--output", output]

    def call(self, inp: dict) -> dict:
        return {"code": cli.main(self.argv(inp, inp["output"]))}

    def call_traced(self, inp: dict, tr) -> dict:
        """The stages of ``build_full_report`` and ``cli report``, one span each."""
        k = CODATA
        with tr.span("cli.main"):
            with tr.span("cli.parse"):
                args = cli.build_parser().parse_args(self.argv(inp, inp["output"]))
            sampling = SamplingConfig(n_points=args.samples, seed=args.seed, h=args.h)
            schwinger = args.schwinger == "on"
            with tr.span("constants.derived_scales"):
                ds = derived_scales(k)
            with tr.span("solver.solve_thin"):
                thin = solve_thin_torus(k, include_schwinger=schwinger)
            with tr.span("solver.solve_full"):
                full = solve_full(k, ConstraintSystem.for_electron(
                    k, mode=FULL, include_schwinger=schwinger))
            params = full.as_params(k)
            with tr.span("geometry.build_grid"):
                grid = build_grid(params.geometry, tuple(args.resolution))
            with tr.span("observables.compute"):
                observables = compute_observables(params, grid, k)
            with tr.span("maxwell.verify"):
                checks = full_verification(params, sampling, k)
            with tr.span("report.build_claims"):
                claims = build_claims(thin, observables, ds, k)
            overall = all(c.passed for c in claims) and all(r.passed for r in checks)
            report = FullReport(
                schema_version=SCHEMA_VERSION, resolution=tuple(args.resolution),
                sampling=sampling, include_schwinger=schwinger, constants=k,
                scales=ds, residual_checks=checks, observables=observables,
                solve_thin=thin, solve_full=full, ratios=ratio_report(thin, ds, k),
                claims=claims, overall_pass=overall)
            with tr.span(f"report.render_{args.format}"):
                text = render(report, args.format)
            with tr.span("cli.write"):
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
        with tr.span("maxwell.interior_samples"):
            points = interior_samples(params, sampling)
        with tr.span("fields.eval"):
            evaluate_fields(*points, params)
        return {"code": 0 if overall else 1, "traced": True, "grid": grid,
                "checks": checks, "full": full, "text": text}

    def check(self, inp: dict, outcome: dict) -> None:
        require(outcome["code"] == 0, f"exit code {outcome['code']}")
        with open(inp["output"], encoding="utf-8") as fh:
            text = fh.read()
        check_report_output(inp["format"], text, self.golden, inp["seed"])
        if outcome.get("traced"):
            reference = inp["output"] + ".reference"
            try:
                require(cli.main(self.argv(inp, reference)) == 0, "cli.main failed")
                with open(reference, encoding="utf-8") as fh:
                    require(fh.read() == text,
                            "traced report differs from the one cli.main writes")
            finally:
                _remove(reference)

    def counts(self, inp: dict, outcome: dict) -> dict:
        grid = outcome["grid"]
        return {
            "fields.points": self.SAMPLES,
            "geometry.grids": 1,
            "geometry.nodes": grid.n_nodes,
            "geometry.grid_bytes": sum(getattr(grid, a).nbytes
                                       for a in ("r", "theta", "phi", "weights", "R", "z")),
            "observables.nodes": grid.n_nodes,
            "maxwell.samples": sum(r.n_points for r in outcome["checks"]),
            "maxwell.failed_checks": sum(not r.passed for r in outcome["checks"]),
            "solver.iterations": outcome["full"].iterations,
            "report.render_bytes": len(outcome["text"].encode()),
            "cli.bytes_written": os.path.getsize(inp["output"]),
        }

    def items(self, inp: dict) -> int:
        return 4 * self.SAMPLES

    def cleanup(self, inp: dict) -> None:
        _remove(inp["output"])


class VerifyDense:
    """``full_verification`` at 100,000 interior points across parameter space."""

    name = "verify_dense"
    cycle = 4          # one op in four is detuned
    POINTS = 100_000
    MAX_TUNED = 1e-6

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def op_input(self, i: int) -> dict:
        rng = op_rng(self.seed, i)
        R0 = 10.0 ** rng.uniform(-15.0, 0.0)
        r0 = R0 * rng.uniform(0.05, 0.9)
        E0 = 10.0 ** rng.uniform(0.0, 20.0)
        detune = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.2)
        sample_seed = int(rng.integers(2**31))
        detuned = cycle_position(self.seed, i, self.cycle) == 0
        if detuned:
            params = AnsatzParams.with_omega(E0, R0, r0, 2.0 * CODATA.c / R0 * detune)
        else:
            params = AnsatzParams.faraday(E0, R0, r0)
        return {"params": params, "detuned": detuned,
                "sampling": SamplingConfig(n_points=self.POINTS, seed=sample_seed)}

    def call(self, inp: dict) -> dict:
        return {"reports": full_verification(inp["params"], inp["sampling"])}

    def call_traced(self, inp: dict, tr) -> dict:
        with tr.span("maxwell.verify"):
            reports = full_verification(inp["params"], inp["sampling"])
        with tr.span("maxwell.interior_samples"):
            points = interior_samples(inp["params"], inp["sampling"])
        with tr.span("fields.eval"):
            evaluate_fields(*points, inp["params"])
        return {"reports": reports}

    def check(self, inp: dict, outcome: dict) -> None:
        reports = outcome["reports"]
        require([r.equation for r in reports] == ["gauss_B", "gauss_E", "faraday",
                                                  "ampere_continuity"],
                "residual checks are missing or out of order")
        require(all(r.n_points == self.POINTS for r in reports), "wrong sample count")
        failed = [r.equation for r in reports if not r.passed]
        if inp["detuned"]:
            require(failed == ["faraday"], f"detuned op failed {failed}, not exactly faraday")
        else:
            require(not failed, f"tuned op failed {failed}")
            worst = max(r.max_rel_residual for r in reports)
            require(worst < self.MAX_TUNED, f"tuned residual {worst:.3e} >= {self.MAX_TUNED:g}")

    def counts(self, inp: dict, outcome: dict) -> dict:
        return {"fields.points": self.POINTS,
                "maxwell.samples": sum(r.n_points for r in outcome["reports"]),
                "maxwell.failed_checks": sum(not r.passed for r in outcome["reports"])}

    def items(self, inp: dict) -> int:
        return 4 * self.POINTS

    def cleanup(self, inp: dict) -> None:
        pass


class ExportField:
    """``toroidal-em export-field`` on n**3 grids with one or two time slices.

    Each cycle visits the (n, slices) of the ladder in a seeded order, so
    every seed writes the same mix of file sizes; the times are seeded.
    The middle size comes three times per cycle, so that the median op
    of a run is measured several times rather than once.
    """

    name = "export_field"
    cli_self_derived = True  # cli.main has no public stages to span
    LADDER = ((32, 2), (38, 1), (44, 1), (44, 1), (44, 1), (50, 1), (56, 1))
    cycle = len(LADDER)
    CHECKED_ROWS = 64

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed, self.tmp = seed, tmp
        S, Q, M = electron_targets()
        self.period = math.pi * fit_closed_form(S, Q, M)[1] / CODATA.c  # 2*pi/omega

    def op_input(self, i: int) -> dict:
        n, slices = self.LADDER[cycle_position(self.seed, i, self.cycle)]
        times = op_rng(self.seed, i).uniform(0.0, self.period, size=slices)
        output = os.path.join(self.tmp, f"export-{i}.csv")
        return {"n": n, "times": [float(t) for t in times],
                "output": output, "header": os.path.join(self.tmp, f"export-{i}.header.json"),
                "i": i}

    @staticmethod
    def argv(inp: dict) -> list[str]:
        n = str(inp["n"])
        argv = ["export-field", "--export-resolution", n, n, n]
        for t in inp["times"]:
            argv += ["--time", repr(t)]
        return argv + ["--output", inp["output"]]

    def call(self, inp: dict) -> dict:
        return {"code": cli.main(self.argv(inp))}

    def call_traced(self, inp: dict, tr) -> dict:
        """``cli.main`` as a whole, then the fields functions on the same grid."""
        with tr.span("cli.main"):
            code = cli.main(self.argv(inp))
        with open(inp["header"], encoding="utf-8") as fh:
            params = AnsatzParams(**json.load(fh)["params"])
        R, phi, z = self.grid_axes(inp["n"], params)
        Rg, pg, zg = (a.ravel() for a in np.meshgrid(R, phi, z, indexing="ij"))
        with tr.span("fields.eval"):
            for t in inp["times"]:
                evaluate_fields(Rg, pg, zg, t, params)
        return {"code": code}

    @staticmethod
    def grid_axes(n: int, p: AnsatzParams):
        """The export grid: 20% beyond the tube in R and z, uniform in phi."""
        return (np.linspace(p.R0 - 1.2 * p.r0, p.R0 + 1.2 * p.r0, n),
                2.0 * np.pi * np.arange(n) / n,
                np.linspace(-1.2 * p.r0, 1.2 * p.r0, n))

    def check(self, inp: dict, outcome: dict) -> None:
        require(outcome["code"] == 0, f"exit code {outcome['code']}")
        n, times = inp["n"], inp["times"]
        with open(inp["header"], encoding="utf-8") as fh:
            header = json.load(fh)
        require(header["columns"] == EXPORT_COLUMNS, "header lists other columns")
        require(header["times"] == times, "header lists other times")
        params = AnsatzParams(**header["params"])
        per_slice = n**3
        total = per_slice * len(times)
        wanted = set(op_rng(self.seed, inp["i"], 1).choice(total, self.CHECKED_ROWS,
                                                            replace=False).tolist())
        picked = {}
        with open(inp["output"], encoding="utf-8") as fh:
            require(fh.readline().rstrip("\n") == ",".join(EXPORT_COLUMNS),
                    "CSV header line differs")
            rows = 0
            for line in fh:
                if rows in wanted:
                    picked[rows] = line
                rows += 1
        require(rows == total, f"{rows} rows, expected {total}")
        index = np.array(sorted(picked))
        values = np.array([[float(v) for v in picked[r].split(",")] for r in index])
        require(values.shape == (len(index), len(EXPORT_COLUMNS)), "rows have the wrong width")
        R, phi, z = self.grid_axes(n, params)
        q = index % per_slice
        expected_coords = (R[q // (n * n)], phi[(q // n) % n], z[q % n])
        for col, (expected, scale) in enumerate(zip(expected_coords,
                                                    (params.R0, 2.0 * np.pi, params.R0))):
            require(np.all(np.abs(values[:, col] - expected) <= 1e-12 * scale),
                    f"column {EXPORT_COLUMNS[col]} is off the export grid")
        require(np.array_equal(values[:, 3], np.asarray(times)[index // per_slice]),
                "column t differs from the requested times")
        fields = evaluate_fields(values[:, 0], values[:, 1], values[:, 2], values[:, 3], params)
        require(np.array_equal(values[:, 4:], np.column_stack(fields)),
                "field values do not parse back to what the fields functions return")

    def counts(self, inp: dict, outcome: dict) -> dict:
        points = inp["n"] ** 3 * len(inp["times"])
        return {"fields.points": points, "cli.rows": points,
                "cli.bytes_written": os.path.getsize(inp["output"])
                + os.path.getsize(inp["header"])}

    def items(self, inp: dict) -> int:
        return inp["n"] ** 3 * len(inp["times"])

    def cleanup(self, inp: dict) -> None:
        _remove(inp["output"], inp["header"])


class FitSweep:
    """``solve_full`` then ``as_params`` then ``ratio_report`` on seeded targets.

    The targets set a = Q**2/(2*pi**2*eps0*c*S), log-uniform in 1e-4..0.6
    (stratified over a cycle of 16 fits), so r0/R0 stays <= 0.84; S and M
    each span +-3 decades around the electron's values.
    """

    name = "fit_sweep"
    cycle = 16
    A_RANGE = (1e-4, 0.6)
    MAX_RESIDUAL = 1e-12
    CLOSED_FORM_REL = 1e-11

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed
        self.scales = derived_scales(CODATA)
        self.electron = electron_targets()

    def op_input(self, i: int) -> dict:
        rng = op_rng(self.seed, i)
        lo, hi = (math.log(v) for v in self.A_RANGE)
        stratum = cycle_position(self.seed, i, self.cycle)
        a = math.exp(lo + (stratum + rng.uniform()) / self.cycle * (hi - lo))
        S = self.electron[0] * 10.0 ** rng.uniform(-3.0, 3.0)
        M = self.electron[2] * 10.0 ** rng.uniform(-3.0, 3.0)
        Q = math.sqrt(a * 2.0 * math.pi**2 * CODATA.eps0 * CODATA.c * S)
        return {"S": S, "Q": Q, "M": M, "a": a}

    def call(self, inp: dict) -> dict:
        system = ConstraintSystem(inp["S"], inp["Q"], inp["M"], FULL)
        sr = solve_full(CODATA, system)
        return {"system": system, "solution": sr, "params": sr.as_params(CODATA),
                "ratios": ratio_report(sr, self.scales, CODATA)}

    def call_traced(self, inp: dict, tr) -> dict:
        system = ConstraintSystem(inp["S"], inp["Q"], inp["M"], FULL)
        try:
            with tr.span("solver.solve_full"):
                sr = solve_full(CODATA, system)
        except ConvergenceError as exc:
            return {"error": exc}
        with tr.span("solver.as_params"):
            params = sr.as_params(CODATA)
        with tr.span("solver.ratio_report"):
            ratios = ratio_report(sr, self.scales, CODATA)
        return {"system": system, "solution": sr, "params": params, "ratios": ratios}

    def check(self, inp: dict, outcome: dict) -> None:
        require("error" not in outcome, f"solve_full raised {outcome.get('error')!r}")
        sr = outcome["solution"]
        solved = (sr.E0, sr.R0, sr.r0)
        worst = float(np.max(np.abs(constraint_residuals(solved, outcome["system"], CODATA))))
        require(worst < self.MAX_RESIDUAL, f"constraint residual {worst:.3e}")
        for name, got, want in zip(("E0", "R0", "r0"), solved,
                                   fit_closed_form(inp["S"], inp["Q"], inp["M"])):
            require(rel_close(got, want, self.CLOSED_FORM_REL),
                    f"{name} = {got!r}, closed form {want!r}")
        p = outcome["params"]
        require((p.E0, p.R0, p.r0) == solved and p.omega == 2.0 * CODATA.c / sr.R0,
                "as_params does not carry the solution")
        require(outcome["ratios"].R0_over_rc == sr.R0 / self.scales.r_c,
                "ratio_report does not carry the solution")

    def counts(self, inp: dict, outcome: dict) -> dict:
        if "error" in outcome:
            return {"solver.failures": 1}
        return {"solver.iterations": outcome["solution"].iterations, "solver.failures": 0}

    def items(self, inp: dict) -> int:
        return 1

    def cleanup(self, inp: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (Report, VerifyDense, ExportField, FitSweep)}

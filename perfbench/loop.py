"""Run one workload's closed loop in this process and print its results.

One client on one thread: the next op starts when the previous op and
its check have finished.  Only the op is timed; its output check runs
outside the timed region.  Ops run in whole cycles (see workloads.py),
and no cycle starts that is expected to end after ``--seconds``.

Set-up and whole-process probes (probes.py) run between ops, spread
over the window.  With ``--trace 1`` the loop runs twice over the same
op stream, first untraced and then traced, each for half of
``--seconds``; the traced ops then run their first cycle once more, and
the work counts of the two passes must be identical.  The last line of stdout is one JSON
object; run.py turns it into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

import toroidal_em
from checks import CheckFailed
from probes import Probes
from tracer import Tracer
from workloads import GOLDEN_REPORT, WORKLOADS

PROBE_ROUNDS = 16
CALIBRATE_EVERY_S = 0.25
# The speed the reported timings are scaled to: the calibration task takes
# exactly this long.
REFERENCE_CALIBRATION_S = 0.010
_CALIBRATION_X = np.linspace(0.0, 1.0, 20_000)


def calibrate() -> float:
    """Time a fixed task that does not touch the program: interpreter and numpy."""
    start = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    for _ in range(10):
        np.sin(3.0 * _CALIBRATION_X) + np.cos(_CALIBRATION_X)
    return perf_counter() - start


class HostSpeed:
    """The host's current speed, from the calibration task.

    On a shared 2-vCPU virtual machine every process slows and recovers
    by up to 40% over minutes; the calibration task tracks that
    (correlation about 0.9 over 3-second windows).  Timings multiplied
    by :attr:`scale` read as seconds on a host where the calibration
    takes ``REFERENCE_CALIBRATION_S``, so runs made minutes apart compare.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf
        self.refresh()

    def refresh(self) -> None:
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.last = perf_counter()

    @property
    def scale(self) -> float:
        return REFERENCE_CALIBRATION_S / float(np.median(self.samples[-5:]))


# Span name -> per-layer metric; each is the median over traced ops of
# the op's total time in that span.
SPAN_METRICS = {
    "fields.eval": "fields.eval_s",
    "geometry.build_grid": "geometry.build_grid_s",
    "observables.compute": "observables.compute_s",
    "maxwell.verify": "maxwell.verify_s",
    "maxwell.interior_samples": "maxwell.interior_samples_s",
    "solver.solve_full": "solver.solve_full_s",
    "solver.solve_thin": "solver.solve_thin_s",
    "report.build_claims": "report.build_claims_s",
    "report.render_json": "report.render_json_s",
    "report.render_csv": "report.render_csv_s",
    "report.render_text": "report.render_text_s",
    "cli.parse": "cli.parse_s",
    "cli.main": "cli.main_s",
}
# Rate -> (count, span it is divided by), both summed over traced ops.
RATE_METRICS = {
    "fields.points_per_s": ("fields.points", "fields.eval"),
    "observables.nodes_per_s": ("observables.nodes", "observables.compute"),
    "maxwell.samples_per_s": ("maxwell.samples", "maxwell.verify"),
    "cli.write_mb_per_s": ("cli.bytes_written", "cli.main"),
}
# Counts over the first cycle, which must repeat exactly.
COUNT_METRICS = ("geometry.nodes", "maxwell.samples", "maxwell.failed_checks",
                 "solver.iterations", "solver.failures", "report.render_bytes",
                 "cli.rows", "cli.bytes_written")


class Phase:
    def __init__(self) -> None:
        self.attempted = self.failed = self.items = 0
        self.busy = self.busy_scaled = 0.0
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.errors: list[str] = []
        self.totals: dict[str, float] = {}
        self.first_cycle: dict[str, float] = {}

    def summary(self) -> dict:
        lat = np.asarray(self.latencies)
        passed = len(self.latencies)
        return {
            "attempted": self.attempted, "failed": self.failed, "passed": passed,
            "busy_s": self.busy,
            "ops_per_s": passed / self.busy if self.busy else 0.0,
            "items_per_s": self.items / self.busy if self.busy else 0.0,
            "latency_p50_s": float(np.percentile(lat, 50)) if passed else 0.0,
            "latency_p90_s": float(np.percentile(lat, 90)) if passed else 0.0,
            "scaled": {
                "ops_per_s": passed / self.busy_scaled if self.busy_scaled else 0.0,
                "items_per_s": self.items / self.busy_scaled if self.busy_scaled else 0.0,
                "latency_p50_s": float(np.median(self.scaled)) if passed else 0.0,
            },
        }


def _add(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def run_op(wl, i: int, tracer: Tracer | None, phase: Phase, host: HostSpeed) -> None:
    inp = wl.op_input(i)
    phase.attempted += 1
    host.refresh()
    try:
        start = perf_counter()
        if tracer is None:
            outcome = wl.call(inp)
        else:
            tracer.op = i
            with tracer.span("op"):
                outcome = wl.call_traced(inp, tracer)
        latency = perf_counter() - start
        phase.busy += latency
        phase.busy_scaled += latency * host.scale
        if tracer is not None:
            counts = wl.counts(inp, outcome)
            _add(phase.totals, counts)
            if i < wl.cycle:
                _add(phase.first_cycle, counts)
        wl.check(inp, outcome)
    except CheckFailed as exc:
        phase.failed += 1
        phase.errors.append(f"op {i}: check failed: {exc}")
    except Exception:
        phase.failed += 1
        phase.errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
    else:
        phase.latencies.append(latency)
        phase.scaled.append(latency * host.scale)
        phase.items += wl.items(inp)
    finally:
        wl.cleanup(inp)


def run_phase(wl, seconds: float, tracer: Tracer | None, host: HostSpeed,
              probes: Probes | None = None) -> Phase:
    phase = Phase()
    start = perf_counter()
    i = 0
    while True:
        cycle_start = perf_counter()
        for _ in range(wl.cycle):
            if probes:
                probes.due(perf_counter() - start)
            run_op(wl, i, tracer, phase, host)
            i += 1
        now = perf_counter()
        if now - start + (now - cycle_start) > seconds:
            if probes:
                probes.finish()
            return phase


def layer_metrics(wl, tracer: Tracer, phase: Phase) -> dict:
    per_op = [ops for op, ops in tracer.per_op().items() if op >= 0]
    metrics = {}
    for span, name in SPAN_METRICS.items():
        values = [ops[span][0] for ops in per_op if span in ops]
        metrics[name] = float(np.median(values)) if values else 0.0
    for name, (count, span) in RATE_METRICS.items():
        busy = sum(ops[span][0] for ops in per_op if span in ops)
        scale = 1e-6 if name.endswith("mb_per_s") else 1.0
        metrics[name] = scale * phase.totals.get(count, 0) / busy if busy else 0.0
    for name in COUNT_METRICS:
        metrics[name] = phase.first_cycle.get(name, 0)
    grids = phase.totals.get("geometry.grids", 0)
    metrics["geometry.grid_mb"] = phase.totals["geometry.grid_bytes"] / grids / 1e6 \
        if grids else 0.0
    # Self time of the CLI.  Where the benchmark spans its stages (report)
    # it is measured; where cli.main is opaque (export_field) it is derived
    # as cli.main minus the separate fields call on the same grid.
    derived = getattr(wl, "cli_self_derived", False)
    self_times = [ops["cli.main"][1] - (ops["fields.eval"][0] if derived else 0.0)
                  for ops in per_op if "cli.main" in ops]
    metrics["cli.self_s"] = float(np.median(self_times)) if self_times else 0.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for op outputs")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    result_out = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the CLI prints a line per file it writes
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tmp)
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            golden = json.load(fh)
        seconds = args.seconds / 2 if args.trace else args.seconds
        host = HostSpeed()
        # Whole CLI processes are a per-layer metric, so only a traced run times them.
        probes = Probes(PROBE_ROUNDS, seconds, bool(args.trace), args.seed,
                        toroidal_em.__file__, golden, args.tmp)
        # Warm-up: lazy imports and first-touch allocations, untimed.
        warm = Phase()
        run_op(wl, 0, None, warm, host)
        untraced = run_phase(wl, seconds, None, host, probes)
        phases = [warm, untraced]
        result = {"untraced": untraced.summary(), "numpy": np.__version__,
                  "imports": probes.imports, "process_s": probes.process_s}
        if args.trace:
            tracer = Tracer()
            traced = run_phase(wl, seconds, tracer, host)
            replay = Phase()
            for i in range(wl.cycle):
                run_op(wl, i, Tracer(), replay, host)
            phases += [traced, replay]
            if replay.first_cycle != traced.first_cycle:
                result["count_mismatch"] = (f"first-cycle counts {traced.first_cycle} "
                                            f"replayed as {replay.first_cycle}")
            layers = layer_metrics(wl, tracer, traced)
            t = traced.summary()
            u_rate, t_rate = untraced.summary()["scaled"]["ops_per_s"], t["scaled"]["ops_per_s"]
            layers["trace.overhead_pct"] = 100.0 * (1.0 - t_rate / u_rate) \
                if u_rate and t_rate else 0.0
            result.update(traced=t, layers=layers)
            if args.spans:
                tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
        result["attempted"] = sum(p.attempted for p in phases) + probes.attempted
        result["failed"] = sum(p.failed for p in phases) + probes.attempted \
            - len(probes.process_s)
        result["errors"] = ([e for p in phases for e in p.errors] + probes.errors)[:5]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["calibration_s"] = float(np.median(host.samples))
    finally:
        sys.stdout.close()
        sys.stdout = result_out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

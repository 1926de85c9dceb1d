"""Benchmark of the toroidal-em workbench, run from the root of a checkout.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Workloads: report, verify_dense, fit_sweep and export_field (see README.md).
It runs the workload's closed loop (loop.py) in one child process pinned
to one BLAS/OpenMP thread; between ops that child also measures set-up,
fresh interpreters importing ``toroidal_em.cli`` (probes.py).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a
traced run gives the per-layer metrics and writes its spans under
``.perfbench/spans/``.  The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("report", "verify_dense", "export_field", "fit_sweep")
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.numpy_s": "s", "import.package_s": "s",
    "fields.eval_s": "s", "fields.points_per_s": "1/s",
    "geometry.build_grid_s": "s", "geometry.nodes": "count", "geometry.grid_mb": "MB",
    "observables.compute_s": "s", "observables.nodes_per_s": "1/s",
    "maxwell.verify_s": "s", "maxwell.samples_per_s": "1/s",
    "maxwell.interior_samples_s": "s", "maxwell.samples": "count",
    "maxwell.failed_checks": "count",
    "solver.solve_full_s": "s", "solver.solve_thin_s": "s",
    "solver.iterations": "count", "solver.failures": "count",
    "report.build_claims_s": "s", "report.render_json_s": "s",
    "report.render_csv_s": "s", "report.render_text_s": "s", "report.render_bytes": "B",
    "cli.parse_s": "s", "cli.main_s": "s", "cli.self_s": "s", "cli.rows": "count",
    "cli.bytes_written": "B", "cli.write_mb_per_s": "MB/s", "cli.process_s": "s",
    "trace.overhead_pct": "%", "host.calibration_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TOROIDAL_EM_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(numpy_version: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read(base + "level"), _read(base + "size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": model, "cache": caches, "commit": commit,
            "threads": {var: "1" for var in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toroidal_em" / "__init__.py").is_file():
        print(f"error: no toroidal_em package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    seed = args.seed % 2**32
    tmp = WORKDIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--tmp", str(tmp)]
    spans = WORKDIR / "spans" / f"{args.workload}-seed{seed}.json"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    # A process group of its own, so that a timeout also stops its probes.
    child = subprocess.Popen(command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"error: workload process ran over {DEADLINE_S:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        print(stderr, file=sys.stderr)
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    loop = json.loads(stdout.strip().splitlines()[-1])

    imports = loop["imports"]
    errors = loop["errors"] + ([loop["count_mismatch"]] if "count_mismatch" in loop else [])
    ops = loop["untraced"]
    # The loop's timings as measured; the metrics scale them to the
    # reference host speed (README.md, "Host speed").
    measured = {name: ops[name] for name in ("ops_per_s", "latency_p50_s", "items_per_s")}
    if args.trace:
        metrics = dict(loop["layers"])
        metrics["import.numpy_s"] = statistics.median(p["numpy_s"] for p in imports)
        metrics["import.package_s"] = statistics.median(p["package_s"] for p in imports)
        metrics["host.calibration_s"] = loop["calibration_s"]
        metrics["cli.process_s"] = statistics.median(loop["process_s"] or [0.0])
        units = PER_LAYER
    else:
        metrics = dict(ops["scaled"], peak_rss_mb=loop["peak_rss_mb"])
        metrics["setup_s"] = statistics.median(p["numpy_s"] + p["package_s"] for p in imports)
        units = END_TO_END
    info = {
        "environment": environment(loop["numpy"]),
        "samples": {"ops": ops["passed"], "setup_runs": len(imports),
                    "process_runs": len(loop["process_s"])},
        "measured": measured,
        "calibration_s": loop["calibration_s"],
        "errors": errors,
    }
    if ops["passed"] >= 100:
        # Not a bounded metric: the host's slow phases move it by more
        # than any bound the manifest allows (see README.md).
        info["measured"]["latency_p90_s"] = ops["latency_p90_s"]
    if args.trace:
        info["spans"] = str(spans.relative_to(ROOT))
        info["traced_ops"] = loop["traced"]["passed"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": loop["failed"] == 0 and not errors,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up and whole-process probes, spread over the measured window.

The host's speed drifts over seconds, so probes taken back to back would
all see one moment of it.  Instead the loop runs one probe round at each
op boundary where a round is due; rounds are due at equal steps of the
window, and any left over run when the window closes.  A round starts a
fresh interpreter that times ``import numpy`` and ``import
toroidal_em.cli`` inside itself and, when ``processes`` is set, one whole
``python -m toroidal_em report`` process timed from outside.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from time import perf_counter

from checks import CheckFailed, check_report_output

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import toroidal_em.cli
t2 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "package_s": t2 - t1, "file": toroidal_em.__file__}))
"""
PROBE_TIMEOUT_S = 30


class Probes:
    def __init__(self, rounds: int, seconds: float, processes: bool, seed: int,
                 package_file: str, golden: dict, tmp: str) -> None:
        self.rounds, self.seconds, self.processes = rounds, seconds, processes
        self.package_file, self.golden, self.tmp = package_file, golden, tmp
        self.rng = random.Random(seed)
        self.imports: list[dict] = []
        self.process_s: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []

    def due(self, elapsed: float) -> None:
        while len(self.imports) < self.rounds and \
                elapsed >= len(self.imports) * self.seconds / self.rounds:
            self.run_round()

    def finish(self) -> None:
        while len(self.imports) < self.rounds:
            self.run_round()

    def run_round(self) -> None:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, check=True, timeout=PROBE_TIMEOUT_S)
        probe = json.loads(out.stdout)
        if probe["file"] != self.package_file:
            raise RuntimeError(f"a fresh interpreter imported {probe['file']}, "
                               f"not {self.package_file}")
        self.imports.append(probe)
        if self.processes:
            self.time_process()

    def time_process(self) -> None:
        """Wall time of one whole ``python -m toroidal_em report``, checked."""
        self.attempted += 1
        report_seed = self.rng.randrange(2**31)
        output = os.path.join(self.tmp, "process-report.json")
        start = perf_counter()
        out = subprocess.run([sys.executable, "-m", "toroidal_em", "report",
                              "--seed", str(report_seed), "--output", output],
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = perf_counter() - start
        try:
            if out.returncode != 0:
                raise CheckFailed(f"exit code {out.returncode}: {out.stderr[-300:]}")
            with open(output, encoding="utf-8") as fh:
                check_report_output("json", fh.read(), self.golden, report_seed)
            self.process_s.append(wall)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"report process: {exc}")
        finally:
            if os.path.exists(output):
                os.remove(output)

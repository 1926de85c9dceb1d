"""Each demo script, and the README's Library example, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    """Run the interpreter on ``args`` in ``cwd`` with the package in src/ importable."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})


@pytest.mark.parametrize("demo", [
    "01_constants_and_fields.py",
    "02_maxwell_residuals.py",
    "03_observables_quadrature.py",
    "04_constraint_fit_and_report.py",
])
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme,
                      re.DOTALL | re.MULTILINE)
    assert block is not None, "README has no Library python block"
    proc = run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" True\n") == 4  # the four Maxwell checks pass

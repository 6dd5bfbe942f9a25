"""The example scripts run against the current API and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("fit_remainders.py", ["--n-max", "1"]),
    ("residual_grid.py", ["--n", "1"]),
    ("sweep_differences.py", ["--j-min", "3", "--j-max", "5", "--overlaps", "0"]),
    ("run_demo.py", ["--fast"]),
])
def test_script_exits_zero(script, args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

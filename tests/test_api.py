"""The public API holds only names that something outside the unit tests uses.

A user is the CLI, a script, the benchmark, the README or the acceptance
tests; the files are read as text, so a name counts as used when it
appears there as a whole word.  Cached functions count as functions.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import qasym

ROOT = Path(__file__).resolve().parent.parent
USER_FILES = ([ROOT / "src" / "qasym" / "cli.py", ROOT / "README.md",
               ROOT / "tests" / "test_acceptance.py"]
              + sorted((ROOT / "scripts").glob("*.py"))
              + sorted((ROOT / "perfbench").glob("*.py")))


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from qasym import *", ns)
    missing = [name for name in qasym.__all__ if name not in ns]
    assert not missing


def test_every_exported_function_has_a_user():
    text = "\n".join(p.read_text() for p in USER_FILES)
    unused = [name for name in qasym.__all__
              if inspect.isfunction(inspect.unwrap(getattr(qasym, name)))
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unused, f"exported but used only by unit tests: {unused}"


def test_import_loads_no_scipy():
    """scipy is a test-only dependency: the tests' quadrature oracles use
    it, the package does not."""
    code = ("import sys, qasym, qasym.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

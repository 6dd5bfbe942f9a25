"""Set-up of one benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports qasym, builds the workload's first input set for SEED, and
prints {"import_s": ..., "inputs_s": ...} as JSON.  ``run.py`` starts it
with ``src/`` on PYTHONPATH and times the whole process as ``setup_s``.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import qasym  # noqa: E402,F401

t1 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))

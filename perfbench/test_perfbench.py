"""Tests of the benchmark itself (not of qasym).

    python3 -m pytest perfbench -q

They check that a seed always gives the same inputs, that tracing
changes no output bit, that traced counts repeat exactly and show the
predicted zeros, that every wrapper is removed after a traced pass, and
that ``run.py`` prints the metrics ``BENCHMARK.json`` declares.
"""

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(wl, inputs):
    tracer = tracing.Tracer()
    audit = tracing.QuadAudit()
    audit.install()
    tracer.install()
    try:
        out = wl.run_pass(inputs)
    finally:
        tracer.remove()
        audit.remove()
    counts = {k: v for k, v in tracer.layer_metrics().items()
              if not k.endswith("_s")}
    return out, counts


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """One plain and two traced passes of a workload on seed 0."""
    wl = workloads.WORKLOADS[request.param]
    inputs = wl.inputs(0)
    plain = wl.run_pass(inputs)
    traced = [_traced(wl, inputs) for _ in range(2)]
    return request.param, plain, traced


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert repr(wl.params(3, 1)) == repr(wl.params(3, 1))
    assert repr(wl.params(3, 1)) != repr(wl.params(4, 1))
    assert repr(wl.params(3, 1)) != repr(wl.params(3, 2))


def test_traced_outputs_are_bit_identical(passes):
    _, plain, traced = passes
    for out, _ in traced:
        assert repr(out) == repr(plain)


def test_counts_repeat_and_predicted_zeros_hold(passes):
    name, _, ((_, first), (_, second)) = passes
    assert first == second
    if name == "sweep_split":
        for idle in ("theta.points", "qlaplace.calls", "model.diff_calls"):
            assert first[idle] == 0, idle
        assert first["equation.points"] == workloads.SWEEP_POINTS
        assert first["equation.symbol_points"] > 0
        assert first["cocycle.ch_calls"] > 0
    else:
        for idle in ("equation.points", "cocycle.ch_calls"):
            assert first[idle] == 0, idle
        assert first["theta.points"] > 0 and first["model.diff_calls"] > 0
        assert first["qlaplace.calls"] == 18


def test_check_passes_on_seed_outputs(passes):
    name, plain, _ = passes
    wl = workloads.WORKLOADS[name]
    assert all(ok for _, ok in wl.check(wl.inputs(0), plain))


def test_wrappers_are_removed():
    modules = {n: m for n, m in sys.modules.items()
               if n == "qasym" or n.startswith("qasym.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer, audit = tracing.Tracer(), tracing.QuadAudit()
    audit.install()
    tracer.install()
    assert importlib.import_module("qasym.fourier").complex_quad \
        is not before["qasym.fourier"]["complex_quad"]
    tracer.remove()
    audit.remove()
    for n, m in modules.items():
        assert all(vars(m).get(k) is v for k, v in before[n].items()), n


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, workload, declared", [
    (0, "sweep_split", run.END_TO_END), (1, "demo_qlaplace", run.PER_LAYER)])
def test_run_prints_declared_metrics(trace, workload, declared):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_sources():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero without printing a result."""
    run.SPANS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SPANS_DIR) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_split",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

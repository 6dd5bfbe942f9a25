"""Run one workload of the qasym benchmark and print its metrics.

    python3 perfbench/run.py --workload demo_qlaplace --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; qasym is imported from ``src/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``); with
``--trace 1`` they are the per-layer ones (``PER_LAYER``), from traced
passes alternated with plain passes of the same inputs.

A run, in one process and a closed loop:

1. times ``SETUP_PROBES`` fresh interpreters that import qasym and build
   the workload's inputs (``setup_probe.py``);
2. draws ``POOL`` input sets from the seed and runs passes over them in
   turn for ``--seconds`` (at least one pass; no pass is started that the
   median pass time predicts would end later);
3. checks every pass's outputs against its oracle, outside the timed
   region.  A failed check, or a scipy quadrature that did not converge
   during a pass, counts as failed.

``wall_s`` is the mean pass time of the run, its timed seconds over its
passes.  The 2-core host of ``baseline.json`` switches between two
speeds about a quarter apart for tens of seconds at a time; a median
over passes snaps to whichever speed held most of the run, while the
mean weighs both by their share, so run-to-run spread is lower.
"""

from __future__ import annotations

import os

# one thread each for BLAS and OpenMP, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

SETUP_PROBES = 3
POOL = 8

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "frac"}

PER_LAYER = {
    "theta.calls": "count", "theta.points": "count", "theta.terms": "count",
    "theta.busy_s": "s",
    "fourier.quad_calls": "count", "fourier.nodes": "count",
    "fourier.inverse_calls": "count", "fourier.limit_hits": "count",
    "fourier.roundoff_hits": "count",
    "fourier.busy_s": "s", "fourier.self_s": "s",
    "model.diff_calls": "count", "model.piece_calls": "count",
    "model.kernel_points": "count", "model.busy_s": "s", "model.self_s": "s",
    "equation.points": "count", "equation.inverse_per_point": "calls/point",
    "equation.symbol_points": "count", "equation.busy_s": "s",
    "equation.self_s": "s",
    "cocycle.ch_calls": "count", "cocycle.ch_points": "count",
    "cocycle.ray_integrals": "count", "cocycle.jump_points": "count",
    "cocycle.busy_s": "s", "cocycle.self_s": "s",
    "qlaplace.calls": "count", "qlaplace.nodes": "count",
    "qlaplace.spec_builds": "count", "qlaplace.busy_s": "s",
    "qlaplace.self_s": "s",
    "asymptotics.fit_calls": "count", "asymptotics.busy_s": "s",
    "geometry.busy_s": "s",
    "setup.import_s": "s", "setup.inputs_s": "s",
    "trace.overhead_frac": "frac",
}


def setup_times(workload: str, seed: int, n: int) -> list:
    """(wall, import, inputs) seconds of n fresh interpreters, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((wall, parts["import_s"], parts["inputs_s"]))
    return out


def fits(start: float, step: float, seconds: float) -> bool:
    """Whether one more step of the given length ends within the run."""
    return time.perf_counter() - start + step <= seconds


class PassRunner:
    """Runs timed passes of one workload, checks each, and keeps the
    tallies of the run."""

    def __init__(self, wl, audit: tracing.QuadAudit):
        self.wl = wl
        self.audit = audit
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.roundoff = 0

    @property
    def correct(self) -> bool:
        return not self.failures

    def __call__(self, inputs, tracer: tracing.Tracer | None = None):
        """One pass, traced when a tracer is given, then its checks.

        Returns the pass's seconds and the counts of the timed region
        that the tracer does not see: scipy calls and their outcomes, and
        the counts kept by the inputs."""
        self.audit.reset()
        kept = self.wl.counts(inputs)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = self.wl.run_pass(inputs)
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.remove()
        counts = {k: v - kept[k] for k, v in self.wl.counts(inputs).items()}
        counts.update({
            "fourier.limit_hits": self.audit.failures["quad_limit"],
            "fourier.roundoff_hits": self.audit.roundoff,
            "cocycle.ray_integrals": self.audit.calls["quad_vec"]})
        self.roundoff += self.audit.roundoff
        bad = sum(self.audit.failures.values())
        self.attempted += sum(self.audit.calls.values())
        if bad:
            self.failed += bad
            self.failures.append(f"{bad} non-converged quadratures "
                                 f"{dict(self.audit.failures)}")
        for name, ok in self.wl.check(inputs, out):
            self.expect(name, ok)
        return dt, counts

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qasym" / "__init__.py").is_file():
        print(f"perfbench: no qasym sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    setup = setup_times(args.workload, args.seed, SETUP_PROBES)
    pool = [wl.inputs(args.seed, i) for i in range(POOL)]

    audit = tracing.QuadAudit()
    audit.install()
    try:
        run = PassRunner(wl, audit)
        if args.trace:
            metrics = traced_run(run, pool[0], args)
            metrics["setup.import_s"] = statistics.median(s[1] for s in setup)
            metrics["setup.inputs_s"] = statistics.median(s[2] for s in setup)
            units = PER_LAYER
        else:
            times = []
            start = time.perf_counter()
            while not times or fits(start, statistics.median(times), args.seconds):
                times.append(run(pool[len(times) % POOL])[0])
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {"wall_s": statistics.fmean(times),
                       "setup_s": statistics.median(s[0] for s in setup),
                       "peak_rss_mb": rss_kb / 1024.0,
                       "ok_frac": 1.0 - run.failed / run.attempted}
            units = END_TO_END
            print(f"{args.workload}: {len(times)} passes, "
                  f"seconds {[round(t, 4) for t in times]}", file=sys.stderr)
    finally:
        audit.remove()

    for name in run.failures:
        print(f"FAILED: {name}", file=sys.stderr)
    if run.roundoff:
        print(f"note: {run.roundoff} quad results carried a round-off message",
              file=sys.stderr)
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0


def traced_run(run: PassRunner, inputs, args) -> dict:
    """Plain and traced passes in turn on one input set.

    Counts come from the first traced pass and must repeat exactly in
    every later one; times are medians over the traced passes."""
    tracer = tracing.Tracer()
    plain, traced, layer = [], [], []
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}.csv"
    spans_path.write_text("pass,id,parent,layer,name,start_s,end_s\n")
    start = time.perf_counter()
    while not traced or fits(start, statistics.median(plain)
                             + statistics.median(traced), args.seconds):
        plain.append(run(inputs)[0])
        dt, counts = run(inputs, tracer)
        traced.append(dt)
        tracer.write_spans(spans_path, len(traced) - 1)
        m = {**tracer.layer_metrics(), **counts}
        if layer:
            run.expect("trace counts repeat",
                       all(m.get(k, 0) == layer[0].get(k, 0)
                           for k, u in PER_LAYER.items() if u != "s"))
        layer.append(m)
    # a count no part of the workload keeps is 0
    out = {k: (statistics.median(m.get(k, 0) for m in layer) if u == "s"
               else layer[0].get(k, 0))
           for k, u in PER_LAYER.items() if not k.startswith(("setup.", "trace."))}
    out["trace.overhead_frac"] = (statistics.fmean(traced)
                                  / statistics.fmean(plain) - 1.0)
    print(f"{args.workload}: plain {[round(t, 4) for t in plain]}, "
          f"traced {[round(t, 4) for t in traced]}", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing for the qasym benchmark, installed from outside the library.

The layers are the qasym modules that do measurable work: theta,
fourier, qlaplace, model, equation, cocycle, asymptotics and geometry
(``frames`` and ``cli`` are not measured).  ``Tracer.install`` replaces,
in every qasym module namespace, each name under which one layer looks
up a public function of another, by a wrapper that records a span
(layer, name, start, end, parent span).  ``Tracer.remove`` puts every
original back.  Names are patched where they are looked up because
``model`` and ``qlaplace`` import ``complex_quad``, ``inv_theta`` and
``spec_for_annulus`` by name, and ``from qasym import qlaplace`` is the
function, not the module.

A few functions are also wrapped inside their own module, because the
layer calls them itself and their work is counted (``COUNTED``).

``QuadAudit`` watches the two scipy back ends in both traced and plain
runs: ``fourier.complex_quad`` drops the message scipy ``quad`` returns
when it could not meet the tolerance, and ``quad_vec`` reports
non-convergence only on request, so both would otherwise stay hidden.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("theta", "fourier", "qlaplace", "model", "equation", "cocycle",
          "asymptotics", "geometry")


def _patch(patches: list, module, attr: str, new) -> None:
    patches.append((module, attr, getattr(module, attr)))
    setattr(module, attr, new)


def _unpatch(patches: list) -> None:
    while patches:
        module, attr, old = patches.pop()
        setattr(module, attr, old)


def _size(x) -> int:
    """np.size without its cost on the scalars most calls pass."""
    return 1 if isinstance(x, (float, complex)) else np.size(x)


# --- counting hooks: hook(tracer, parent_layer, args, out) ---------------------

def _theta_eval(tr, parent, args, out):
    spec, z = args[0], args[1]
    n = _size(z)
    tr.counts["theta.calls"] += 1
    tr.counts["theta.points"] += n
    tr.counts["theta.terms"] += n * (2 * spec.P + 1)


def _spec_build(tr, parent, args, out):
    if parent == "qlaplace":
        tr.counts["qlaplace.spec_builds"] += 1


def _complex_quad(tr, parent, args, out):
    tr.counts["fourier.quad_calls"] += 1
    tr.counts["fourier.nodes"] += out[2]


def _inverse_fourier(tr, parent, args, out):
    tr.counts["fourier.inverse_calls"] += 1
    if parent == "equation":
        tr.counts["equation.inverse_calls"] += 1


def _kernel(tr, parent, args, out):
    tr.counts["model.kernel_points"] += _size(args[2])


def _counter(name: str):
    def hook(tr, parent, args, out):
        tr.counts[name] += 1
    return hook


def _ch(tr, parent, args, out):
    tr.counts["cocycle.ch_calls"] += 1
    tr.counts["cocycle.ch_points"] += _size(args[2])


def _qlaplace(tr, parent, args, out):
    tr.counts["qlaplace.calls"] += 1
    tr.counts["qlaplace.nodes"] += out.nodes_used


def _count_symbol(tr, parent, args):
    """Inverse transforms requested by the equation layer: count the m
    points at which its symbols are evaluated."""
    if parent != "equation":
        return args
    symbol = args[0]

    def counted(m):
        tr.counts["equation.symbol_points"] += _size(m)
        return symbol(m)
    return (counted,) + tuple(args[1:])


# (layer, function): (records a span, hook, hook run before the call).
# These are wrapped in their own module too.  validate_good_covering is
# here because model imports it inside verify_two_level_theorem, from
# the geometry module's namespace.
COUNTED = {
    ("theta", "theta_eval_scaled"): (False, _theta_eval, None),
    ("theta", "spec_for_annulus"): (True, _spec_build, None),
    ("fourier", "complex_quad"): (True, _complex_quad, None),
    ("fourier", "inverse_fourier"): (True, _inverse_fourier, _count_symbol),
    ("model", "consecutive_difference"): (True, _counter("model.diff_calls"), None),
    ("model", "outer_ray_piece"): (True, _counter("model.piece_calls"), None),
    ("model", "arc_piece"): (True, _counter("model.piece_calls"), None),
    ("model", "mid_segment_piece"): (True, _counter("model.piece_calls"), None),
    ("model", "kernel_shape"): (False, _kernel, None),
    ("model", "kernel_jump_shape"): (False, _kernel, None),
    ("equation", "apply_equation_operator"): (True, _counter("equation.points"), None),
    ("cocycle", "cauchy_heine_many"): (True, _ch, None),
    ("qlaplace", "qlaplace"): (True, _qlaplace, None),
    ("geometry", "validate_good_covering"): (True, None, None),
}

# Per-element helpers that other layers call once per quadrature node.
# A span would cost more than the call, so they are left unwrapped and
# their time counts toward the calling layer.
UNWRAPPED = {("geometry", "wrap_angle"), ("geometry", "polyval_im")}


class Tracer:
    """Spans and counts of one traced pass, gathered in memory.

    Per layer, ``busy`` sums the spans not nested in a span of the same
    layer, and ``self_time`` sums each span's duration minus that of its
    direct children.  Integrand code that runs inside a quadrature but
    outside any wrapped call counts toward the quadrature's self time.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.spans: list = []        # (id, parent id or -1, layer, name, start, end)
        self._stack: list = []       # open spans: [id, layer, child time]
        self._open = dict.fromkeys(LAYERS, 0)
        self._next_id = 0
        self._patches: list = []

    def reset(self) -> None:
        self.counts.clear()
        self.busy.clear()
        self.self_time.clear()
        self.spans = []
        self._next_id = 0

    def _wrap(self, layer: str, name: str, fn, span: bool, hook, before):
        tr = self
        clock = time.perf_counter
        entries = layer + ".entries"

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(tr, None, args, out)
                return out
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr._stack
            parent = stack[-1] if stack else None
            parent_layer = parent[1] if parent else None
            if before is not None:
                args = before(tr, parent_layer, args)
            frame = [tr._next_id, layer, 0.0]
            tr._next_id += 1
            top = tr._open[layer] == 0
            tr._open[layer] += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tr._open[layer] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                tr.self_time[layer] += dur - frame[2]
                if top:
                    tr.busy[layer] += dur
                    tr.counts[entries] += 1
                tr.spans.append((frame[0], parent[0] if parent else -1,
                                 layer, name, t0, t1))
            if hook is not None:
                hook(tr, parent_layer, args, out)
            return out
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {}
        for layer in LAYERS:
            mod = importlib.import_module("qasym." + layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (layer, name) not in UNWRAPPED):
                    owners[obj] = (layer, name, mod)
        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qasym" or n.startswith("qasym.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in owners:
                    continue
                layer, name, home = owners[obj]
                spec = COUNTED.get((layer, name))
                if mod is home and spec is None:
                    continue
                if obj not in wrappers:
                    span, hook, before = spec or (True, None, None)
                    wrappers[obj] = self._wrap(layer, name, obj, span, hook, before)
                _patch(self._patches, mod, attr, wrappers[obj])

    def remove(self) -> None:
        _unpatch(self._patches)

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the pass, by metric name."""
        c = self.counts
        points = c["equation.points"]
        out = {name: c[name] for name in (
            "theta.calls", "theta.points", "theta.terms",
            "fourier.quad_calls", "fourier.nodes", "fourier.inverse_calls",
            "model.diff_calls", "model.piece_calls", "model.kernel_points",
            "equation.points", "equation.symbol_points",
            "cocycle.ch_calls", "cocycle.ch_points",
            "qlaplace.calls", "qlaplace.nodes", "qlaplace.spec_builds")}
        out["equation.inverse_per_point"] = (
            c["equation.inverse_calls"] / points if points else 0.0)
        out["asymptotics.fit_calls"] = c["asymptotics.entries"]
        for layer in LAYERS:
            out[layer + ".busy_s"] = self.busy[layer]
            out[layer + ".self_s"] = self.self_time[layer]
        return out

    def write_spans(self, path, pass_id: int) -> None:
        """Append the pass's spans as CSV rows, times relative to its start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "a") as fh:
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(f"{pass_id},{sid},{parent},{layer},{name},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")


class QuadAudit:
    """Counts the scipy quadratures qasym runs, and their hidden outcomes.

    A ``quad`` message saying the subdivision limit was reached, or any
    other message except round-off, and a ``quad_vec`` call that did not
    converge, are failures.  Round-off messages (the requested relative
    tolerance is below what rounding of the integrand allows) are counted
    apart in ``roundoff``: the result still carries scipy's error estimate.
    """

    def __init__(self):
        self.calls = Counter()
        self.failures = Counter()
        self.roundoff = 0
        self._patches: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.failures.clear()
        self.roundoff = 0

    def install(self) -> None:
        fourier = importlib.import_module("qasym.fourier")
        cocycle = importlib.import_module("qasym.cocycle")
        quad, quad_vec = fourier.quad, cocycle.quad_vec

        def audited_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.calls["quad"] += 1
            # with full_output, a fourth item is scipy's warning message
            if kwargs.get("full_output") and len(out) == 4:
                message = out[3]
                if "maximum number of subdivisions" in message:
                    self.failures["quad_limit"] += 1
                elif "roundoff" in message.lower():
                    self.roundoff += 1
                else:
                    self.failures["quad_other"] += 1
            return out

        def audited_quad_vec(*args, **kwargs):
            if kwargs.get("full_output"):
                return quad_vec(*args, **kwargs)
            res, err, info = quad_vec(*args, full_output=True, **kwargs)
            self.calls["quad_vec"] += 1
            if not info.success:
                self.failures["quad_vec"] += 1
            return res, err

        _patch(self._patches, fourier, "quad", audited_quad)
        _patch(self._patches, cocycle, "quad_vec", audited_quad_vec)

    def remove(self) -> None:
        _unpatch(self._patches)

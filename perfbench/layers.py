"""Outside-in tracing of curvcert, one layer per module.

``Tracer.install`` wraps the public functions of each curvcert module and
records a span around every call: calls, inclusive seconds and self
seconds per span name, plus counters taken at the same boundaries.
Nothing inside ``src/curvcert`` changes.  Several modules bind functions
by name (``from .geometry import frame_at``) and ``Jet.__rmul__`` aliases
``__mul__``, so every module attribute and class attribute that *is* a
wrapped function is rebound, and ``uninstall`` restores them all.

The counters that need work of their own (operand scans, node-batch
digests, clipped-node counts) run outside the wrapped call, and their
time is subtracted from every enclosing span, so self and inclusive
times stay those of the program.
"""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from curvcert import (boundary, config, fields, geometry, jets, quadrature,
                      report, verify, zoo)

_clock = time.perf_counter

GEOMETRY_FUNCS = ("metric_jets", "frame_at", "jet_matrix_inverse",
                  "christoffel_jets", "gamma2_parts", "ricci")
BOUNDARY_FUNCS = ("boundary_frame", "second_fundamental_form",
                  "normal_field_jets")
VERIFY_FUNCS = {  # metric name -> function name
    "bochner": "check_bochner",
    "dimension_term": "check_dimension_term",
    "green": "check_green",
    "mv_laplacian": "check_mv_laplacian",
    "ii_identity": "check_ii_identity",
    "ricci_decomposition": "check_ricci_decomposition",
    "certify": "certify",
    "flatness_report": "flatness_report",
    "decomposition_batch": "decomposition_batch",
}
KERNEL_DIMS = (2, 3, 4)
KERNEL_BATCH = 16384
KERNEL_REPEATS = 7

# Every per-layer metric, in output order, with its unit.
PER_LAYER_UNITS = dict(
        [("jets.mul.calls", "count"), ("jets.mul.s", "s"),
         ("jets.mul.zero_operand_share", "ratio"),
         ("jets.mul.const_operand_share", "ratio"),
         ("jets.mul.bytes_computed", "B"),
         ("jets.scale.calls", "count"),
         ("jets.compose.calls", "count"), ("jets.compose.s", "s"),
         ("jets.partial.calls", "count"), ("jets.partial.s", "s"),
         ("jets.add.calls", "count")]
        + [(f"jets.kernel.{op}_us_per_1e4.d{d}", "us")
           for op in ("mul", "compose", "partial") for d in KERNEL_DIMS]
        + [("fields.jet.calls", "count"), ("fields.jet.s", "s"),
           ("fields.jet.self_s", "s"), ("fields.jet.repeat_share", "ratio")]
        + [(f"geometry.{f}.{k}", u) for f in GEOMETRY_FUNCS
           for k, u in (("calls", "count"), ("s", "s"))]
        + [("geometry.frame_at.repeat_share", "ratio")]
        + [(f"boundary.{f}.{k}", u) for f in BOUNDARY_FUNCS
           for k, u in (("calls", "count"), ("s", "s"))]
        + [("quadrature.interior.calls", "count"),
           ("quadrature.interior.nodes", "count"),
           ("quadrature.interior.chunks", "count"),
           ("quadrature.interior.self_s", "s"),
           ("quadrature.boundary.calls", "count"),
           ("quadrature.boundary.nodes", "count"),
           ("quadrature.boundary.s", "s"),
           ("quadrature.clipped_nodes", "count")]
        + [(f"verify.{name}.s", "s") for name in VERIFY_FUNCS]
        + [("verify.neumann_gate.calls", "count"),
           ("config.load_config.s", "s"), ("zoo.load.s", "s"),
           ("report.render_json.s", "s"), ("report.json_identical", "count"),
           ("trace.overhead_share", "ratio")])


def _digest(x) -> bytes:
    a = np.asarray(x)
    return hashlib.blake2b(str(a.shape).encode() + a.tobytes(),
                           digest_size=16).digest()


def _node_counts(counts, d, default):
    if counts is None:
        return (default,) * d
    if isinstance(counts, int):
        return (counts,) * d
    return tuple(int(c) for c in counts)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span and counter recorder for one traced phase of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of a name
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = []       # frames: [child seconds, hook seconds]
        self._seen = set()     # (span name, object id, node-batch digest)
        self._keep = []        # keeps keyed objects alive, so ids stay unique
        self._clipped = {}
        self._patches = []
        self._paused = False

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        """Span around ``fn``; ``hook(args, kwargs, out)`` counts after it.

        ``name`` may be a callable of the call's arguments.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            frame = [0.0, 0.0]
            tracer._stack.append(frame)
            tracer._depth[span] += 1
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                tracer._stack.pop()
                tracer._depth[span] -= 1
                net = t1 - t0 - frame[1]
                tracer.calls[span] += 1
                tracer.self_time[span] += net - frame[0]
                if tracer._depth[span] == 0:
                    tracer.inclusive[span] += net
            hook_s = 0.0
            if hook is not None:
                tracer._paused = True
                try:
                    hook(span, args, kwargs, out)
                finally:
                    tracer._paused = False
                hook_s = _clock() - t1
            if tracer._stack:
                parent = tracer._stack[-1]
                parent[0] += net
                parent[1] += frame[1] + hook_s
            return out

        return wrapper

    def _repeat(self, span, owner, x):
        key = (span, id(owner), _digest(x))
        if key in self._seen:
            self.counts[span + ".repeat"] += 1
        else:
            self._seen.add(key)
            self._keep.append(owner)

    def _clipped_nodes(self, space, counts):
        key = (id(space), counts)
        if key not in self._clipped:
            pts, _ = quadrature.tensor_rule(space.chart_box, counts)
            phi = np.asarray(space.defining_fn.value(pts))
            self._clipped[key] = int(np.count_nonzero(phi >= 0.0))
            self._keep.append(space)
        return self._clipped[key]

    def _interior_sweep(self, space, counts, chunk):
        counts = _node_counts(counts, space.dim,
                              quadrature.DEFAULT_INTERIOR_NODES)
        nodes = math.prod(counts)
        self.counts["quadrature.interior.sweeps"] += 1
        self.counts["quadrature.interior.nodes"] += nodes
        self.counts["quadrature.interior.chunks"] += math.ceil(nodes / chunk)
        self.counts["quadrature.clipped_nodes"] += \
            self._clipped_nodes(space, counts)

    def _boundary_sweep(self, patch, counts):
        counts = _node_counts(counts, patch.param_dim,
                              quadrature.DEFAULT_BOUNDARY_NODES)
        self.counts["quadrature.boundary.sweeps"] += 1
        self.counts["quadrature.boundary.nodes"] += math.prod(counts)

    # -- hooks --------------------------------------------------------

    def _hook_mul(self, span, args, kwargs, out):
        if span != "jets.mul":
            return
        a, b = args[0].coeffs, args[1].coeffs
        if not (np.any(a) and np.any(b)):
            self.counts["jets.mul.zero"] += 1
        elif not (np.any(a[1:]) and np.any(b[1:])):
            self.counts["jets.mul.const"] += 1
        self.counts["jets.mul.bytes"] += a.nbytes + b.nbytes + \
            out.coeffs.nbytes

    def _hook_repeat(self, span, args, kwargs, out):
        """Counts calls on an (object, node batch) pair seen before."""
        self._repeat(span, args[0], _arg(args, kwargs, 1, "x"))

    def _hook_interior(self, span, args, kwargs, out):
        self._interior_sweep(args[0], _arg(args, kwargs, 2, "counts"),
                             _arg(args, kwargs, 3, "chunk", 16384))

    def _hook_boundary(self, span, args, kwargs, out):
        self._boundary_sweep(_arg(args, kwargs, 2, "patch"),
                             _arg(args, kwargs, 3, "counts"))

    def _hook_batch(self, span, args, kwargs, out):
        space = args[0]
        self._interior_sweep(space, _arg(args, kwargs, 3, "quad_interior"),
                             _arg(args, kwargs, 6, "chunk", 16384))
        for patch in space.boundary_patches:
            self._boundary_sweep(patch, _arg(args, kwargs, 4,
                                             "quad_boundary"))

    # -- installation -------------------------------------------------

    def _rebind(self, original, wrapper, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "curvcert" or n.startswith("curvcert.")]

        def fn(module, attr, span, hook=None):
            original = getattr(module, attr)
            self._rebind(original, self._wrap(original, span, hook), modules)

        def method(cls, attr, span, hook=None):
            original = vars(cls)[attr]
            self._rebind(original, self._wrap(original, span, hook), [cls])

        Jet = jets.Jet
        method(Jet, "__mul__",
               lambda args: "jets.mul" if isinstance(args[1], Jet)
               else "jets.scale", self._hook_mul)
        method(Jet, "__add__", "jets.add")
        method(Jet, "compose", "jets.compose")
        method(Jet, "partial", "jets.partial")
        for cls in vars(fields).values():
            if (isinstance(cls, type) and issubclass(cls, fields.ScalarField)
                    and "jet" in vars(cls)
                    and cls.__module__ == fields.__name__):
                method(cls, "jet", "fields.jet", self._hook_repeat)
        method(geometry.WeightedSpace, "metric_jets", "geometry.metric_jets")
        for f in GEOMETRY_FUNCS[1:]:
            fn(geometry, f, f"geometry.{f}",
               self._hook_repeat if f == "frame_at" else None)
        for f in BOUNDARY_FUNCS:
            fn(boundary, f, f"boundary.{f}")
        fn(quadrature, "integrate_interior", "quadrature.interior",
           self._hook_interior)
        fn(quadrature, "integrate_boundary", "quadrature.boundary",
           self._hook_boundary)
        for metric, f in VERIFY_FUNCS.items():
            fn(verify, f, f"verify.{metric}",
               self._hook_batch if f == "decomposition_batch" else None)
        fn(verify, "neumann_gate", "verify.neumann_gate")
        fn(config, "load_config", "config.load_config")
        fn(zoo, "load", "zoo.load")
        fn(report, "render_json", "report.render_json")

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._keep.clear()
        self._seen.clear()
        self._clipped.clear()

    # -- read-out -----------------------------------------------------

    def share(self, counter, span):
        calls = self.calls[span]
        return self.counts[counter] / calls if calls else 0.0


def per_layer_metrics(setup: Tracer, traced: Tracer, json_identical: int,
                      overhead_share: float, kernels: dict) -> dict:
    """Every per-layer metric, from the set-up and the traced pass."""
    t = traced
    m = {
        "jets.mul.calls": t.calls["jets.mul"],
        "jets.mul.s": t.inclusive["jets.mul"],
        "jets.mul.zero_operand_share": t.share("jets.mul.zero", "jets.mul"),
        "jets.mul.const_operand_share": t.share("jets.mul.const",
                                                "jets.mul"),
        "jets.mul.bytes_computed": t.counts["jets.mul.bytes"],
        "jets.scale.calls": t.calls["jets.scale"],
        "jets.compose.calls": t.calls["jets.compose"],
        "jets.compose.s": t.inclusive["jets.compose"],
        "jets.partial.calls": t.calls["jets.partial"],
        "jets.partial.s": t.inclusive["jets.partial"],
        "jets.add.calls": t.calls["jets.add"],
        "fields.jet.calls": t.calls["fields.jet"],
        "fields.jet.s": t.inclusive["fields.jet"],
        "fields.jet.self_s": t.self_time["fields.jet"],
        "fields.jet.repeat_share": t.share("fields.jet.repeat", "fields.jet"),
        "geometry.frame_at.repeat_share": t.share("geometry.frame_at.repeat",
                                                  "geometry.frame_at"),
        "quadrature.interior.calls": t.counts["quadrature.interior.sweeps"],
        "quadrature.interior.nodes": t.counts["quadrature.interior.nodes"],
        "quadrature.interior.chunks": t.counts["quadrature.interior.chunks"],
        "quadrature.interior.self_s": t.self_time["quadrature.interior"],
        "quadrature.boundary.calls": t.counts["quadrature.boundary.sweeps"],
        "quadrature.boundary.nodes": t.counts["quadrature.boundary.nodes"],
        "quadrature.boundary.s": t.inclusive["quadrature.boundary"],
        "quadrature.clipped_nodes": t.counts["quadrature.clipped_nodes"],
        "verify.neumann_gate.calls": t.calls["verify.neumann_gate"],
        "config.load_config.s": setup.inclusive["config.load_config"],
        "zoo.load.s": setup.inclusive["zoo.load"],
        "report.render_json.s": t.inclusive["report.render_json"],
        "report.json_identical": json_identical,
        "trace.overhead_share": overhead_share,
    }
    for f in GEOMETRY_FUNCS + BOUNDARY_FUNCS:
        layer = "geometry" if f in GEOMETRY_FUNCS else "boundary"
        m[f"{layer}.{f}.calls"] = t.calls[f"{layer}.{f}"]
        m[f"{layer}.{f}.s"] = t.inclusive[f"{layer}.{f}"]
    for name in VERIFY_FUNCS:
        m[f"verify.{name}.s"] = t.inclusive[f"verify.{name}"]
    m.update(kernels)
    return {name: {"value": m[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds."""
    return {name: {"calls": tracer.calls[name],
                   "inclusive_s": tracer.inclusive[name],
                   "self_s": tracer.self_time[name]}
            for name in sorted(tracer.calls)}


def jet_kernel_timings(seed: int = 0) -> dict:
    """Microseconds per 10^4 points of the jet kernels, dims 2-4.

    Fixed-seed random jets over KERNEL_BATCH points; each kernel is timed
    KERNEL_REPEATS times and the median is reported.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for d in KERNEL_DIMS:
        n = jets.ncoeffs(d)
        a = jets.Jet(d, rng.standard_normal((n, KERNEL_BATCH)))
        b = jets.Jet(d, rng.standard_normal((n, KERNEL_BATCH)))
        derivs = rng.standard_normal((4, KERNEL_BATCH))
        kernels = {"mul": lambda: a * b,
                   "compose": lambda: a.compose(derivs),
                   "partial": lambda: a.partial(0)}
        for op, run in kernels.items():
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = _clock()
                run()
                times.append(_clock() - t0)
            out[f"jets.kernel.{op}_us_per_1e4.d{d}"] = \
                statistics.median(times) * 1e6 * 1e4 / KERNEL_BATCH
    return out

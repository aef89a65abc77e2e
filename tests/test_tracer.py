"""The benchmark's tracer finds every function it wraps, and the
arguments its hooks read.

``perfbench/layers.py`` wraps curvcert functions by name and reads some
of their arguments by position, so a rename or a reordering in ``src/``
would otherwise surface only in a traced benchmark run, or not at all.
"""

import importlib.util
import inspect
from pathlib import Path

from curvcert import (boundary, fields, geometry, quadrature, report, verify,
                      zoo)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    wrapped = ([(verify, f) for f in layers.VERIFY_FUNCS.values()]
               + [(verify, "neumann_gate")]
               + [(geometry, f) for f in layers.GEOMETRY_FUNCS[1:]]
               + [(boundary, f) for f in layers.BOUNDARY_FUNCS]
               + [(geometry.WeightedSpace, "metric_jets")])
    before = [getattr(owner, name) for owner, name in wrapped]
    tracer = layers.Tracer()
    try:
        tracer.install()
        for (owner, name), fn in zip(wrapped, before):
            assert getattr(owner, name) is not fn, name
    finally:
        tracer.uninstall()
    for (owner, name), fn in zip(wrapped, before):
        assert getattr(owner, name) is fn, name
    assert not tracer.calls  # nothing ran while it was installed


def test_field_jets_are_traced_on_grids():
    # a suite jets its fields on the axis lines of each interior chunk;
    # the field and frame spans still see every call, and their hooks
    # still read the points (``np.asarray`` of the second argument)
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    classes = [cls for cls in vars(fields).values()
               if isinstance(cls, type) and issubclass(cls, fields.ScalarField)]
    before = {cls: vars(cls).get("jet") for cls in classes}
    target = zoo.load("ball")
    chunks = list(quadrature.interior_chunks(target.space,
                                             target.plan.quad_interior))
    assert chunks and all(lines for _, _, lines in chunks)
    tracer = layers.Tracer()
    try:
        tracer.install()
        wrapped = [cls for cls in classes
                   if vars(cls).get("jet") is not before[cls]]
        assert fields.ScalarField in wrapped and fields.ConstField in wrapped
        assert report.run_suite(target)["passed"]
        assert tracer.calls["fields.jet"] > 0
        assert tracer.inclusive["fields.jet"] > 0.0
        assert tracer.calls["geometry.frame_at"] > 0
        assert tracer.counts["quadrature.interior.chunks"] == len(chunks)
    finally:
        tracer.uninstall()
    assert {cls: vars(cls).get("jet") for cls in classes} == before


def test_suite_gate_is_traced():
    # a suite's gated checks share one Neumann gate, which the benchmark
    # counts as ``verify.neumann_gate.calls``; and the suite calls the
    # wrapped checks by name, or their ``verify.*.s`` would read 0
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    target = zoo.load("ball")
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert report.run_suite(target)["passed"]
    finally:
        tracer.uninstall()
    assert tracer.calls["verify.neumann_gate"] == 1
    for span in ("bochner", "dimension_term", "ii_identity"):
        assert tracer.calls[f"verify.{span}"] == 1, span


def test_tracer_argument_positions():
    # the tracer's hooks read these arguments by position, and assume the
    # interior chunk size; a drift would miscount its layers silently
    def name_at(fn, pos):
        return list(inspect.signature(fn).parameters)[pos]

    jets = [cls.jet for cls in vars(fields).values()
            if isinstance(cls, type) and issubclass(cls, fields.ScalarField)
            and "jet" in vars(cls)]
    assert fields.ScalarField.jet in jets
    for fn in [geometry.frame_at] + jets:
        assert name_at(fn, 1) == "x", fn
    assert name_at(quadrature.integrate_interior, 2) == "counts"
    assert name_at(quadrature.integrate_boundary, 2) == "patch"
    assert name_at(quadrature.integrate_boundary, 3) == "counts"
    assert name_at(verify.decomposition_batch, 3) == "quad_interior"
    assert name_at(verify.decomposition_batch, 4) == "quad_boundary"
    assert quadrature.CHUNK == 16384

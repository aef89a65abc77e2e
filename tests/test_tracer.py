"""The benchmark's tracer finds every function it wraps.

``perfbench/layers.py`` wraps curvcert functions by name, so a rename in
``src/`` would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from curvcert import boundary, fields, geometry, verify

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
    # moving the evaluation behind ``jet`` must not empty the field spans
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    classes = [cls for cls in vars(fields).values()
               if isinstance(cls, type) and issubclass(cls, fields.ScalarField)]
    before = {cls: vars(cls).get("jet") for cls in classes}
    expr_jet = fields.ExprField.jet
    x = np.stack([g.ravel() for g in np.meshgrid(
        np.linspace(0.1, 1.0, 8), np.linspace(0.0, 6.0, 5), indexing="ij")])
    assert fields.grid_lines(x) is not None
    f = fields.ExprField("x^2*cos(y)", 2)
    tracer = layers.Tracer()
    try:
        tracer.install()
        wrapped = [cls for cls in classes
                   if vars(cls).get("jet") is not before[cls]]
        assert fields.ScalarField in wrapped or len(wrapped) > 1
        assert fields.ExprField.jet is not expr_jet
        f.jet(x)
        assert tracer.calls["fields.jet"] == 1
        assert tracer.inclusive["fields.jet"] > 0.0
    finally:
        tracer.uninstall()
    assert {cls: vars(cls).get("jet") for cls in classes} == before

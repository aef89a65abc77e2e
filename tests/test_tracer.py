"""The benchmark's tracer finds every function it wraps.

``perfbench/layers.py`` wraps curvcert functions by name, so a rename in
``src/`` would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from curvcert import boundary, geometry, verify

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

"""One calling convention for node batches: a function that reads one
batch takes that batch's ``NodeGeometry`` (or its ``BoundaryFrame``s) and
nothing the geometry already holds, and never builds a geometry of its
own in place of one left out."""

import inspect

import pytest

from curvcert import boundary, geometry, report, verify, zoo

OPERATORS = [
    (geometry, "ricci"), (geometry, "hessian"), (geometry, "grad"),
    (geometry, "gamma1"), (geometry, "witten_laplacian"),
    (geometry, "hs_norm_sq"), (geometry, "bakry_emery_ricci"),
    (geometry, "gamma2_parts"), (geometry, "gamma2"),
    (geometry, "christoffel_jets"),
    (boundary, "boundary_frame"), (boundary, "normal_field_jets"),
    (boundary, "second_fundamental_form"), (boundary, "mean_curvature"),
    (verify, "check_bochner"), (verify, "check_dimension_term"),
    (verify, "neumann_gate"), (verify, "check_ii_identity"),
    (verify, "interior_spectrum"), (verify, "certify"),
    (report, "bochner_geometry"),
]
BATCH_PARAMS = ("geom", "bframe", "jg", "lines")


def _params(module, name):
    return inspect.signature(getattr(module, name)).parameters


@pytest.mark.parametrize("module, name", OPERATORS,
                         ids=[f"{m.__name__}.{n}" for m, n in OPERATORS])
def test_operator_takes_its_batch(module, name):
    params = _params(module, name)
    assert not {"space", "x"} & set(params), list(params)
    for p in BATCH_PARAMS:
        assert p not in params or params[p].default is not None, p


def test_frames_take_no_options():
    # NodeGeometry hands frame_at its metric jets and lines; the
    # benchmark's tracer reads its first two arguments, space and points
    params = _params(geometry, "frame_at")
    assert list(params) == ["space", "x", "jg", "lines"]
    assert all(p.default is inspect.Parameter.empty
               for p in params.values())
    assert list(_params(boundary, "boundary_frame")) == ["geom"]


def test_sample_grids_are_geometries(monkeypatch):
    e = zoo.load("ball")
    sample, frames = e.plan.grids(e.space)
    assert isinstance(sample, geometry.NodeGeometry)
    assert sample.x.shape == (2, 576)
    assert all(bf.point is bf.geom.x for bf in frames)
    assert report.bochner_geometry(sample).x.shape == (2, 100)
    # a sample within the limit is the Bochner grid itself
    monkeypatch.setattr(report, "BOCHNER_POINTS", 576)
    assert report.bochner_geometry(sample) is sample

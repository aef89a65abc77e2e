"""g^{ij} has one formula: every consumer reads ``NodeGeometry.inverse``,
the values of ``jet_matrix_inverse``.  A wrong inverse jet therefore
moves every operator and check that contracts with g^{ij}, and on the
zoo's diagonal metrics the inverse is 1 / g_ii and 0 exactly, which is
why their reports keep their bits."""

import numpy as np
import pytest

from curvcert import geometry, report, verify, zoo
from curvcert.geometry import (NodeGeometry, gamma1, gamma2_parts, grad,
                               hessian, hs_norm_sq)
from curvcert.quadrature import (_patch_geometry, interior_chunks,
                                 patch_points, tensor_rule)
from test_geometry import DENSE_INI
from test_pointwise import _checked_rows, _target
from test_projection import _sweep_case


def _doubled(mp):
    """Make ``jet_matrix_inverse`` return every entry doubled."""
    inverse = geometry.jet_matrix_inverse
    mp.setattr(geometry, "jet_matrix_inverse",
               lambda a: [[2.0 * e for e in row] for row in inverse(a)])


def _interior_rows(mp, space, plan, g, hs):
    """Every row the weak sweep's interior integrand yields, flattened to
    the nodes."""
    rows = []
    integrate = verify.integrate_interior

    def recorded(space, F, counts=None):
        def fn(geom):
            for row in F(geom):
                rows.append(geom.at_nodes(row).reshape(-1))
                yield row

        return integrate(space, fn, counts)

    mp.setattr(verify, "integrate_interior", recorded)
    verify._weak_integrals(space, g, hs, plan.quad_interior,
                           plan.quad_boundary)
    return rows


def _readings(monkeypatch, name, H):
    """What each consumer of g^{ij} reads on ``name``'s Bochner batch and
    weak sweep; ``H`` is held fixed for ``hs_norm_sq``."""
    target = _target(name)
    space = target.space
    geom = report.bochner_geometry(target.plan.grids(space)[0])
    f, h = target.random_fields(2, seed=5)
    fields = [fi.jet(geom.x) for fi in target.random_fields(4, seed=11)]
    with monkeypatch.context() as mp:
        _, bochner, dimension = _checked_rows(
            mp, space, fields, geom, float(space.dim))
    _, plan, g, hs = _sweep_case(name)
    with monkeypatch.context() as mp:
        rows = _interior_rows(mp, space, plan, g.field, hs)
    return {"grad": grad(geom, f),
            "gamma1": gamma1(geom, f, h),
            "hs_norm_sq": hs_norm_sq(geom, H),
            "gamma2_parts": gamma2_parts(geom, f).gamma2,
            "bochner": bochner, "dimension_term": dimension,
            "weak_interior": rows}


@pytest.mark.parametrize("name", ["ball", DENSE_INI.name])
def test_every_consumer_reads_the_jet_inverse(monkeypatch, name):
    target = _target(name)
    geom = report.bochner_geometry(target.plan.grids(target.space)[0])
    H = hessian(geom, target.random_fields(1, seed=3)[0])
    want = _readings(monkeypatch, name, H)
    with monkeypatch.context() as mp:
        _doubled(mp)
        got = _readings(monkeypatch, name, H)
    # the contractions with g^{ij} alone scale exactly
    assert np.array_equal(got["grad"], 2.0 * want["grad"])
    assert np.array_equal(got["gamma1"], 2.0 * want["gamma1"])
    assert np.array_equal(got["hs_norm_sq"], 4.0 * want["hs_norm_sq"])
    assert not np.array_equal(got["gamma2_parts"], want["gamma2_parts"])
    for key in ("bochner", "dimension_term"):
        assert got[key].shape == want[key].shape == (4, geom.x.shape[1])
        for a, b in zip(got[key], want[key]):  # every field's row moves
            assert not np.array_equal(a, b), key
    assert len(got["weak_interior"]) == len(want["weak_interior"]) > 0
    for a, b in zip(got["weak_interior"], want["weak_interior"]):
        assert not np.array_equal(a, b)


def _geometries(space, plan):
    """Every node batch a suite builds a geometry for: each interior
    chunk, the sample grid, the Bochner batch, and each patch's sample
    points and quadrature nodes."""
    for x, _, lines in interior_chunks(space, plan.quad_interior):
        yield NodeGeometry(space, x, lines)
    sample, _ = plan.grids(space)
    yield sample
    yield report.bochner_geometry(sample)
    for patch in space.boundary_patches:
        yield patch_points(space, patch, plan.boundary_counts)
        s, _ = tensor_rule(patch.param_box, plan.quad_boundary)
        yield _patch_geometry(space, patch, s)[0]


@pytest.mark.parametrize("name", zoo.list_entries())
def test_zoo_inverse_is_exact_reciprocal(name):
    e = zoo.load(name)
    n = e.space.dim
    for geom in _geometries(e.space, e.plan):
        ginv, g = geom.inverse, geom.metric
        assert ginv.shape == g.shape
        for i in range(n):
            for j in range(n):
                if i == j:
                    want = (1.0 / g[i, i]).view(np.int64)
                else:
                    want = np.zeros(g.shape[2:], np.int64)
                assert np.array_equal(ginv[i, j].view(np.int64), want)


def test_dense_inverse_matches_linalg():
    target = _target(DENSE_INI.name)
    for geom in _geometries(target.space, target.plan):
        oracle = np.moveaxis(np.linalg.inv(np.moveaxis(
            geom.metric, (0, 1), (-2, -1))), (-2, -1), (0, 1))
        assert geom.inverse.shape == oracle.shape
        assert np.all(np.abs(geom.inverse - oracle)
                      <= 4e-16 * np.abs(oracle))

"""Geometry and expression fields are evaluated once per distinct point of
the chart axes they read, then gathered to the nodes.  The gathered
results must equal the direct evaluation bit for bit, on every zoo entry
and on the INI space, and errors must read as the direct evaluation's.
The direct path is forced by making ``distinct`` return None."""

import numpy as np
import pytest

from curvcert import config, exprlang, fields, geometry, quadrature, report
from curvcert import verify, zoo
from curvcert.exprlang import EvalError
from curvcert.fields import ExprField, distinct
from curvcert.geometry import GeometryError, NodeGeometry
from curvcert.jets import Jet, JetError
from test_geometry import DENSE_INI

NAMES = zoo.list_entries() + [DENSE_INI.name]


def _target(name):
    if name == DENSE_INI.name:
        return report.target_from_config(config.load_config(str(DENSE_INI)))
    return report.target_from_zoo(zoo.load(name))


def _direct(mp):
    """Evaluate directly: every module that binds ``distinct`` sees None."""
    for module in (fields, geometry):
        mp.setattr(module, "distinct", lambda x, axes: None)


def _both(monkeypatch, run):
    """``run()`` projected, then with the direct path forced."""
    projected = run()
    with monkeypatch.context() as mp:
        _direct(mp)
        return projected, run()


def _grids(space, plan):
    """Each geometry a suite builds on a grid: the first interior
    quadrature chunk, each boundary patch's quadrature nodes, and the
    interior and boundary sample grids."""
    pts, _ = quadrature.tensor_rule(space.chart_box, plan.quad_interior)
    yield pts[:, :quadrature.CHUNK]
    for patch in space.boundary_patches:
        s, _ = quadrature.tensor_rule(patch.param_box, plan.quad_boundary)
        yield quadrature._patch_geometry(space, patch, s)[0].x
    x, frames = plan.grids(space)
    yield x
    for bf in frames:
        yield bf.point


class TestBitIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_report_json(self, monkeypatch, name):
        target = _target(name)
        a, b = _both(monkeypatch, lambda: report.render_json(
            report.run_suite(target)))
        assert a == b

    @pytest.mark.parametrize("name", ["ball3", DENSE_INI.name])
    def test_decomposition_batch_pairs(self, monkeypatch, name):
        target = _target(name)
        space, plan = target.space, target.plan
        if name == DENSE_INI.name:
            g = target.neumann("0.3*x + 0.2*x^2*cos(y) + (-0.25)*x*sin(y)")
            hs = [target.h_field(f"1 + {c}*x^2*cos(y) + 0.1*sin(2*y)")
                  for c in ("0.2", "(-0.15)")]
        else:
            g, hs = target.neumann(), zoo.load(name).h_fields()[:2]

        def pairs():
            return [tuple(float.hex(v) for v in pair)
                    for pair in verify.decomposition_batch(
                        space, g, hs, plan.quad_interior, plan.quad_boundary,
                        plan.boundary_counts)]

        a, b = _both(monkeypatch, pairs)
        assert a == b

    @pytest.mark.parametrize("name", NAMES)
    def test_node_geometry_arrays_and_jets(self, monkeypatch, name):
        target = _target(name)
        space, n = target.space, target.space.dim

        def same_jet(a, b):
            assert (a.order, a.degree) == (b.order, b.degree)
            assert a.stored.shape == b.stored.shape
            assert np.array_equal(a.stored, b.stored)
            # broadcast constants and zero jets stay broadcast views
            assert (a.stored.strides[-1] == 0) == (b.stored.strides[-1] == 0)

        for x in _grids(space, target.plan):
            got, want = _both(monkeypatch, lambda: NodeGeometry(space, x))
            for attr in ("metric", "inverse", "sqrt_det", "christoffels"):
                assert np.array_equal(getattr(got.frame, attr),
                                      getattr(want.frame, attr))
            assert np.array_equal(got.ricci_v, want.ricci_v)
            same_jet(got.jV, want.jV)
            for i in range(n):
                for j in range(n):
                    same_jet(got.jg[i][j], want.jg[i][j])
                    same_jet(got.jginv[i][j], want.jginv[i][j])
                    assert got.jg[i][j] is got.jg[j][i]
                    for k in range(n):
                        same_jet(got.jgam[k][i][j], want.jgam[k][i][j])
                        assert got.jgam[k][i][j] is got.jgam[k][j][i]

    def test_curved_entries_project(self):
        # the identity tests above exercise the gather: every curved 2-D
        # entry's metric reads the radius only, ball3's (r, theta)
        for name, axes in [("ball", (0,)), ("annulus", (0,)),
                           ("hemisphere", (0,)), ("poincare_cap", (0,)),
                           ("ball3", (0, 1)), ("half_space", ()),
                           ("gaussian_half_space", (0, 1))]:
            space = zoo.load(name).space
            assert space.reads == axes
        assert _target(DENSE_INI.name).space.reads == (0, 1)

    def test_scattered_points_evaluate_directly(self, monkeypatch):
        x = np.random.default_rng(5).uniform(0.1, 1.0, (3, 400))
        assert distinct(x, (0, 1)) is None
        assert distinct(x, (0,)) is None
        space = zoo.load("ball3").space
        built = []
        init = NodeGeometry.__init__

        def recorded_init(self, space, x):
            built.append(np.shape(x))
            init(self, space, x)

        monkeypatch.setattr(NodeGeometry, "__init__", recorded_init)
        NodeGeometry(space, x)
        assert built == [(3, 400)]


class TestDistinct:
    def test_first_appearance_and_inverse(self):
        x = np.array([[2.0, 1.0, 2.0, 1.0, 3.0, 2.0],
                      [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]])
        first, where = distinct(x, (0,))
        assert first.tolist() == [0, 1, 4]
        assert np.array_equal(x[0, first][where], x[0])

    def test_signed_zero_is_its_own_point(self):
        x = np.array([[0.0, -0.0, 0.0, -0.0], [1.0, 2.0, 3.0, 4.0]])
        first, where = distinct(x, (0,))
        assert first.tolist() == [0, 1]
        assert where.tolist() == [0, 1, 0, 1]

    def test_direct_cases(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 8))
        assert distinct(x, (0, 1, 2)) is None   # every axis
        assert distinct(x[:, 0], (0,)) is None  # a single point
        assert distinct(x[:, :1], (0,)) is None
        x[2, 3] = np.inf  # non-finite, even on an axis not read
        assert distinct(x, (0,)) is None
        assert distinct(x[:, :3], ()) is not None

    def test_batch_shape_kept(self):
        x = np.zeros((2, 3, 4))
        x[0] = np.arange(4.0)
        first, where = distinct(x, (0,))
        assert first.tolist() == [0, 1, 2, 3]
        assert where.shape == (3, 4)


class TestCountsAndErrors:
    def test_ball3_frame_per_distinct_pair(self, monkeypatch):
        # a ball3 chunk holds 16384 nodes on 2048 distinct (r, theta) pairs
        e = zoo.load("ball3")
        assert quadrature.CHUNK == 16384
        assert int(np.prod(e.plan.quad_interior[:2])) // 2 == 2048
        seen = []
        original = geometry.frame_at

        def recorded(space, x, *args):
            seen.append(np.shape(x)[1])
            return original(space, x, *args)

        monkeypatch.setattr(geometry, "frame_at", recorded)
        assert report.run_suite(report.target_from_zoo(e))["passed"]
        assert max(seen) <= 2048
        assert seen.count(2048) == 2  # one per interior chunk

    def test_eval_error_names_callers_batch(self):
        f = ExprField("log(x) + 1", 2)
        x = np.array([[1.0, 2.0, -1.0, 1.0, 2.0, -1.0, 1.0, 2.0],
                      np.arange(8.0)])
        assert distinct(x, f.reads) is not None
        with pytest.raises(EvalError, match="at point batch of 8 points$"):
            f.jet(x)

    def test_geometry_error_names_direct_point(self, monkeypatch):
        space = zoo.load("ball").space
        r, theta = np.meshgrid([0.4, 0.0, 0.7], [0.1, 0.2, 0.3, 0.4],
                               indexing="xy")
        x = np.stack([r.ravel(), theta.ravel()])
        assert distinct(x, space.reads) is not None

        def message():
            with pytest.raises(GeometryError) as info:
                NodeGeometry(space, x)
            return str(info.value)

        got, want = _both(monkeypatch, message)
        assert got == want
        assert want.endswith("at point [0.  0.1]")

    def test_non_finite_coordinate_same_jet_error(self, monkeypatch):
        space = zoo.load("ball3").space
        x = np.tile(np.array([[0.5], [1.0], [2.0]]), (1, 6))
        x[2, 4] = np.nan  # on z, which the geometry does not read

        def message():
            with pytest.raises(JetError) as info:
                NodeGeometry(space, x)
            return str(info.value)

        got, want = _both(monkeypatch, message)
        assert got == want == "non-finite point coordinates"

    def test_field_reads(self):
        assert exprlang.variables(exprlang.parse("x*sin(z) + 2^w", 4)) \
            == (0, 2, 3)
        f = ExprField("3*y", 3)
        assert f.reads == (1,)
        assert (f + fields.ConstField(3, 1.0)).reads == (1,)
        assert (f * ExprField("x", 3)).reads == (0, 1)
        assert fields.ConstField(3, 2.0).reads == ()
        ball = zoo.load("ball")
        assert fields.CutoffField(ball.cutoff).reads == (0,)

        class Opaque(fields.ScalarField):
            dim = 3

        assert Opaque().reads == (0, 1, 2)

    def test_gathered_constant_is_broadcast(self):
        j = Jet.constant(2, 1.5, (4,))
        g = j.gather(np.array([0, 0, 3, 1, 2]))
        assert g.stored.shape == (1, 5) and g.stored.strides[-1] == 0
        assert (g.order, g.degree) == (j.order, j.degree)

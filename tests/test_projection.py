"""Geometry, expression fields and the weak sweep's g-only terms are
evaluated once per distinct point of the chart axes they read, then
gathered to the nodes, and fields on a tensor grid are jetted on its
axis lines.  The results must equal the direct evaluation at every node
bit for bit, on every zoo entry and on the INI space, and errors must
read as the direct evaluation's.  The direct path is forced by making
``distinct`` and ``grid_lines`` return None."""

import sys

import numpy as np
import pytest

from curvcert import config, exprlang, fields, geometry, quadrature, report
from curvcert import verify, zoo
from curvcert.exprlang import EvalError
from curvcert.fields import ExprField, distinct, grid_lines
from curvcert.geometry import GeometryError, NodeGeometry
from curvcert.jets import Jet, JetError
from test_geometry import DENSE_INI

NAMES = zoo.list_entries() + [DENSE_INI.name]


def _target(name):
    if name == DENSE_INI.name:
        return report.target_from_config(config.load_config(str(DENSE_INI)))
    return report.target_from_zoo(zoo.load(name))


DISTINCT = fields.distinct
GRID_LINES = fields.grid_lines


def _direct(mp):
    """Evaluate directly, at every node: every name in a curvcert module
    that binds ``distinct`` or ``grid_lines`` is rebound to a function
    that returns None."""
    for name, module in list(sys.modules.items()):
        if name == "curvcert" or name.startswith("curvcert."):
            for attr, value in list(vars(module).items()):
                if value is DISTINCT:
                    mp.setattr(module, attr, lambda x, axes: None)
                elif value is GRID_LINES:
                    mp.setattr(module, attr, lambda x: None)


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


def _same_jet(a, b):
    assert (a.order, a.degree) == (b.order, b.degree)
    assert a.stored.shape == b.stored.shape
    assert np.array_equal(a.stored, b.stored)
    # broadcast constants and zero jets stay broadcast views
    assert (a.stored.strides[-1] == 0) == (b.stored.strides[-1] == 0)


def _sweep_case(name):
    """(space, plan, g, hs): a Neumann g and two test densities on
    ``name``."""
    target = _target(name)
    if name == DENSE_INI.name:
        g = target.neumann("0.3*x + 0.2*x^2*cos(y) + (-0.25)*x*sin(y)")
        hs = [target.h_field(f"1 + {c}*x^2*cos(y) + 0.1*sin(2*y)")
              for c in ("0.2", "(-0.15)")]
    else:
        g, hs = target.neumann(), zoo.load(name).h_fields()[:2]
    return target.space, target.plan, g, hs


def _recording_geometries(monkeypatch):
    """The batch shape of every ``NodeGeometry`` built from here on."""
    built = []
    init = NodeGeometry.__init__

    def recorded_init(self, space, x):
        built.append(np.shape(x))
        init(self, space, x)

    monkeypatch.setattr(NodeGeometry, "__init__", recorded_init)
    return built


class TestBitIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_report_json(self, monkeypatch, name):
        target = _target(name)
        a, b = _both(monkeypatch, lambda: report.render_json(
            report.run_suite(target)))
        assert a == b

    @pytest.mark.parametrize("name", ["ball3", DENSE_INI.name])
    def test_decomposition_batch_pairs(self, monkeypatch, name):
        space, plan, g, hs = _sweep_case(name)

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
        for x in _grids(space, target.plan):
            got, want = _both(monkeypatch, lambda: NodeGeometry(space, x))
            for attr in ("metric", "inverse", "sqrt_det"):
                assert np.array_equal(getattr(got.frame, attr),
                                      getattr(want.frame, attr))
            assert np.array_equal(got.christoffels, want.christoffels)
            assert np.array_equal(got.ricci_v, want.ricci_v)
            _same_jet(got.jV, want.jV)
            for i in range(n):
                for j in range(n):
                    _same_jet(got.jg[i][j], want.jg[i][j])
                    _same_jet(got.jginv[i][j], want.jginv[i][j])
                    assert got.jg[i][j] is got.jg[j][i]
                    for k in range(n):
                        _same_jet(got.jgam[k][i][j], want.jgam[k][i][j])
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
        built = _recording_geometries(monkeypatch)
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


class _Recorded(fields.ScalarField):
    """A field that records the batch size of each order-3 jet taken of
    it; ``reads`` is the wrapped field's, or every axis with ``opaque``."""

    def __init__(self, field, opaque=False):
        self.field, self.dim, self.sizes = field, field.dim, []
        self.opaque = opaque

    @property
    def reads(self):
        return tuple(range(self.dim)) if self.opaque else self.field.reads

    def jet(self, x, order=3):
        if order == 3:
            self.sizes.append(int(np.prod(np.shape(x)[1:])))
        return self.field.jet(x, order)


def _sweep(space, plan, g, hs):
    return [{k: float(v).hex() for k, v in w.items()}
            for w in verify._weak_integrals(space, g, hs, plan.quad_interior,
                                            plan.quad_boundary)]


class TestWeakSweep:
    def test_ball3_g_terms_on_distinct_pairs(self):
        # each 16384-node chunk jets g on its 2048 (r, theta) pairs
        space, plan, g, hs = _sweep_case("ball3")
        assert g.field.reads == space.reads == (0, 1)
        rec = _Recorded(g.field)
        _sweep(space, plan, rec, hs)
        assert rec.sizes == [2048, 2048]

    def test_ball3_builds_no_extra_geometry(self, monkeypatch):
        # the g terms use the geometry each chunk already gathers from;
        # an opaque g (every axis read) takes the direct path
        space, plan, g, hs = _sweep_case("ball3")
        built = _recording_geometries(monkeypatch)
        _sweep(space, plan, g.field, hs)
        projected, built[:] = list(built), []
        opaque = _Recorded(g.field, opaque=True)
        _sweep(space, plan, opaque, hs)
        assert opaque.sizes == [16384, 16384]
        assert projected == built

    @pytest.mark.parametrize("name", ["ball", "half_space", DENSE_INI.name])
    def test_g_on_full_chunk(self, name):
        # g reads every axis, so its terms are computed at the nodes
        space, plan, g, hs = _sweep_case(name)
        nodes = int(np.prod(plan.quad_interior))
        rec = _Recorded(g.field)
        _sweep(space, plan, rec, hs)
        assert rec.sizes == [min(quadrature.CHUNK, nodes - start)
                             for start in range(0, nodes, quadrature.CHUNK)]

    def test_g_axes_strictly_contain_the_metric_axes(self, monkeypatch):
        # the metric and weight read x, g reads (x, y) as well: the terms
        # are computed at the nodes, and no geometry is built for them
        def f(src):
            return ExprField(src, 3)

        one = fields.ConstField(3, 1.0)
        zero = fields.ConstField(3, 0.0)
        space = geometry.WeightedSpace(
            dim=3, metric=[[f("1 + 0.1*x^2"), zero, zero],
                           [zero, f("1 + 0.2*x"), zero],
                           [zero, zero, one]],
            weight=f("0.3*x^2"), defining_fn=f("x - 2"),
            chart_box=[(0.5, 1.5), (0.0, 1.0), (0.0, 1.0)])
        plan = verify.SamplePlan((4, 4, 4), (), (8, 8, 8), ())
        g = _Recorded(f("sin(x)*cos(2*y)"))
        hs = [f("1 + 0.5*z*x"), f("y^2")]
        assert space.reads == (0,) and g.reads == (0, 1)
        built = _recording_geometries(monkeypatch)
        a, b = _both(monkeypatch, lambda: _sweep(space, plan, g, hs))
        assert a == b
        assert g.sizes == [512, 512]
        # projected: the chunk and its base; then the direct chunk
        assert built == [(3, 512), (3, 8), (3, 512)]

    def test_eval_error_names_the_chunk(self, monkeypatch):
        # g fails on the distinct pairs; the error names the chunk's batch
        space, plan, _, hs = _sweep_case("ball3")
        g = ExprField("log(x - 0.5)*cos(y)", 3)

        def message():
            with pytest.raises(EvalError) as info:
                _sweep(space, plan, g, hs)
            return str(info.value)

        got, want = _both(monkeypatch, message)
        assert got == want
        assert want.endswith("at point batch of 16384 points")


def _tensor(*axes):
    """The C-ordered tensor grid of the axis coordinates, shape (dim, m)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _chunks(space, counts):
    pts, _ = quadrature.tensor_rule(space.chart_box, counts)
    return [pts[:, s:s + quadrature.CHUNK]
            for s in range(0, pts.shape[1], quadrature.CHUNK)]


def _case_fields(name):
    """Every field a suite jets on ``name``: metric, weight, Neumann g and
    test densities."""
    space, _, g, hs = _sweep_case(name)
    n = space.dim
    return ([space.metric[i][j] for i in range(n) for j in range(i, n)]
            + [space.weight, g.field] + list(hs))


def _recording(mp, attr):
    """Batch sizes of each call of ``fields.<attr>`` from here on."""
    calls, original = [], getattr(fields, attr)

    def recorded(x, *args):
        calls.append(int(np.prod(np.shape(x)[1:])))
        return original(x, *args)

    mp.setattr(fields, attr, recorded)
    return calls


class TestGridPath:
    """Fields on a C-ordered tensor grid are jetted on its axis lines and
    flattened once; every other batch is jetted at its nodes."""

    @pytest.mark.parametrize("name", ["ball", "annulus", "hemisphere",
                                      "poincare_cap", "ball3",
                                      DENSE_INI.name])
    def test_interior_chunks_are_grids(self, name):
        # chunks of whole rows of the rule: each is one grid
        target = _target(name)
        space, plan = target.space, target.plan
        for counts in (plan.quad_interior,
                       tuple(2 * c for c in plan.quad_interior)):
            for x in _chunks(space, counts):
                lines = grid_lines(x)
                assert lines is not None
                shape = tuple(line.size for line in lines)
                assert shape[1:] == counts[1:]
                assert np.prod(shape) == x.shape[1]
        for x in _grids(space, plan):
            assert grid_lines(x) is not None

    def test_lines_are_the_axes(self):
        a, b, c = [0.5, 0.25, 2.0], [1.0, -3.0], [7.0, 8.0, 9.0, 10.0]
        lines = grid_lines(_tensor(a, b, c))
        assert [line.shape for line in lines] == [(3, 1, 1), (1, 2, 1),
                                                  (1, 1, 4)]
        assert [line.ravel().tolist() for line in lines] == [a, b, c]

    @pytest.mark.parametrize("name", ["ball", "hemisphere", DENSE_INI.name])
    def test_single_row_patch_grid(self, monkeypatch, name):
        # the patch images of a polar chart have r = 1: a (1, n) grid, on
        # which x^2 must still come out materialised, as at the nodes
        space = _target(name).space
        patch = space.boundary_patches[0]
        x = quadrature.patch_points(space, patch, (16,)).x
        lines = grid_lines(x)
        assert [line.shape for line in lines] == [(1, 1), (1, 16)]
        for f in _case_fields(name) + [ExprField("x^2", 2)]:
            for order in (3, 1, 0):
                _same_jet(*_both(monkeypatch, lambda: f.jet(x, order)))
        jet = ExprField("x^2", 2).jet(x)
        assert jet.degree == 2 and jet.stored.strides[-1] != 0

    def test_ball3_chunk(self, monkeypatch):
        target = _target("ball3")
        x = _chunks(target.space, target.plan.quad_interior)[0]
        assert [line.size for line in grid_lines(x)] == [128, 16, 8]
        for f in _case_fields("ball3"):
            for order in (3, 1):
                _same_jet(*_both(monkeypatch, lambda: f.jet(x, order)))

    def test_half_space_chunk_is_not_whole_rows(self, monkeypatch):
        # 16384 nodes of a 192 x 192 rule: 85 1/3 rows, no grid, so the
        # fields take the node path and its projection
        target = _target("half_space")
        assert target.plan.quad_interior == (192, 192)
        x = _chunks(target.space, target.plan.quad_interior)[0]
        assert grid_lines(x) is None
        for f in _case_fields("half_space"):
            _same_jet(*_both(monkeypatch, lambda: f.jet(x)))
        with monkeypatch.context() as mp:
            calls = _recording(mp, "distinct")
            target.neumann().field.jet(x)
        assert calls and set(calls) == {quadrature.CHUNK}

    def test_signed_zero_kept_apart(self, monkeypatch):
        f = ExprField("x*exp(y)", 2)
        x = _tensor([-1.0, 0.0, 1.0], [0.5, -0.0, 2.0])
        lines = grid_lines(x)
        assert np.signbit(lines[1].ravel()).tolist() == [False, True, False]
        a, b = _both(monkeypatch, lambda: f.jet(x))
        assert a.stored.tobytes() == b.stored.tobytes()
        x[0, 4] = -0.0  # one node's 0.0 on axis 0 is -0.0: no grid
        assert grid_lines(x) is None
        a, b = _both(monkeypatch, lambda: f.jet(x))
        assert a.stored.tobytes() == b.stored.tobytes()
        assert np.signbit(a.value[4]) and not np.signbit(a.value[3])

    @pytest.mark.parametrize("where", ["line", "node"])
    def test_non_finite_coordinate_raises_as_at_nodes(self, monkeypatch,
                                                      where):
        f = ExprField("sin(y)", 2)  # reads y; the bad coordinate is on x
        x = _tensor([0.5, 1.0, 1.5], [0.0, 1.0])
        if where == "line":
            x[0, :2] = np.inf  # a whole grid line: the bits still match
        else:
            x[0, 3] = np.nan
        assert grid_lines(x) is None

        def message():
            with pytest.raises(JetError) as info:
                f.jet(x)
            return str(info.value)

        got, want = _both(monkeypatch, message)
        assert got == want == "non-finite point coordinates"
        # a field that reads no coordinate does not raise, on either path
        const = fields.ConstField(2, 1.5)
        _same_jet(*_both(monkeypatch, lambda: const.jet(x)))

    def test_scattered_points(self, monkeypatch):
        x = np.random.default_rng(3).uniform(0.2, 0.9, (2, 300))
        assert grid_lines(x) is None
        assert grid_lines(x[:, :1]) is None  # one point
        for f in _case_fields("ball"):
            _same_jet(*_both(monkeypatch, lambda: f.jet(x)))

    def test_domain_error_names_callers_batch(self):
        f = ExprField("log(x)*cos(y)", 2)
        x = _tensor([1.0, -1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
        assert grid_lines(x) is not None
        with pytest.raises(EvalError, match="at point batch of 12 points$"):
            f.jet(x)

    def test_light_validate_takes_the_grid_path(self, monkeypatch):
        # building a zoo entry jets its fields on small sample and patch
        # grids: on their lines, with no distinct-point projection
        with monkeypatch.context() as mp:
            grids = _recording(mp, "grid_lines")
            projected = _recording(mp, "distinct")
            for name in zoo.list_entries():
                zoo.load(name)
        # one-point base geometries still call it, which returns at once
        assert max(projected) == 1
        assert {36, 216} <= set(grids)

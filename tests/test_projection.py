"""Each interior quadrature chunk is a tensor grid handed over with its
axis lines, and the geometry, the fields and the weak sweep's terms are
jetted on those lines, at the broadcast shape of the axes they read.
Broadcast to the nodes and flattened, every value must equal the one
computed at the chunk's points bit for bit, on every zoo entry and on
the INI space, and errors must read as they do at the points.  The point
path is forced by handing each chunk over without its lines."""

import dataclasses
import re

import numpy as np
import pytest

from curvcert import config, fields, geometry, quadrature, report, verify
from curvcert import zoo
from curvcert.exprlang import EvalError
from curvcert.fields import ExprField
from curvcert.geometry import GeometryError, NodeGeometry
from curvcert.jets import JetError
from curvcert.quadrature import interior_chunks
from test_geometry import DENSE_INI

NAMES = zoo.list_entries() + [DENSE_INI.name]


def _target(name):
    if name == DENSE_INI.name:
        return config.load_config(str(DENSE_INI))
    return zoo.load(name)


CHUNKS = quadrature.interior_chunks


def _at_points(mp):
    """Hand every interior chunk over without its lines, so that it is
    jetted at its points."""
    def without_lines(space, counts):
        for x, wts, _ in CHUNKS(space, counts):
            yield x, wts, None

    mp.setattr(quadrature, "interior_chunks", without_lines)


def _both(monkeypatch, run):
    """``run()`` on the chunks' lines, then at their points."""
    on_lines = run()
    with monkeypatch.context() as mp:
        _at_points(mp)
        return on_lines, run()


def _flat(a, grid, m):
    """Per-node values broadcast against ``grid``, flattened to its m
    nodes."""
    a = np.asarray(a)
    head = a.shape[:a.ndim - len(grid)]
    return np.broadcast_to(a, head + grid).reshape(head + (m,))


def _same(a, b, grid):
    """a (broadcasting against ``grid``) at the nodes has b's bits."""
    b = np.asarray(b)
    got = _flat(a, grid, b.shape[-1])
    assert got.shape == b.shape
    assert got.tobytes() == b.tobytes()


def _same_jet(a, b, grid):
    assert (a.order, a.degree) == (b.order, b.degree)
    _same(a.stored, b.stored, grid)


def _grid(lines):
    return tuple(line.size for line in lines)


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
    """(points, lines) of every ``NodeGeometry`` built from here on."""
    built = []
    init = NodeGeometry.__init__

    def recorded_init(self, space, x, lines=None):
        built.append((np.shape(x), lines))
        init(self, space, x, lines)

    monkeypatch.setattr(NodeGeometry, "__init__", recorded_init)
    return built


def _sweep_rows(monkeypatch, space, plan, g, hs):
    """The bytes of every row the weak sweep of g against ``hs`` yields,
    flattened to the nodes, on the chunks' lines and at their points."""
    rows = []
    batch_sums = quadrature._batch_sums

    def recorded(F, geom, *args):
        def fn(geom):
            for row in F(geom):
                rows.append(geom.at_nodes(row).reshape(-1).tobytes())
                yield row

        return batch_sums(fn, geom, *args)

    def sweep():
        rows.clear()
        verify._weak_integrals(space, g, hs, plan.quad_interior,
                               plan.quad_boundary)
        return list(rows)

    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_batch_sums", recorded)
        return _both(mp, sweep)


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
    def test_node_geometry_arrays_and_jets(self, name):
        target = _target(name)
        space, n = target.space, target.space.dim
        for x, _, lines in interior_chunks(space, target.plan.quad_interior):
            got, want = NodeGeometry(space, x, lines), NodeGeometry(space, x)
            grid = _grid(lines)
            assert got.grid == grid and want.grid == x.shape[1:]
            for attr in ("metric", "inverse", "sqrt_det"):
                _same(getattr(got, attr), getattr(want, attr), grid)
            _same(got.christoffels, want.christoffels, grid)
            _same(geometry.bakry_emery_ricci(got),
                  geometry.bakry_emery_ricci(want), grid)
            _same_jet(got.jV, want.jV, grid)
            for i in range(n):
                for j in range(n):
                    _same_jet(got.jg[i][j], want.jg[i][j], grid)
                    _same_jet(got.jginv[i][j], want.jginv[i][j], grid)
                    assert got.jg[i][j] is got.jg[j][i]
                    for k in range(n):
                        _same_jet(got.jgam[k][i][j], want.jgam[k][i][j],
                                  grid)
                        assert got.jgam[k][i][j] is got.jgam[k][j][i]

    @pytest.mark.parametrize("name", NAMES)
    def test_sweep_rows(self, monkeypatch, name):
        # every row the weak sweep yields, inside and on the boundary
        space, plan, g, hs = _sweep_case(name)
        a, b = _sweep_rows(monkeypatch, space, plan, g.field, hs)
        assert len(a) == len(b) > 0 and a == b

    def test_curved_entries_project(self):
        # the geometry of the first chunk stays at the broadcast shape of
        # the axes its metric (the frame) and its metric and weight
        # (Ricci_V) read: the curved 2-D entries' read the radius only,
        # ball3's (r, theta), the half-spaces' metric nothing
        for name, frame, ricci in [
                ("ball", (224, 1), (224, 1)),
                ("annulus", (224, 1), (224, 1)),
                ("hemisphere", (256, 1), (256, 1)),
                ("poincare_cap", (224, 1), (224, 1)),
                ("ball3", (128, 16, 1), (128, 16, 1)),
                ("half_space", (1, 1), (1, 1)),
                ("gaussian_half_space", (1, 1), (85, 192)),
                (DENSE_INI.name, (224, 32), (224, 32))]:
            target = _target(name)
            x, _, lines = next(interior_chunks(target.space,
                                               target.plan.quad_interior))
            geom = NodeGeometry(target.space, x, lines)
            assert geom.sqrt_det.shape == frame, name
            assert geom.christoffels.shape[3:] == frame, name
            assert geometry.bakry_emery_ricci(geom).shape[2:] == ricci, name

    def test_scattered_points_evaluate_directly(self, monkeypatch):
        x = np.random.default_rng(5).uniform(0.1, 1.0, (3, 400))
        space = zoo.load("ball3").space
        built = _recording_geometries(monkeypatch)
        geom = NodeGeometry(space, x)
        assert built == [((3, 400), None)]
        assert geom.grid == (400,)
        assert geom.sqrt_det.shape == (400,)
        assert {j.batch_shape for row in geom.jg for j in row} == {(400,)}


class TestCountsAndErrors:
    def test_ball3_frame_per_distinct_pair(self, monkeypatch):
        # a ball3 chunk holds 16384 nodes on 2048 distinct (r, theta) pairs
        e = zoo.load("ball3")
        assert quadrature.CHUNK == 16384
        assert int(np.prod(e.plan.quad_interior[:2])) // 2 == 2048
        seen = []
        original = geometry.frame_at

        def recorded(*args, **kwargs):
            metric, sqrt_det = original(*args, **kwargs)
            seen.append(sqrt_det.size)
            return metric, sqrt_det

        monkeypatch.setattr(geometry, "frame_at", recorded)
        assert report.run_suite(e)["passed"]
        assert max(seen) <= 2048
        assert seen.count(2048) == 2  # one per interior chunk

    def test_eval_error_names_callers_batch(self):
        f = ExprField("log(x) + 1", 2)
        lines = [np.array([[1.0], [2.0], [-1.0], [1.5]]),
                 np.array([[0.0, 1.0]])]
        x = _tensor(lines[0].ravel(), lines[1].ravel())
        for given in (None, lines):
            with pytest.raises(EvalError,
                               match=re.escape("at point (-1.0, 0.0)") + "$"):
                f.jet(x, 3, given)

    def test_geometry_error_names_direct_point(self):
        ball = zoo.load("ball").space
        # a metric that reads both axes, least at (0.7, 0.3): off the
        # first row and column, and again at a later column
        g11, g12 = ExprField("1", 2), ExprField("0", 2)
        g22 = ExprField("pow(x - 0.7, 2) + pow(y - 0.3, 2) - 1e-3", 2)
        both = dataclasses.replace(ball, metric=[[g11, g12], [g12, g22]])
        cases = [(ball, [0.4, 0.0, 0.7], [0.1, 0.2, 0.3, 0.4], "[0.  0.1]"),
                 (both, [0.4, 0.7, 0.2], [0.1, 0.3, 0.5, 0.3], "[0.7 0.3]")]

        def message(space, x, given):
            with pytest.raises(GeometryError) as info:
                NodeGeometry(space, x, given)
            return str(info.value)

        for space, xs, ys, where in cases:
            lines = [np.array(xs)[:, None], np.array(ys)[None, :]]
            x = _tensor(lines[0].ravel(), lines[1].ravel())
            assert message(space, x, lines) == message(space, x, None)
            assert message(space, x, None).endswith(f"at point {where}")

    def test_non_finite_coordinate_same_jet_error(self):
        space = zoo.load("ball3").space
        lines = [np.array([[[0.5]]]), np.array([[[1.0]], [[1.5]]]),
                 np.array([[[2.0, np.nan, 2.5]]])]
        x = _tensor(*(line.ravel() for line in lines))
        for given in (None, lines):
            # on z, which the geometry does not read
            with pytest.raises(JetError,
                               match="^non-finite point coordinates$"):
                NodeGeometry(space, x, given)


class _Recorded(fields.ScalarField):
    """A field that records the batch shape of each order-3 jet taken of
    it."""

    def __init__(self, field):
        self.field, self.dim, self.shapes = field, field.dim, []

    def jet(self, x, order=3, lines=None):
        out = self.field.jet(x, order, lines)
        if order == 3:
            self.shapes.append(out.batch_shape)
        return out


def _sweep(space, plan, g, hs):
    return [{k: float(v).hex() for k, v in w.items()}
            for w in verify._weak_integrals(space, g, hs, plan.quad_interior,
                                            plan.quad_boundary)]


def _tensor(*axes):
    """The C-ordered tensor grid of the axis coordinates, shape (dim, m)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


class TestWeakSweep:
    def test_ball3_g_terms_on_distinct_pairs(self):
        # each 16384-node chunk jets g on its 2048 (r, theta) pairs
        space, plan, g, hs = _sweep_case("ball3")
        rec = _Recorded(g.field)
        _sweep(space, plan, rec, hs)
        assert rec.shapes == [(128, 16, 1), (128, 16, 1)]

    def test_ball3_builds_no_extra_geometry(self, monkeypatch):
        # one geometry per chunk and per patch, whatever axes g reads
        space, plan, g, hs = _sweep_case("ball3")
        target = _target("ball3")
        built = _recording_geometries(monkeypatch)
        _sweep(space, plan, g.field, hs)
        radial, built[:] = list(built), []
        _sweep(space, plan, target.neumann("0.4*x + 0.1*x^2*cos(z)").field,
               hs)
        assert [s for s, _ in built] == [s for s, _ in radial] \
            == [(3, 16384), (3, 16384), (3, 256)]
        assert [lines is None for _, lines in built] == [False, False, True]

    def test_phi_dependent_g_keeps_the_geometry_shape(self, monkeypatch):
        # a g that reads the azimuth is jetted on every node, and the
        # geometry stays on the (r, theta) pairs; the sweep's rows are
        # still those computed at the points
        space, plan, _, hs = _sweep_case("ball3")
        g = _target("ball3").neumann("0.4*x + 0.1*x^2*cos(z)").field
        geoms = []
        metric_jets = geometry.WeightedSpace.metric_jets

        def recorded(self, x, lines=None):
            jg = metric_jets(self, x, lines)
            geoms.append(np.broadcast_shapes(
                *(j.batch_shape for row in jg for j in row)))
            return jg

        monkeypatch.setattr(geometry.WeightedSpace, "metric_jets", recorded)
        rec = _Recorded(g)
        a, b = _both(monkeypatch, lambda: _sweep(space, plan, rec, hs))
        assert a == b
        assert rec.shapes == [(128, 16, 8)] * 2 + [(16384,)] * 2
        assert geoms[:2] == [(128, 16, 1), (128, 16, 1)]

    def test_half_space_geometry_once_per_chunk(self, monkeypatch):
        # the flat metric is built once per chunk, at one broadcast point
        space, plan, g, hs = _sweep_case("half_space")
        frames = []
        original = geometry.frame_at

        def recorded(*args, **kwargs):
            metric, sqrt_det = original(*args, **kwargs)
            frames.append(sqrt_det.shape)
            return metric, sqrt_det

        monkeypatch.setattr(geometry, "frame_at", recorded)
        built = _recording_geometries(monkeypatch)
        _sweep(space, plan, g.field, hs)
        assert [s for s, _ in built] == [(2, 16320), (2, 16320), (2, 4224),
                                         (2, 256)]
        assert frames == [(1, 1), (1, 1), (1, 1), (256,)]

    @pytest.mark.parametrize("name", ["ball", "half_space", DENSE_INI.name])
    def test_g_on_full_chunk(self, name):
        # g reads every axis, so its terms are at each chunk's full grid
        space, plan, g, hs = _sweep_case(name)
        rec = _Recorded(g.field)
        _sweep(space, plan, rec, hs)
        assert rec.shapes == [
            _grid(lines) for _, _, lines in interior_chunks(
                space, plan.quad_interior)]

    def test_g_axes_strictly_contain_the_metric_axes(self, monkeypatch):
        # the metric and weight read x, g reads (x, y) as well: g's terms
        # are at the (x, y) shape, the geometry at the x shape
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
        built = _recording_geometries(monkeypatch)
        a, b = _both(monkeypatch, lambda: _sweep(space, plan, g, hs))
        assert a == b
        assert g.shapes == [(8, 8, 1), (512,)]
        assert [s for s, _ in built] == [(3, 512), (3, 512)]
        x, _, lines = next(interior_chunks(space, plan.quad_interior))
        assert NodeGeometry(space, x, lines).sqrt_det.shape \
            == (8, 1, 1)

    def test_weight_reads_more_axes_than_g(self, monkeypatch):
        # Lg's Gamma(V, g) contracts g^{ij} and grad g, neither of which
        # reads z, with grad V, which does: einsum sums such operands in
        # another order unless they are materialised at one shape
        def f(src):
            return ExprField(src, 3)

        zero = fields.ConstField(3, 0.0)
        space = geometry.WeightedSpace(
            dim=3, metric=[[f("1 + 0.1*x^2"), f("0.1*x"), zero],
                           [f("0.1*x"), f("1 + 0.2*x"), zero],
                           [zero, zero, fields.ConstField(3, 1.0)]],
            weight=f("0.3*x^2 + 0.2*y*z"), defining_fn=f("x - 2"),
            chart_box=[(0.5, 1.5), (0.0, 1.0), (0.0, 1.0)])
        plan = verify.SamplePlan((4, 4, 4), (), (32, 32, 16), ())
        g = _Recorded(f("sin(3*x)*cos(2*y)"))
        hs = [f("1 + 0.5*z*x"), f("y^2")]
        a, b = _sweep_rows(monkeypatch, space, plan, g, hs)
        assert len(a) == len(b) == 8 and a == b
        assert g.shapes == [(32, 32, 1), (16384,)]

    def test_eval_error_names_the_chunk(self, monkeypatch):
        # g fails on part of a chunk's lines; the error names the chunk's
        # first node, in node order, where log's argument is nonpositive
        for name in ("ball3", "half_space"):
            space, plan, _, hs = _sweep_case(name)
            g = ExprField("log(x - 0.5)*cos(y)", space.dim)
            first_bad = next(
                tuple(float(v) for v in x[:, k])
                for x, _, _ in interior_chunks(space, plan.quad_interior)
                for k in np.flatnonzero(x[0] - 0.5 <= 0.0))

            def message():
                with pytest.raises(EvalError) as info:
                    _sweep(space, plan, g, hs)
                return str(info.value)

            got, want = _both(monkeypatch, message)
            assert got == want
            assert want.endswith(f"at point {first_bad}")


def _case_fields(name):
    """Every field a suite jets on ``name``: metric, weight, Neumann g and
    test densities."""
    space, _, g, hs = _sweep_case(name)
    n = space.dim
    return ([space.metric[i][j] for i in range(n) for j in range(i, n)]
            + [space.weight, g.field] + list(hs))


def _same_on_lines(f, x, lines, order=3):
    """f's jet on ``lines`` equals its jet at the points x."""
    _same_jet(f.jet(x, order, lines), f.jet(x, order), _grid(lines))


class TestGridPath:
    """Each interior chunk is a C-ordered tensor grid of whole rows of the
    rule, handed over with its lines; fields jetted on the lines equal
    their jets at the points."""

    @pytest.mark.parametrize("name", NAMES)
    def test_interior_chunks_are_grids(self, name):
        target = _target(name)
        space, plan = target.space, target.plan
        for counts in (plan.quad_interior,
                       tuple(2 * c for c in plan.quad_interior)):
            for x, _, lines in interior_chunks(space, counts):
                shape = _grid(lines)
                assert shape[1:] == counts[1:]  # whole rows
                assert x.shape[1] == np.prod(shape) <= quadrature.CHUNK
                assert np.array_equal(
                    x, _tensor(*(line.ravel() for line in lines)))

    def test_lines_are_the_axes(self):
        target = _target("ball3")
        box, counts = target.space.chart_box, target.plan.quad_interior
        chunks = list(interior_chunks(target.space, counts))
        assert len(chunks) == 2
        for c, (_, _, lines) in enumerate(chunks):
            assert [line.shape for line in lines] == [(128, 1, 1),
                                                      (1, 16, 1), (1, 1, 8)]
            want = [quadrature.gauss_rule(lo, hi, m)[0]
                    for (lo, hi), m in zip(box, counts)]
            want[0] = want[0][128 * c:128 * (c + 1)]
            assert [line.ravel().tolist() for line in lines] \
                == [w.tolist() for w in want]

    @pytest.mark.parametrize("name", ["ball", "hemisphere", DENSE_INI.name])
    def test_single_row_patch_grid(self, name):
        # the patch images of a polar chart have r = 1: a (1, 16) grid;
        # given its lines, x^2 comes back on the one radius
        space = _target(name).space
        patch = space.boundary_patches[0]
        x = quadrature.patch_points(space, patch, (16,)).x
        lines = [x[0, :1].reshape(1, 1), x[1].reshape(1, 16)]
        assert np.array_equal(x, _tensor(*(line.ravel() for line in lines)))
        for f in _case_fields(name) + [ExprField("x^2", 2)]:
            for order in (3, 1, 0):
                _same_on_lines(f, x, lines, order)
        assert ExprField("x^2", 2).jet(x, 3, lines).batch_shape == (1, 1)

    def test_ball3_chunk(self):
        target = _target("ball3")
        x, _, lines = next(interior_chunks(target.space,
                                           target.plan.quad_interior))
        assert _grid(lines) == (128, 16, 8)
        for f in _case_fields("ball3"):
            for order in (3, 1):
                _same_on_lines(f, x, lines, order)

    def test_half_space_chunk_is_whole_rows(self):
        # 36864 nodes of a 192 x 192 rule: 85, 85 and 22 rows of 192
        target = _target("half_space")
        assert target.plan.quad_interior == (192, 192)
        chunks = list(interior_chunks(target.space,
                                      target.plan.quad_interior))
        assert [_grid(lines) for _, _, lines in chunks] == [
            (85, 192), (85, 192), (22, 192)]
        x, _, lines = chunks[0]
        for f in _case_fields("half_space"):
            _same_on_lines(f, x, lines)

    def test_signed_zero_kept_apart(self):
        f = ExprField("x*exp(y)", 2)
        lines = [np.array([[-0.0], [0.0], [1.0]]),
                 np.array([[0.5, -0.0, 2.0]])]
        x = _tensor(lines[0].ravel(), lines[1].ravel())
        assert np.signbit(x[1]).tolist() == [False, True, False] * 3
        _same_on_lines(f, x, lines)
        a = f.jet(x, 3, lines)
        assert np.signbit(a.value[:, 0]).tolist() == [True, False, False]

    @pytest.mark.parametrize("where", ["line", "node"])
    def test_non_finite_coordinate_raises_as_at_nodes(self, where):
        f = ExprField("sin(y)", 2)  # reads y; the bad coordinate is on x
        lines = [np.array([[0.5], [1.0], [1.5]]), np.array([[0.0, 1.0]])]
        lines[0][0, 0] = np.inf if where == "line" else np.nan
        x = _tensor(lines[0].ravel(), lines[1].ravel())
        for given in (None, lines):
            with pytest.raises(JetError,
                               match="^non-finite point coordinates$"):
                f.jet(x, 3, given)
        # a field that reads no coordinate does not raise, on either path
        const = fields.ConstField(2, 1.5)
        _same_on_lines(const, x, lines)

    def test_scattered_points(self):
        # no lines: each point's jet is the jet at that point alone
        x = np.random.default_rng(3).uniform(0.2, 0.9, (2, 300))
        for f in _case_fields("ball"):
            jet = f.jet(x)
            assert jet.batch_shape == (300,)
            for k in (0, 77, 299):
                one = f.jet(x[:, k])
                assert (one.order, one.degree) == (jet.order, jet.degree)
                assert jet.stored[:, k].tobytes() \
                    == np.asarray(one.stored).tobytes()

    def test_domain_error_names_callers_batch(self):
        f = ExprField("log(x)*cos(y)", 2)
        lines = [np.array([[1.0], [-1.0], [2.0]]),
                 np.array([[0.0, 1.0, 2.0, 3.0]])]
        x = _tensor(lines[0].ravel(), lines[1].ravel())
        for given in (None, lines):
            with pytest.raises(EvalError,
                               match=re.escape("at point (-1.0, 0.0)") + "$"):
                f.jet(x, 3, given)

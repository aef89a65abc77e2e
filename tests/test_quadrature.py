import dataclasses
import math
import re

import numpy as np
import pytest

from curvcert import quadrature, zoo
from curvcert.boundary import ON_BOUNDARY_TOL, BoundaryError, boundary_frame
from curvcert.exprlang import EvalError
from curvcert.fields import ConstField, ExprField
from curvcert.geometry import NodeGeometry, WeightedSpace
from curvcert.quadrature import (CHUNK, BoundaryPatch, QuadratureError,
                                 gauss_rule,
                                 integrate_boundary, integrate_interior, interior_chunks,
                                 patch_points, tensor_rule)

TWO_PI = 2.0 * np.pi


def gaussian_plane():
    """R^2 with V = |x|^2/2 and phi = -1 (all of the box is interior)."""
    metric = [[ConstField(2, float(i == j)) for j in range(2)]
              for i in range(2)]
    return WeightedSpace(dim=2, metric=metric,
                         weight=ExprField("(x^2 + y^2)/2", 2),
                         defining_fn=ConstField(2, -1.0),
                         chart_box=[(-8.0, 8.0), (-8.0, 8.0)],
                         boundary_patches=[], label="plane")


def disk(R=1.0, patch_ok=True):
    metric = [[ConstField(2, float(i == j)) for j in range(2)]
              for i in range(2)]
    patch = BoundaryPatch(
        param_box=[(0.0, TWO_PI)],
        maps=[ExprField(f"{R!r}*cos(x)", 1), ExprField(f"{R!r}*sin(x)", 1)],
        label="circle")
    bad = BoundaryPatch(
        param_box=[(0.0, TWO_PI)],
        maps=[ExprField(f"{1.1 * R!r}*cos(x)", 1),
              ExprField(f"{R!r}*sin(x)", 1)],
        label="off")
    return WeightedSpace(
        dim=2, metric=metric, weight=ConstField(2, 0.0),
        defining_fn=ExprField(f"x^2 + y^2 - {R * R!r}", 2),
        chart_box=[(-1.5 * R, 1.5 * R)] * 2,
        boundary_patches=[patch if patch_ok else bad], label="disk")


def nan_strip():
    """The strip {y < 0} of the box [-1, 1]^2, with the line y = 0 its one
    patch, under a phi whose exp overflows, so it is NaN for x > 0.887."""
    metric = [[ConstField(2, float(i == j)) for j in range(2)]
              for i in range(2)]
    patch = BoundaryPatch(param_box=[(-1.0, 1.0)],
                          maps=[ExprField("x", 1), ConstField(1, 0.0)])
    return WeightedSpace(dim=2, metric=metric, weight=ConstField(2, 0.0),
                         defining_fn=ExprField(
                             "y + (exp(800*x) - exp(800*x))", 2),
                         chart_box=[(-1.0, 1.0), (-1.0, 1.0)],
                         boundary_patches=[patch], label="nan_strip")


@pytest.mark.parametrize("reader", ["interior", "boundary", "frame"])
def test_non_finite_phi_names_a_node(reader):
    # a NaN phi passes |phi| > tol and fails phi < 0: each reader of a
    # batch's phi names a node where it is not finite instead of dropping
    # the node, accepting the patch or returning a NaN normal
    sp = nan_strip()

    def ones(geom):
        return np.ones(geom.x.shape[1])

    run = {
        "interior": lambda: integrate_interior(sp, ones, (16, 16)),
        "boundary": lambda: integrate_boundary(
            sp, ones, sp.boundary_patches[0], (16,)),
        "frame": lambda: boundary_frame(NodeGeometry(
            sp, np.array([[0.5, 0.95], [0.0, 0.0]]))),
    }[reader]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(EvalError, match="phi is not finite") as exc:
        run()
    point = re.search(r"at point \((.*)\)$", str(exc.value)).group(1)
    assert float(point.split(",")[0]) > 0.88


class TestRules:
    def test_gauss_rule_exactness(self):
        # m-point Gauss is exact on degree 2m-1 polynomials
        x, w = gauss_rule(-1.0, 3.0, 4)
        assert np.sum(w * x**7) == pytest.approx((3.0**8 - 1.0) / 8,
                                                 rel=1e-13)
        assert np.sum(w) == pytest.approx(4.0, rel=1e-14)

    def test_gauss_rule_cached_read_only(self):
        x, w = gauss_rule(-1.0, 3.0, 256)
        assert gauss_rule(-1.0, 3.0, 256)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        t, tw = np.polynomial.legendre.leggauss(256)
        assert np.array_equal(x, -1.0 + 2.0 * (t + 1.0))
        assert np.array_equal(w, 2.0 * tw)

    def test_gauss_rule_invalid_count(self):
        with pytest.raises(QuadratureError):
            gauss_rule(0.0, 1.0, 0)

    def test_tensor_rule_separable(self):
        pts, wts = tensor_rule([(0.0, 1.0), (0.0, 2.0)], (8, 8))
        got = np.sum(wts * pts[0] ** 2 * pts[1])
        assert got == pytest.approx((1.0 / 3.0) * 2.0, rel=1e-13)


class TestInterior:
    def test_gaussian_mass(self):
        sp = gaussian_plane()
        got = integrate_interior(sp, lambda g: np.ones(g.x.shape[1]),
                                 counts=(64, 64))
        assert got == pytest.approx(TWO_PI, abs=1e-6)

    def test_phi_clips_domain(self):
        sp = disk(1.0)
        got = integrate_interior(sp, lambda g: np.ones(g.x.shape[1]),
                                 counts=(256, 256))
        assert got == pytest.approx(np.pi, abs=1e-3)

    def test_node_doubling_cauchy(self):
        sp = gaussian_plane()
        vals = [integrate_interior(sp, lambda g: np.cos(g.x[0]) + g.x[1] ** 2,
                                   counts=(m, m)) for m in (32, 64, 128)]
        assert abs(vals[2] - vals[1]) < 1e-9 * (1 + abs(vals[2]))
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12

    def test_non_finite_integrand_rejected(self):
        sp = gaussian_plane()
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_interior(sp, lambda g: np.full(g.x.shape[1], np.nan),
                               counts=(8, 8))

    @pytest.mark.parametrize("role, src", [
        ("defining_fn", "sqrt(x - 0.3) - 1"), ("weight", "log(x - 0.3)")])
    def test_domain_error_names_a_node(self, role, src):
        # phi or V leaves its domain for x < 0.3: the sweep names a node
        # there instead of masking the NaN nodes out of the sum
        sp = dataclasses.replace(gaussian_plane(), chart_box=[(0.1, 1.0)] * 2,
                                 **{role: ExprField(src, 2)})
        with pytest.raises(EvalError) as exc:
            integrate_interior(sp, lambda g: np.ones(g.x.shape[1]), (8, 8))
        point = re.search(r"at point \((.*)\)$", str(exc.value)).group(1)
        assert float(point.split(",")[0]) < 0.3

    def test_deterministic(self):
        sp = gaussian_plane()
        a = integrate_interior(sp, lambda g: np.sin(g.x[0] * g.x[1]),
                               counts=(48, 48))
        b = integrate_interior(sp, lambda g: np.sin(g.x[0] * g.x[1]),
                               counts=(48, 48))
        assert a == b

    def test_rows_summed_per_chunk_in_order(self):
        # a chunk is a block of whole rows: 81 rows of 200 nodes, twice,
        # then the last 38
        sp = gaussian_plane()
        counts = (200, 200)
        pts, wts = tensor_rule(sp.chart_box, counts)
        size = (CHUNK // counts[1]) * counts[1]
        assert size == 16200 and 2 * size < pts.shape[1] <= 3 * size
        assert [x.shape[1] for x, _, _ in interior_chunks(sp, counts)] \
            == [16200, 16200, 7600]
        fns = [lambda x: np.cos(x[0]) + x[1] ** 2,
               lambda x: np.sin(x[0] * x[1]), lambda x: x[0] ** 3]
        want = None
        for start in range(0, pts.shape[1], size):
            sl = slice(start, start + size)
            x = pts[:, sl]
            dens = np.exp(-sp.weight.value(x)) \
                * NodeGeometry(sp, x).sqrt_det
            part = [float(np.sum(wts[sl] * f(x) * dens)) for f in fns]
            want = part if want is None else \
                [a + b for a, b in zip(want, part)]

        def rows(geom):
            for f in fns:
                yield f(geom.x)

        assert integrate_interior(sp, rows, counts) == want
        assert integrate_interior(
            sp, lambda g: (f(g.x) for f in fns), counts) == want
        one = integrate_interior(sp, lambda g: fns[0](g.x), counts)
        assert isinstance(one, float) and one == want[0]

    @pytest.mark.parametrize("counts, boxes", [
        # one row (the nodes behind an index of axis 0) is 100 nodes
        ((2, 100), [(i, slice(a, b)) for i in range(2)
                    for a, b in ((0, 64), (64, 100))]),
        # a row is 13 x 10 nodes: blocks of 6 lines of 10 within it
        ((3, 13, 10), [(i, slice(a, b), slice(None)) for i in range(3)
                       for a, b in ((0, 6), (6, 12), (12, 13))])])
    def test_row_longer_than_chunk(self, monkeypatch, counts, boxes):
        monkeypatch.setattr(quadrature, "CHUNK", 64)
        dim = len(counts)
        sp = WeightedSpace(
            dim=dim, metric=[[ConstField(dim, float(i == j))
                              for j in range(dim)] for i in range(dim)],
            weight=ExprField("x^2/2 + y^2/8", dim),
            defining_fn=ConstField(dim, -1.0),
            chart_box=[(-3.0, 3.0), (-4.0, 4.0), (0.0, 1.0)][:dim])
        pts, wts = tensor_rule(sp.chart_box, counts)
        pts, wts = pts.reshape((dim,) + counts), wts.reshape(counts)
        nodes = [gauss_rule(lo, hi, m)[0]
                 for (lo, hi), m in zip(sp.chart_box, counts)]
        chunks = list(interior_chunks(sp, counts))
        assert len(chunks) == len(boxes)
        assert sum(x.shape[1] for x, _, _ in chunks) == math.prod(counts)
        fns = [lambda x: np.cos(x[0]) + x[1] ** 2, lambda x: x[0] * x[1]]
        want = [0.0, 0.0]
        for (x, w, lines), box in zip(chunks, boxes):
            assert x.shape[1] <= 64
            # the chunk is the sub-grid of its lines, in C order
            assert [line.ndim for line in lines] == [dim] * dim
            for i, line in enumerate(lines):
                assert line.shape[i] == line.size
                assert np.array_equal(line.ravel(),
                                      np.atleast_1d(nodes[i][box[i]]))
            grid = np.meshgrid(*[line.ravel() for line in lines],
                               indexing="ij")
            assert np.array_equal(x, np.stack([g.ravel() for g in grid]))
            assert np.array_equal(x, pts[(slice(None),) + box].reshape(
                dim, -1))
            assert np.array_equal(w, wts[box].reshape(-1))
            dens = np.exp(-sp.weight.value(x))
            want = [a + float(np.sum(w * f(x) * dens))
                    for a, f in zip(want, fns)]
        got = integrate_interior(
            sp, lambda g: (f(g.x) for f in fns), counts)
        assert got == want


def cube(g="1", phi="x - 0.5"):
    """[0, 1]^3 under the metric g * I, Omega = {phi < 0}."""
    metric = [[ExprField(g, 3) if i == j else ConstField(3, 0.0)
               for j in range(3)] for i in range(3)]
    return WeightedSpace(dim=3, metric=metric, weight=ConstField(3, 0.0),
                         defining_fn=ExprField(phi, 3),
                         chart_box=[(0.0, 1.0)] * 3, label="cube")


class TestRowGuards:
    """Each row is refused where it is not finite, outside Omega too, and
    where it is nonzero on a node whose sqrt det g is below GRAM_FLOOR;
    the guards are decided per batch, so they hold whether or not every
    node is inside or singular."""

    # 1e-9 I is SPD above SPD_FLOOR, but sqrt det g = 1e-13.5 ~ 3.2e-14;
    # with x^12 added only the nodes at x ~ 0.07 stay below the floor
    TINY, MIXED = "1e-9", "1e-9 + x^12"

    @pytest.mark.parametrize("g, phi", [(TINY, "-1"), (TINY, "x - 0.5"),
                                        (MIXED, "-1")])
    def test_chart_singular_support_refused(self, g, phi):
        sp = cube(g, phi)
        with pytest.raises(QuadratureError, match="chart-singular"):
            integrate_interior(sp, lambda geom: np.ones(geom.x.shape[1]),
                               (4, 4, 4))

    @pytest.mark.parametrize("g, phi, where", [
        (TINY, "x - 0.5", 0.5),  # nonzero only where phi >= 0, masked
        (MIXED, "-1", 0.2)])     # nonzero only on regular nodes
    def test_rows_off_the_singular_nodes_pass(self, g, phi, where):
        sp = cube(g, phi)
        got = integrate_interior(
            sp, lambda geom: (geom.x[0] > where).astype(float), (4, 4, 4))
        assert (got == 0.0) == (phi != "-1")

    @pytest.mark.parametrize("g", ["1", TINY])
    def test_non_finite_outside_omega_refused(self, g):
        # NaN * False is NaN: the mask drops no non-finite value, and the
        # first node named is one with phi >= 0
        sp = cube(g)
        with pytest.raises(QuadratureError,
                           match="non-finite integrand value") as err:
            integrate_interior(
                sp, lambda geom: np.where(geom.x[0] > 0.5, np.nan, 0.0),
                (4, 4, 4))
        node = re.search(r"at node \[(.*)\]$", str(err.value)).group(1)
        assert float(node.split()[0]) > 0.5


class TestIntegrandForms:
    """An integrand returns one row, at any shape that broadcasts against
    its batch's grid, or yields several; a returned stack is refused."""

    def test_returned_row_at_the_lines_shape_is_one_integral(self):
        sp = zoo.load("gaussian_half_space").space

        def yielded(g):
            yield g.jV.value

        lines = integrate_interior(sp, lambda g: g.jV.value, (64, 64))
        nodes = integrate_interior(
            sp, lambda g: g.at_nodes(g.jV.value).reshape(-1), (64, 64))
        assert isinstance(lines, float)
        assert [lines] == [nodes] == integrate_interior(sp, yielded, (64, 64))
        assert lines == pytest.approx(2.922615260050903, rel=1e-14)

    def test_returned_stack_raises(self):
        sp = gaussian_plane()

        def stack(g):
            return np.stack([g.x[0], g.x[1], g.x[0] * g.x[1]])

        with pytest.raises(QuadratureError, match="does not broadcast to"):
            integrate_interior(sp, stack, (8, 8))
        disk_sp = disk(1.0)
        with pytest.raises(QuadratureError, match="does not broadcast to"):
            integrate_boundary(disk_sp, stack, disk_sp.boundary_patches[0],
                               counts=(16,))


class TestBoundary:
    @pytest.mark.parametrize("R", [1.0, 2.0, 0.5])
    def test_circle_length(self, R):
        sp = disk(R)
        got = integrate_boundary(sp, lambda g: np.ones(g.x.shape[1]),
                                 sp.boundary_patches[0], counts=(64,))
        assert got == pytest.approx(TWO_PI * R, rel=1e-10)

    def test_weighted_moment(self):
        # integral of x^2 over the unit circle is pi
        sp = disk(1.0)
        got = integrate_boundary(sp, lambda g: g.x[0] ** 2,
                                 sp.boundary_patches[0], counts=(64,))
        assert got == pytest.approx(np.pi, rel=1e-10)

    def test_patch_leaving_boundary_rejected(self):
        sp = disk(1.0, patch_ok=False)
        with pytest.raises(QuadratureError, match="leaves the boundary"):
            integrate_boundary(sp, lambda g: np.ones(g.x.shape[1]),
                               sp.boundary_patches[0], counts=(16,))

    @pytest.mark.parametrize("offset", [1e-9, -1e-9])
    def test_patch_off_by_the_on_boundary_tolerance_rejected(self, offset):
        # the patch images and the boundary frames hold |phi| to one
        # tolerance, so a patch 1e-9 off {phi = 0} is refused, as a frame
        # there is; on the boundary the same patch integrates
        metric = [[ConstField(2, float(i == j)) for j in range(2)]
                  for i in range(2)]

        def strip(off):
            patch = BoundaryPatch(param_box=[(-1.0, 1.0)],
                                  maps=[ExprField("x", 1), ConstField(1, off)])
            return WeightedSpace(dim=2, metric=metric,
                                 weight=ConstField(2, 0.0),
                                 defining_fn=ExprField("y", 2),
                                 chart_box=[(-1.0, 1.0), (-1.0, 1.0)],
                                 boundary_patches=[patch], label="strip")

        def length(sp):
            return integrate_boundary(sp, lambda g: np.ones(g.x.shape[1]),
                                      sp.boundary_patches[0], counts=(8,))

        assert abs(offset) > ON_BOUNDARY_TOL
        with pytest.raises(QuadratureError, match="leaves the boundary"):
            length(strip(offset))
        with pytest.raises(BoundaryError, match="not on boundary"):
            boundary_frame(NodeGeometry(strip(offset),
                                        np.array([[0.0], [offset]])))
        assert length(strip(0.0)) == pytest.approx(2.0, rel=1e-14)

    def test_degenerate_gram_rejected(self):
        sp = disk(1.0)
        const_patch = BoundaryPatch(
            param_box=[(0.0, 1.0)],
            maps=[ExprField("1 + 0*x", 1), ExprField("0*x", 1)],
            label="point")
        with pytest.raises(QuadratureError, match="Gram"):
            integrate_boundary(sp, lambda g: np.ones(g.x.shape[1]),
                               const_patch, counts=(8,))

    def test_patch_points_on_boundary(self):
        sp = disk(1.0)
        pts = patch_points(sp, sp.boundary_patches[0], counts=(32,)).x
        r = np.sqrt((pts ** 2).sum(axis=0))
        np.testing.assert_allclose(r, 1.0, atol=1e-12)
        assert pts.shape == (2, 32)

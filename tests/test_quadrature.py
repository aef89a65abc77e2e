import numpy as np
import pytest

from curvcert.fields import ConstField, ExprField
from curvcert.geometry import NodeGeometry, WeightedSpace
from curvcert.quadrature import (CHUNK, BoundaryPatch, GeometryIntegrand,
                                 QuadratureError, gauss_rule,
                                 integrate_boundary, integrate_boundary_all,
                                 integrate_interior, patch_points,
                                 tensor_rule)

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
        got = integrate_interior(sp, lambda x: np.ones(x.shape[1]),
                                 counts=(64, 64))
        assert got == pytest.approx(TWO_PI, abs=1e-6)

    def test_phi_clips_domain(self):
        sp = disk(1.0)
        got = integrate_interior(sp, lambda x: np.ones(x.shape[1]),
                                 counts=(256, 256))
        assert got == pytest.approx(np.pi, abs=1e-3)

    def test_node_doubling_cauchy(self):
        sp = gaussian_plane()
        vals = [integrate_interior(sp, lambda x: np.cos(x[0]) + x[1] ** 2,
                                   counts=(m, m)) for m in (32, 64, 128)]
        assert abs(vals[2] - vals[1]) < 1e-9 * (1 + abs(vals[2]))
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12

    def test_non_finite_integrand_rejected(self):
        sp = gaussian_plane()
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_interior(sp, lambda x: np.full(x.shape[1], np.nan),
                               counts=(8, 8))

    def test_deterministic(self):
        sp = gaussian_plane()
        a = integrate_interior(sp, lambda x: np.sin(x[0] * x[1]),
                               counts=(48, 48))
        b = integrate_interior(sp, lambda x: np.sin(x[0] * x[1]),
                               counts=(48, 48))
        assert a == b

    def test_rows_summed_per_chunk_in_order(self):
        sp = gaussian_plane()
        counts = (200, 200)
        pts, wts = tensor_rule(sp.chart_box, counts)
        assert 2 * CHUNK < pts.shape[1] <= 3 * CHUNK
        fns = [lambda x: np.cos(x[0]) + x[1] ** 2,
               lambda x: np.sin(x[0] * x[1]), lambda x: x[0] ** 3]
        want = None
        for start in range(0, pts.shape[1], CHUNK):
            sl = slice(start, start + CHUNK)
            x = pts[:, sl]
            dens = np.exp(-sp.weight.value(x)) \
                * NodeGeometry(sp, x).frame.sqrt_det
            part = [float(np.sum(wts[sl] * f(x) * dens)) for f in fns]
            want = part if want is None else \
                [a + b for a, b in zip(want, part)]

        def rows(geom):
            for f in fns:
                yield f(geom.x)

        assert integrate_interior(sp, GeometryIntegrand(rows), counts) == want
        assert integrate_interior(
            sp, lambda x: np.stack([f(x) for f in fns]), counts) == want
        one = integrate_interior(sp, fns[0], counts)
        assert isinstance(one, float) and one == want[0]


class TestBoundary:
    @pytest.mark.parametrize("R", [1.0, 2.0, 0.5])
    def test_circle_length(self, R):
        sp = disk(R)
        got = integrate_boundary_all(sp, lambda x: np.ones(x.shape[1]),
                                     counts=(64,))
        assert got == pytest.approx(TWO_PI * R, rel=1e-10)

    def test_weighted_moment(self):
        # integral of x^2 over the unit circle is pi
        sp = disk(1.0)
        got = integrate_boundary(sp, lambda x: x[0] ** 2,
                                 sp.boundary_patches[0], counts=(64,))
        assert got == pytest.approx(np.pi, rel=1e-10)

    def test_patch_leaving_boundary_rejected(self):
        sp = disk(1.0, patch_ok=False)
        with pytest.raises(QuadratureError, match="leaves the boundary"):
            integrate_boundary_all(sp, lambda x: np.ones(x.shape[1]),
                                   counts=(16,))

    def test_degenerate_gram_rejected(self):
        sp = disk(1.0)
        const_patch = BoundaryPatch(
            param_box=[(0.0, 1.0)],
            maps=[ExprField("1 + 0*x", 1), ExprField("0*x", 1)],
            label="point")
        with pytest.raises(QuadratureError, match="Gram"):
            integrate_boundary(sp, lambda x: np.ones(x.shape[1]),
                               const_patch, counts=(8,))

    def test_rows_summed_per_patch_in_order(self, entry):
        space = entry("annulus").space
        assert len(space.boundary_patches) == 2
        fns = [lambda x: np.ones(x.shape[1]), lambda x: x[0] ** 2 + x[1]]
        per_patch = [[integrate_boundary(space, f, p, (32,)) for f in fns]
                     for p in space.boundary_patches]
        want = [0 + a + b for a, b in zip(*per_patch)]
        got = integrate_boundary_all(
            space, lambda x: np.stack([f(x) for f in fns]), (32,))
        assert got == want
        one = integrate_boundary_all(space, fns[1], (32,))
        assert isinstance(one, float) and one == want[1]

    def test_no_patches_rejected(self):
        sp = gaussian_plane()
        with pytest.raises(QuadratureError, match="no boundary patches"):
            integrate_boundary_all(sp, lambda x: np.ones(x.shape[1]))

    def test_patch_points_on_boundary(self):
        sp = disk(1.0)
        pts = patch_points(sp, sp.boundary_patches[0], counts=(32,)).x
        r = np.sqrt((pts ** 2).sum(axis=0))
        np.testing.assert_allclose(r, 1.0, atol=1e-12)
        assert pts.shape == (2, 32)

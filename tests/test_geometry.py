import hashlib
from pathlib import Path

import numpy as np
import pytest

from curvcert import config, exprlang, quadrature, report, verify, zoo
from curvcert import geometry as geometry_module
from curvcert import jets as jets_module
from curvcert.boundary import boundary_frame, normal_field_jets
from curvcert.exprlang import differentiate, mul, parse, simplify
from curvcert.fields import ConstField, ExprField
from curvcert.geometry import (GeometryError, NodeGeometry, WeightedSpace,
                               bakry_emery_ricci, carre_du_champ_jet,
                               contract, gamma1, gamma2, grad, hessian,
                               hs_norm_sq, jet_matrix_inverse, jet_sum,
                               laplacian_jet, ricci, witten_laplacian)
from curvcert.jets import Jet
from oracles import fd_partial

DENSE_INI = Path(__file__).resolve().parents[1] / "perfbench" / \
    "dense_family.ini"


def euclidean(dim=2, V=None):
    metric = [[ConstField(dim, 1.0 if i == j else 0.0) for j in range(dim)]
              for i in range(dim)]
    return WeightedSpace(
        dim=dim, metric=metric,
        weight=V if V is not None else ConstField(dim, 0.0),
        defining_fn=ExprField("-y" if dim == 2 else "-z", dim),
        chart_box=[(-3.0, 3.0)] * dim, boundary_patches=[], label="euclid")


def diag_space(exprs, box, phi="x - 1"):
    dim = len(exprs)
    metric = [[ConstField(dim, 0.0) for _ in range(dim)]
              for _ in range(dim)]
    for i, e in enumerate(exprs):
        metric[i][i] = ExprField(e, dim)
    return WeightedSpace(dim=dim, metric=metric,
                         weight=ConstField(dim, 0.0),
                         defining_fn=ExprField(phi, dim), chart_box=box,
                         boundary_patches=[], label="diag")


def sphere(r=1.0):
    # chart (theta, phi), g = r^2 (dtheta^2 + sin^2 theta dphi^2)
    return diag_space([f"{r * r!r}", f"{r * r!r}*sin(x)^2"],
                      box=[(0.3, 2.8), (0.0, 6.28)])


class TestFrame:
    def test_euclidean_frame(self):
        sp = euclidean()
        x = np.array([0.3, 0.8])
        geom = NodeGeometry(sp, x)
        np.testing.assert_allclose(geom.metric, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(geom.inverse, np.eye(2), atol=1e-15)
        assert float(np.asarray(geom.sqrt_det)) == pytest.approx(1.0)
        np.testing.assert_allclose(geom.christoffels, 0.0, atol=1e-15)

    def test_non_spd_rejected(self):
        sp = diag_space(["x", "1"], box=[(-2.0, 2.0), (-2.0, 2.0)])
        with pytest.raises(GeometryError):
            NodeGeometry(sp, np.array([-1.0, 0.0]))

    SPD_POINTS = np.array([[0.1, 0.5, -0.3, 0.5], [0.2, 0.4, 0.6, 0.9]])

    @staticmethod
    def _full_metric_space(g11, g12, g22):
        m = [[ExprField(g11, 2), ExprField(g12, 2)],
             [ExprField(g12, 2), ExprField(g22, 2)]]
        return WeightedSpace(dim=2, metric=m, weight=ConstField(2, 0.0),
                             defining_fn=ExprField("x - 1", 2),
                             chart_box=[(-2.0, 2.0), (-2.0, 2.0)])

    def test_spd_floor_passes_just_above(self):
        sp = diag_space(["1", "1e-9"], box=[(-2.0, 2.0)] * 2)
        sqrt_det = NodeGeometry(sp, self.SPD_POINTS).sqrt_det
        np.testing.assert_allclose(sqrt_det, np.sqrt(1e-9), rtol=1e-15)

    @pytest.mark.parametrize("g11, g12, g22, message", [
        ("1", "0", "1e-11", "min eigenvalue 1.000e-11 at point [0.1 0.2]"),
        ("1", "0", "1e-10", "min eigenvalue 1.000e-10 at point [0.1 0.2]"),
        ("1", "0", "1e-11 + (x - 0.5)^2",
         "min eigenvalue 1.000e-11 at point [0.5 0.4]"),
        ("1", "2", "1", "min eigenvalue -1.000e+00 at point [0.1 0.2]"),
    ])
    def test_spd_floor_message(self, g11, g12, g22, message):
        # at or below SPD_FLOOR eigvalsh names the least eigenvalue and
        # its first node
        sp = self._full_metric_space(g11, g12, g22)
        with pytest.raises(GeometryError) as err:
            NodeGeometry(sp, self.SPD_POINTS)
        assert str(err.value) == f"metric not positive definite: {message}"

    @staticmethod
    def _counted_eigvalsh(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize("path", sorted(zoo.SPACES.glob("*.ini"))
                             + [DENSE_INI], ids=lambda p: p.name)
    def test_interior_chunks_need_no_eigvalsh(self, monkeypatch, path):
        # every interior chunk of a shipped space is proven SPD by its
        # Gershgorin row bound, so none runs the eigvalsh probe
        cfg = config.load_config(str(path))
        chunks = list(quadrature.interior_chunks(cfg.space,
                                                 cfg.plan.quad_interior))
        calls = self._counted_eigvalsh(monkeypatch)
        for x, _, lines in chunks:
            NodeGeometry(cfg.space, x, lines)
        assert chunks and calls == []

    def test_unproven_spd_metric_probes_once(self, monkeypatch):
        # the row bound of g11 = 1, g12 = 1.5 is negative, but the metric
        # is SPD (least eigenvalue 2 - sqrt(3.25)): eigvalsh runs once on
        # the batch and passes it
        sp = self._full_metric_space("1", "1.5", "3")
        calls = self._counted_eigvalsh(monkeypatch)
        geom = NodeGeometry(sp, self.SPD_POINTS)
        assert calls == [(4, 2, 2)]
        np.testing.assert_allclose(geom.sqrt_det, np.sqrt(0.75), rtol=1e-15)

    @pytest.mark.parametrize("entry, expr", [
        ("g12", "exp(2000*x) - exp(2000*x)"),
        ("g22", "1 + exp(2000*x)"),
        ("g11", "1 + exp(8000*x) - exp(8000*x)")])
    def test_non_finite_metric_is_named(self, monkeypatch, entry, expr):
        # exp(2000 x) overflows from x = 0.36, exp(8000 x) from x = 0.09:
        # the first such point is the second or the first, where the entry
        # is inf - inf (NaN) or inf.  The entry and its first node are
        # named before any probe
        exprs = {"g11": "1", "g12": "0", "g22": "1"}
        exprs[entry] = expr
        sp = self._full_metric_space(exprs["g11"], exprs["g12"],
                                     exprs["g22"])
        calls = self._counted_eigvalsh(monkeypatch)
        point = "(0.1, 0.2)" if entry == "g11" else "(0.5, 0.4)"
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(exprlang.EvalError) as err:
                NodeGeometry(sp, self.SPD_POINTS)
        assert str(err.value) == \
            f"metric entry {entry} is not finite at point {point}"
        assert calls == []

    def test_christoffels_match_fd_oracle(self):
        sp = sphere()
        x = np.array([0.9, 1.4])
        geom = NodeGeometry(sp, x)
        n = 2
        h = 1e-5

        def metric_at(p):
            return np.array([[float(np.asarray(sp.metric[i][j].value(p)))
                              for j in range(n)] for i in range(n)])

        dg = np.stack([fd_partial(metric_at, x, l, 1, h)
                       for l in range(n)])  # [l, i, j]
        ginv = np.linalg.inv(metric_at(x))
        want = np.zeros((n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    want[k, i, j] = 0.5 * sum(
                        ginv[k, l] * (dg[i, j, l] + dg[j, i, l]
                                      - dg[l, i, j]) for l in range(n))
        np.testing.assert_allclose(geom.christoffels, want, atol=1e-8)


class TestContract:
    def test_batches_of_differing_rank_broadcast(self):
        # the (m,) geometry against a (k, m) stack of fields: the lower
        # rank batch gains leading unit axes, as in np.einsum
        rng = np.random.default_rng(5)
        ginv = rng.standard_normal((2, 2, 100))
        df = rng.standard_normal((2, 10, 100))
        got = contract("ij...,j...->i...", ginv, df)
        assert got.shape == (2, 10, 100)
        for k in range(10):
            want = np.einsum("ij...,j...->i...", ginv, df[:, k])
            assert got[:, k].tobytes() == want.tobytes()
        np.testing.assert_array_equal(
            contract("ij...,j...->i...", np.ones((2, 2, 100)),
                     np.ones((2, 10, 100))), np.full((2, 10, 100), 2.0))

    def test_lower_rank_materialised_per_node(self):
        rng = np.random.default_rng(6)
        ginv = rng.standard_normal((3, 3, 1, 7))
        h = rng.standard_normal((3, 3, 4, 2, 7))
        got = contract("ik...,jl...,ij...,kl...->...", ginv, ginv, h, h)
        assert got.shape == (4, 2, 7)
        for a, b in np.ndindex(4, 2):
            want = np.einsum("ik...,jl...,ij...,kl...->...", ginv[:, :, 0],
                             ginv[:, :, 0], h[:, :, a, b], h[:, :, a, b])
            assert got[a, b].tobytes() == want.tobytes()


class TestOperators:
    def test_hand_worked_euclidean_example(self):
        sp = euclidean()
        f = ExprField("x^2 + 3*x*y", 2)
        geom = NodeGeometry(sp, np.array([1.0, 2.0]))
        H = hessian(geom, f)
        np.testing.assert_allclose(np.asarray(H),
                                   [[2.0, 3.0], [3.0, 0.0]], atol=1e-13)
        assert float(np.asarray(gamma1(geom, f, f))) == pytest.approx(73.0)
        assert float(np.asarray(witten_laplacian(geom, f))) \
            == pytest.approx(2.0)
        assert float(np.asarray(gamma2(geom, f))) == pytest.approx(22.0)
        assert float(np.asarray(hs_norm_sq(geom, np.asarray(H)))) \
            == pytest.approx(22.0)

    def test_gamma1_symmetric_bilinear(self):
        sp = sphere()
        f = ExprField("sin(x)*cos(y)", 2)
        g = ExprField("x^2 + y", 2)
        geom = NodeGeometry(sp, np.array([[1.0, 0.7], [2.0, 3.0]]))
        np.testing.assert_allclose(np.asarray(gamma1(geom, f, g)),
                                   np.asarray(gamma1(geom, g, f)),
                                   atol=1e-14)

    def test_witten_drift(self):
        # L f = Delta f - Gamma(V, f); quadratic V gives linear drift
        sp = euclidean(V=ExprField("(x^2 + y^2)/2", 2))
        f = ExprField("x^2", 2)
        geom = NodeGeometry(sp, np.array([1.5, -0.5]))
        assert float(np.asarray(witten_laplacian(geom, f))) \
            == pytest.approx(2.0 - 1.5 * 2 * 1.5)

    def test_hs_norm_scaling_law(self):
        c = 2.5
        sp = diag_space([repr(c), repr(c)], box=[(-2.0, 2.0), (-2.0, 2.0)])
        H = np.array([[2.0, 3.0], [3.0, 0.0]])
        got = float(np.asarray(hs_norm_sq(NodeGeometry(
            sp, np.array([0.3, 0.4])), H)))
        assert got == pytest.approx(22.0 / c**2)

    def test_grad_contravariant(self):
        sp = sphere()
        f = ExprField("x", 2)   # f = theta
        gf = np.asarray(grad(NodeGeometry(sp, np.array([1.0, 0.0])), f))
        np.testing.assert_allclose(gf, [1.0, 0.0], atol=1e-14)


class TestCurvature:
    def test_euclidean_ricci_zero(self):
        sp = euclidean()
        x = np.array([[0.5], [1.5]])
        np.testing.assert_allclose(np.asarray(ricci(NodeGeometry(sp, x))), 0.0,
                                   atol=1e-13)

    def test_sphere_ricci_equals_metric(self):
        sp = sphere(1.0)
        x = np.array([[0.7, 1.2, 2.0], [0.5, 3.0, 5.5]])
        geom = NodeGeometry(sp, x)
        R = np.asarray(ricci(geom))
        np.testing.assert_allclose(R, geom.metric, atol=1e-10)

    def test_sphere_radius_scaling(self):
        # Ricci = (1/r^2) g on the round sphere of radius r
        r = 2.0
        sp = sphere(r)
        geom = NodeGeometry(sp, np.array([1.1, 0.4]))
        R = np.asarray(ricci(geom))
        np.testing.assert_allclose(R, geom.metric / r**2, atol=1e-10)

    def test_hyperbolic_ricci(self):
        # Poincare disk metric in polar coordinates: Ricci = -g
        sp = diag_space(["4/(1 - x^2)^2", "4*x^2/(1 - x^2)^2"],
                        box=[(0.1, 0.9), (0.0, 6.28)])
        geom = NodeGeometry(sp, np.array([[0.3, 0.6], [1.0, 4.0]]))
        R = np.asarray(ricci(geom))
        np.testing.assert_allclose(R, -geom.metric, atol=1e-10)

    def test_bakry_emery_quadratic_weight(self):
        sp = euclidean(V=ExprField("(x^2 + y^2)/2", 2))
        x = np.array([[0.3, -1.0], [0.7, 2.0]])
        rv = np.asarray(bakry_emery_ricci(NodeGeometry(sp, x)))
        np.testing.assert_allclose(rv, np.broadcast_to(
            np.eye(2)[:, :, None], rv.shape), atol=1e-13)

    def test_translation_invariance(self):
        c = 0.5
        base = diag_space(["4/(1 - x^2)^2", "4*x^2/(1 - x^2)^2"],
                          box=[(0.1, 0.9), (0.0, 6.28)])
        shifted = diag_space(
            [f"4/(1 - (x - {c})^2)^2", f"4*(x - {c})^2/(1 - (x - {c})^2)^2"],
            box=[(0.1 + c, 0.9 + c), (0.0, 6.28)])
        x = np.array([0.4, 2.0])
        xs = np.array([0.4 + c, 2.0])
        np.testing.assert_allclose(ricci(NodeGeometry(base, x)),
                                   ricci(NodeGeometry(shifted, xs)),
                                   atol=1e-12)


class TestAbstractHessian:
    def test_consistency_identity(self):
        # 2 H_f(grad g, grad h) = Gamma(g, Gamma(f,h)) + Gamma(h, Gamma(f,g))
        #                         - Gamma(f, Gamma(g,h))
        sp = euclidean()
        rngsrc = [("x^2*y + sin(x)", "exp(y/3)*x", "x*y + cos(y)"),
                  ("x^3 - y", "sin(x*y)", "x + y^2")]
        for fs, gs, hs in rngsrc:
            f_ast, g_ast, h_ast = (parse(s, 2) for s in (fs, gs, hs))

            def gamma_field(a, b):
                total = exprlang.ZERO
                for i in range(2):
                    total = exprlang.add(
                        total, mul(differentiate(a, i), differentiate(b, i)))
                return ExprField(simplify(total), 2)

            f = ExprField(f_ast, 2)
            g = ExprField(g_ast, 2)
            h = ExprField(h_ast, 2)
            geom = NodeGeometry(sp, np.array([[0.6, -0.8], [0.2, 1.1]]))
            H = np.asarray(hessian(geom, f))
            gg = np.asarray(grad(geom, g))
            gh = np.asarray(grad(geom, h))
            lhs = 2.0 * np.einsum("ij...,i...,j...->...", H, gg, gh)
            rhs = np.asarray(gamma1(geom, g, gamma_field(f_ast, h_ast))) \
                + np.asarray(gamma1(geom, h, gamma_field(f_ast, g_ast))) \
                - np.asarray(gamma1(geom, f, gamma_field(g_ast, h_ast)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-8, rtol=1e-8)


class TestGamma2Flat:
    def test_equals_hessian_norm(self):
        sp = euclidean()
        rng = np.random.default_rng(5)
        geom = NodeGeometry(sp, np.stack([rng.uniform(-1, 1, 20),
                                          rng.uniform(-1, 1, 20)]))
        for f in verify.random_fields(2, 5, seed=3):
            g2 = np.asarray(gamma2(geom, f))
            H = np.asarray(hessian(geom, f))
            hn = np.asarray(hs_norm_sq(geom, H))
            np.testing.assert_allclose(g2, hn, atol=1e-10, rtol=1e-10)


def _space_and_plan(name):
    if name == DENSE_INI.name:
        cfg = config.load_config(str(DENSE_INI))
        return cfg.space, cfg.plan
    e = zoo.load(name)
    return e.space, e.plan


def _node_geometries(space, plan):
    """The geometry of the first interior quadrature chunk and of each
    boundary patch's quadrature nodes."""
    pts, _ = quadrature.tensor_rule(space.chart_box, plan.quad_interior)
    yield NodeGeometry(space, pts[:, :quadrature.CHUNK])
    for patch in space.boundary_patches:
        s, _ = quadrature.tensor_rule(patch.param_box, plan.quad_boundary)
        yield quadrature._patch_geometry(space, patch, s)[0]


def _order3_reference(space, x):
    """Metric, inverse and weight jets at order 3, the Christoffel jets at
    order 2 with every (k, i, j) formed on its own, and the normal field
    at order 2: what the geometry built before it was graded."""
    n = space.dim
    jg = [[space.metric[min(i, j)][max(i, j)].jet(x, 3) for j in range(n)]
          for i in range(n)]
    jginv = jet_matrix_inverse(jg)
    dg = [[[jg[i][j].partial(l) for l in range(n)] for j in range(n)]
          for i in range(n)]
    jgam = [[[0.5 * sum((jginv[k][l] * (dg[j][l][i] + dg[i][l][j]
                                         - dg[i][j][l]) for l in range(1, n)),
                        jginv[k][0] * (dg[j][0][i] + dg[i][0][j]
                                       - dg[i][j][0]))
              for j in range(n)] for i in range(n)] for k in range(n)]
    jphi = space.defining_fn.jet(x, 3)
    dphi = [jphi.partial(i) for i in range(n)]
    up = [sum((jginv[k][j] * dphi[j] for j in range(1, n)),
              jginv[k][0] * dphi[0]) for k in range(n)]
    norm2 = sum((dphi[i] * up[i] for i in range(1, n)), dphi[0] * up[0])
    jN = [u * norm2 ** -0.5 for u in up]
    return jg, jginv, jgam, space.weight.jet(x, 3), jN


class TestGradedGeometry:
    """Each geometry jet is built only to the order its consumers read, and
    its slots are bit for bit those of the order-3 computation."""

    @pytest.mark.parametrize("name", zoo.list_entries() + [DENSE_INI.name])
    def test_jets_are_truncations_of_order3(self, name):
        space, plan = _space_and_plan(name)
        n = space.dim
        for geom in _node_geometries(space, plan):
            jg, jginv, jgam, jV, jN = _order3_reference(space, geom.x)
            got_N = normal_field_jets(geom)

            def same(a, b, order):
                assert a.order == order
                want = b.truncate(order)  # a prefix on one support
                assert (a.degree, a.support) == (want.degree, want.support)
                assert np.array_equal(a.stored, want.stored)

            same(geom.jV, jV, 2)
            for i in range(n):
                same(got_N[i], jN[i], 1)
                for j in range(n):
                    same(geom.jg[i][j], jg[i][j], 2)
                    same(geom.jginv[i][j], jginv[i][j], 2)
                    for k in range(n):
                        same(geom.jgam[k][i][j], jgam[k][i][j], 1)
                        assert geom.jgam[k][i][j] is geom.jgam[k][j][i]
            gamma = geom.christoffels
            assert np.array_equal(gamma, gamma.swapaxes(1, 2))


    @pytest.mark.parametrize("name", zoo.list_entries() + [DENSE_INI.name])
    def test_order1_inverse_is_the_order2_truncated(self, name):
        # g^{ij} is inverted at order 1 on its own, whether or not its
        # order-2 jets exist, and its slots are theirs truncated, bit for bit
        space, plan = _space_and_plan(name)
        n = space.dim
        for geom in _node_geometries(space, plan):
            alone, after = NodeGeometry(space, geom.x), geom
            want = after.jginv
            assert "jginv1" not in vars(alone)
            for i in range(n):
                for j in range(n):
                    w = want[i][j].truncate(1)
                    assert want[i][j].order == 2
                    for got in (alone.jginv1[i][j], after.jginv1[i][j]):
                        assert (got.order, got.degree, got.support) == \
                            (w.order, w.degree, w.support)
                        assert np.array_equal(got.stored.view(np.uint64),
                                              w.stored.view(np.uint64))

    def test_sweep_inverts_the_metric_to_order_1(self, monkeypatch):
        # a weak sweep, inside and on the boundary, and the Neumann gate's
        # frames read g^{ij} to order 1 only
        cfg = config.load_config(str(DENSE_INI))
        orders = set()
        original = geometry_module.jet_matrix_inverse

        def recorded(a):
            out = original(a)
            orders.update(e.order for row in out for e in row)
            return out

        monkeypatch.setattr(geometry_module, "jet_matrix_inverse", recorded)
        verify.decomposition_batch(cfg.space, cfg.neumann(), cfg.h_fields(),
                                   (32, 16), (32,), cfg.plan.boundary_counts)
        assert orders == {1}


class TestStructuralZeros:
    """ball3's geometry never reads the azimuth, and its metric is
    diagonal: its jets skip the azimuth's slots and its tensor loops skip
    zero components, so each component keeps the shape of the axes it
    reads, and a suite multiplies few slot pairs."""

    AZIMUTH = 2

    def test_ball3_chunk_jets_skip_the_azimuth(self):
        e = zoo.load("ball3")
        x, _, lines = next(quadrature.interior_chunks(
            e.space, e.plan.quad_interior))
        geom = NodeGeometry(e.space, x, lines)
        g = e.neumann_family()[0].field.jet(x, 3, lines)
        assert g.order == 3
        jets = [geom.jV, g] + [j for row in geom.jg + geom.jginv
                               for j in row]
        jets += [c for p in geom.jgam for row in p for c in row]
        assert not [j for j in jets if self.AZIMUTH in j.support]
        assert geom.jginv[0][0].batch_shape == (1, 1, 1)  # g^{rr} = 1
        assert geom.jginv[1][1].batch_shape == (lines[0].size, 1, 1)

    def test_ball3_tensor_loops_multiply_no_zero_jet(self, monkeypatch):
        zero_products = []
        mul = Jet.__mul__

        def recording(a, b):
            if isinstance(b, Jet) and (a.is_zero or b.is_zero):
                zero_products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Jet, "__mul__", recording)
        monkeypatch.setattr(Jet, "__rmul__", recording)
        e = zoo.load("ball3")
        interior, *patches = _node_geometries(e.space, e.plan)
        g = e.neumann_family()[0].field.jet(interior.x, 3)
        dg = [g.partial(i) for i in range(3)]
        laplacian_jet(interior, dg)
        carre_du_champ_jet(interior, dg)
        for geom in patches:
            normal_field_jets(geom)
        assert not zero_products

    def test_ball3_suite_slot_pairs(self, monkeypatch):
        # the Leibniz pairs one ball3 suite multiplies: 8906 when every
        # jet carried every variable and every zero metric component
        pairs = []
        product = jets_module._product

        def counted(a, b, plan, n_out, batch):
            pairs.append(sum((lead is not None) + len(rest)
                             for _, lead, rest in plan))
            return product(a, b, plan, n_out, batch)

        monkeypatch.setattr(jets_module, "_product", counted)
        target = zoo.load("ball3")
        assert report.run_suite(target)["passed"]
        assert 0 < sum(pairs) <= 3000


class TestLaplacianJet:
    def test_zero_inverse_entry_forms_no_difference(self, monkeypatch):
        # gaussian_half_space is weighted with a diagonal metric: its two
        # zero g^{ij} leave their Hess_ij f - d_iV d_jf unformed, while
        # Hess f keeps every entry
        e = zoo.load("gaussian_half_space")
        x, _, lines = next(quadrature.interior_chunks(
            e.space, e.plan.quad_interior))
        geom = NodeGeometry(e.space, x, lines)
        g = e.neumann().field.jet(x, 3, lines)
        df = [g.partial(i) for i in range(2)]
        geom.jginv, geom.jgam, geom.jV  # built before the count
        products = []
        mul = Jet.__mul__

        def counted(a, b):
            if isinstance(b, Jet):
                products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Jet, "__mul__", counted)
        lf, H = laplacian_jet(geom, df)
        monkeypatch.undo()
        assert len(products) == 4  # 6 when the differences were formed
        digest = [hashlib.sha256(np.ascontiguousarray(a).tobytes()
                                 ).hexdigest() for a in (lf.coeffs, H)]
        assert digest == [
            "7d037bf59c5b1b71e22237c4f1f6ca1169b281fe93edde74d222ffd15aa85ce6",
            "74c1b2240f74caffe432d84938668ce7b81b07ed409bf999b8637cf90a97e60d"]


class TestHessian:
    @pytest.mark.parametrize("name", ["ball3", DENSE_INI.name])
    def test_hessian_is_the_laplacian_jets_without_l(self, monkeypatch,
                                                     name):
        # Hess V for Ricci_V is formed by hessian_jets alone, bit for bit
        # the Hess f that laplacian_jet hands back with L f
        space, plan = _space_and_plan(name)
        x, _, lines = next(quadrature.interior_chunks(space,
                                                      plan.quad_interior))
        geom = NodeGeometry(space, x, lines)
        jv = geom.jV
        _, want = laplacian_jet(geom, [jv.partial(i)
                                       for i in range(space.dim)])
        monkeypatch.setattr(geometry_module, "laplacian_jet", None)
        got = hessian(geom, jv)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


    @pytest.mark.parametrize("name", zoo.list_entries() + [DENSE_INI.name])
    def test_hess_v_values_from_order0_products(self, name):
        # hessian_jets truncates its Christoffel and partial factors to the
        # entries' order, so Hess V takes order-0 products: the values and
        # signs of zero of the order-1 products formed before
        space, plan = _space_and_plan(name)
        n = space.dim
        x, _, lines = next(quadrature.interior_chunks(space,
                                                      plan.quad_interior))
        geom = NodeGeometry(space, x, lines)
        got = hessian(geom, geom.jV)
        df = [geom.jV.partial(i) for i in range(n)]
        want = geometry_module._hessian_values(geom, {
            (i, j): jet_sum([(df[i].partial(j),)],
                            ((geom.jgam[k][i][j], df[k]) for k in range(n))
                            ).value
            for i in range(n) for j in range(n)})
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _bits(a, shape):
    """The float64 bit patterns of a broadcast to ``shape``."""
    return np.ascontiguousarray(np.broadcast_to(a, shape)).view(np.uint64)


class TestSingleSource:
    """g^{ij}, the Christoffel values and the outward normal have one
    formula each: they are the values of ``jet_matrix_inverse``,
    ``christoffel_jets`` and ``normal_field_jets`` bit for bit, on every
    grid a suite builds."""

    @pytest.mark.parametrize("name", zoo.list_entries() + [DENSE_INI.name])
    def test_values_are_the_jets(self, name):
        space, plan = _space_and_plan(name)
        n = space.dim
        sample, frames = plan.grids(space)
        geoms = list(_node_geometries(space, plan)) + [sample]
        frames += [boundary_frame(g) for g in geoms[1:-1]]
        for geom in geoms + [bf.geom for bf in frames]:
            gamma = geom.christoffels
            batch = gamma.shape[3:]
            assert batch == geom.x.shape[1:]
            assert geom.inverse.shape[2:] == batch
            for k in range(n):
                assert np.array_equal(
                    _bits(geom.inverse[k], (n,) + batch), np.stack(
                        [_bits(e.value, batch) for e in geom.jginv[k]]))
                for i in range(n):
                    for j in range(n):
                        assert np.array_equal(
                            _bits(gamma[k, i, j], batch),
                            _bits(geom.jgam[k][i][j].value, batch))
        for bf in frames:
            batch = bf.point.shape[1:]
            again = normal_field_jets(bf.geom)
            for k in range(n):
                want = _bits(again[k].value, batch)
                assert np.array_equal(_bits(bf.normal[k], batch), want)
                assert np.array_equal(
                    _bits(bf.normal_jets[k].value, batch), want)

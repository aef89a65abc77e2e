import collections
import dataclasses

import numpy as np
import pytest

from curvcert import boundary, geometry, quadrature, report, verify
from curvcert.boundary import NeumannTestFunction
from curvcert.fields import ConstField, CutoffField, ExprField, ScalarField
from curvcert.jets import MAX_ORDER
from curvcert.verify import (CheckResult, GateError, certify, check_bochner,
                             check_dimension_term, check_green,
                             check_ii_identity, check_mv_laplacian,
                             check_ricci_decomposition, eigenvalues_relative,
                             flatness_report, neumann_gate)


class TestGate:
    def test_corrupted_test_function_raises(self, ball):
        # skip the exact correction: chi * w has a boundary-normal gradient
        raw = NeumannTestFunction(
            base=ExprField("x*cos(y)", 2),
            field=CutoffField(ball.cutoff) * ExprField("x*cos(y)", 2),
            cutoff=ball.cutoff, label="corrupted")
        with pytest.raises(GateError, match="hypothesis"):
            neumann_gate(ball.space, raw, ball.plan.boundary_counts)
        with pytest.raises(GateError, match="hypothesis"):
            check_ii_identity(ball.space, raw,
                              boundary_counts=ball.plan.boundary_counts)
        with pytest.raises(GateError):
            check_ricci_decomposition(
                ball.space, raw, ball.h_fields()[0],
                ball.plan.quad_interior, ball.plan.quad_boundary,
                ball.plan.boundary_counts)

    def test_gate_value_small_for_honest_field(self, ball):
        g = ball.neumann_family()[0]
        worst = neumann_gate(ball.space, g, ball.plan.boundary_counts)
        assert worst < 1e-10


def decomposition_sides(space, g, h, plan):
    """(LHS, RHS) of the decomposition check's metadata."""
    meta = check_ricci_decomposition(
        space, g, h, plan.quad_interior, plan.quad_boundary,
        plan.boundary_counts).metadata
    return np.array([meta["lhs"],
                     meta["rhs_interior"] + meta["rhs_boundary"]])


class TestDecomposition:
    def test_passes_on_ball(self, ball):
        g = ball.neumann_family()[0]
        r = check_ricci_decomposition(
            ball.space, g, ball.h_fields()[0],
            ball.plan.quad_interior, ball.plan.quad_boundary,
            ball.plan.boundary_counts)
        assert r.passed
        assert r.residual <= r.tolerance

    def test_linearity_in_h(self, ball):
        g = ball.neumann_family()[0]
        h1, h2 = ball.h_fields()[:2]
        a, b = 2.0, -0.5

        def sides(h):
            return decomposition_sides(ball.space, g, h, ball.plan)

        s1, s2 = sides(h1), sides(h2)
        combo = sides(a * h1 + b * h2)
        np.testing.assert_allclose(combo, a * s1 + b * s2,
                                   rtol=1e-6, atol=1e-6)

    def test_constant_weight_shift_scales_both_sides(self, ball):
        c = 0.7
        shifted = dataclasses.replace(
            ball.space, weight=ConstField(2, c), label="shifted")
        g = ball.neumann_family()[0]
        h = ball.h_fields()[0]
        base = decomposition_sides(ball.space, g, h, ball.plan)
        shift = decomposition_sides(shifted, g, h, ball.plan)
        np.testing.assert_allclose(shift, np.exp(-c) * base,
                                   rtol=1e-10, atol=1e-12)


class TestGreenAndLaplacian:
    def test_green_with_non_neumann_field(self, ball):
        # g = rho is deliberately not Neumann: the boundary flux term is
        # essential and Green's formula still closes
        r = check_green(ball.space, ball.h_fields()[0], ExprField("x", 2),
                        ball.plan.quad_interior, ball.plan.quad_boundary)
        assert r.passed
        assert abs(r.metadata["boundary_flux"]) > 1e-3

    def test_mv_laplacian_neumann(self, ball):
        g = ball.neumann_family()[0]
        r = check_mv_laplacian(ball.space, g, ball.h_fields()[1],
                               ball.plan.quad_interior,
                               ball.plan.quad_boundary)
        assert r.passed
        assert r.metadata["neumann"]
        assert abs(r.metadata["boundary_flux"]) < 1e-8

    def test_mv_laplacian_leak_flagged(self, ball):
        leaky = NeumannTestFunction(
            base=ExprField("x^2", 2),
            field=CutoffField(ball.cutoff) * ExprField("x^2", 2),
            cutoff=ball.cutoff, label="leaky")
        r = check_mv_laplacian(ball.space, leaky, ball.h_fields()[0],
                               ball.plan.quad_interior,
                               ball.plan.quad_boundary)
        assert not r.passed
        assert "neumann_boundary_leak" in r.metadata


class CountingField(ScalarField):
    """A field that counts its jet evaluations and keeps their points and
    orders; a value is read from an order-0 jet, so it counts as one."""

    def __init__(self, inner):
        self.inner, self.dim, self.jets = inner, inner.dim, 0
        self.points, self.orders = [], []

    def jet(self, x, order=MAX_ORDER):
        self.jets += 1
        self.points.append(np.asarray(x))
        self.orders.append(order)
        return self.inner.jet(x, order)


def count_geometry(monkeypatch):
    """Count ``metric_jets``, ``frame_at`` and ``christoffel_jets`` calls,
    patched in every module that binds them."""
    calls = collections.Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    space_cls = geometry.WeightedSpace
    monkeypatch.setattr(space_cls, "metric_jets", counted(
        "metric_jets", space_cls.metric_jets))
    for fname in ("frame_at", "christoffel_jets"):
        original = getattr(geometry, fname)
        for module in (geometry, boundary, quadrature, verify, report):
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counted(fname, original))
    return calls


class TestSharedSweep:
    @pytest.mark.parametrize("name, chunks, patches",
                             [("ball", 1, 1), ("half_space", 3, 1)])
    def test_geometry_once_per_batch(self, entry, monkeypatch, name, chunks,
                                     patches):
        e = entry(name)
        calls = count_geometry(monkeypatch)
        g = CountingField(e.neumann_family()[0].field)
        hs = [CountingField(h) for h in e.h_fields()[:3]]
        ints = verify._weak_integrals(e.space, g, hs, e.plan.quad_interior,
                                      e.plan.quad_boundary)
        assert len(ints) == len(hs) == 3
        for w in ints:
            assert set(w) == {"gamma", "laplacian", "flux", "lhs",
                              "rhs_interior", "rhs_boundary"}
        batches = chunks + patches
        assert calls["frame_at"] == batches
        assert calls["metric_jets"] == batches
        # the boundary integrands read neither the Christoffel jets nor
        # the derivatives of h; g is jetted once per batch for the family,
        # at order 3 inside and at order 1 (its gradient) on the boundary;
        # each h at order 1 once per chunk and read as a value per patch
        assert calls["christoffel_jets"] == chunks
        assert g.orders == [3] * chunks + [1] * patches
        for h in hs:
            assert h.orders == [1] * chunks + [0] * patches
            assert 3 not in h.orders

    @pytest.mark.parametrize("name", ["annulus", "ball", "half_space"])
    def test_batch_matches_weak_checks(self, entry, name):
        e = entry(name)
        g, hs, plan = e.neumann_family()[0], e.h_fields()[:3], e.plan
        args = (plan.quad_interior, plan.quad_boundary, plan.boundary_counts)
        batch = verify.decomposition_batch(e.space, g, hs, *args)
        assert len(batch) == 3
        for h, pair in zip(hs, batch):
            meta = verify.weak_checks(e.space, g, h, *args)[3].metadata
            assert pair == (meta["lhs"],
                            meta["rhs_interior"] + meta["rhs_boundary"])

    def test_suite_matches_standalone_checks(self, entry):
        e = entry("annulus")
        target = report.target_from_zoo(e)
        run = report.run_suite(target)
        suite = {r.name: r.to_dict() for r in run["checks"]}
        g, h, plan = target.neumann(), target.h_field(), target.plan
        qi, qb = plan.quad_interior, plan.quad_boundary
        assert suite["green"] == check_green(e.space, h, g, qi,
                                             qb).to_dict()
        assert suite["mv_laplacian"] == check_mv_laplacian(
            e.space, g, h, qi, qb).to_dict()
        assert suite["ricci_decomposition"] == check_ricci_decomposition(
            e.space, g, h, qi, qb, plan.boundary_counts).to_dict()
        assert suite["ii_identity"] == check_ii_identity(
            e.space, g, boundary_counts=plan.boundary_counts).to_dict()
        assert run["certificate"].to_dict() == certify(
            e.space, k_list=(0.0,), plan=plan).to_dict()
        assert run["flatness"].to_dict() == flatness_report(
            e.space, plan=plan).to_dict()

    def test_suite_jets_h_to_the_order_read(self, entry):
        # h enters the weak identities through h and grad h only: no
        # order-3 jet of it is built anywhere in a suite
        target = report.target_from_zoo(entry("ball"))
        h = CountingField(target.h_field())
        target.h_field = lambda: h
        assert report.run_suite(target)["passed"]
        assert h.orders == [1, 0]  # one interior chunk, one patch

    def test_suite_geometry_once_per_sample_grid(self, entry, monkeypatch):
        e = entry("ball")
        target = report.target_from_zoo(e)
        patch, = e.space.boundary_patches
        (lo, hi), = patch.param_box
        m, = e.plan.boundary_counts
        s = (lo + (hi - lo) * (np.arange(m) + 0.5) / m)[None]
        grid = np.stack([f.jet(s).value for f in patch.maps])
        neumann = target.neumann()
        g = CountingField(neumann.field)
        target.neumann = lambda: dataclasses.replace(neumann, field=g)
        calls = count_geometry(monkeypatch)
        assert report.run_suite(target)["passed"]
        # bochner and dimension_term share one geometry each; the sample
        # grid one (gate and II identity); the weak sweep one chunk and
        # one patch; certify its interior and boundary grids; flatness
        # none, being read off the certificate
        assert calls["frame_at"] == 7
        on_grid = [x for x in g.points if x.shape == grid.shape
                   and np.allclose(x, grid, rtol=0, atol=1e-12)]
        assert len(on_grid) == 1  # the gate and the II identity share it


class TestPointwiseChecks:
    def test_bochner_random_fields(self, ball):
        fields = ball.random_fields(5, seed=11)
        pts = ball.interior_points((8, 8))
        r = check_bochner(ball.space, fields, pts)
        assert r.passed

    def test_ii_identity(self, ball):
        g = ball.neumann_family()[0]
        r = check_ii_identity(ball.space, g,
                              boundary_counts=ball.plan.boundary_counts)
        assert r.passed

    def test_dimension_needs_n_at_least_dim(self, ball):
        with pytest.raises(ValueError, match="unsatisfiable"):
            check_dimension_term(ball.space, ball.random_fields(1, 1),
                                 ball.interior_points((4, 4)), n_dim=1.5)

    def test_dimension_conformal_equality(self, half_space):
        # Hessian proportional to the metric: the trace bound is tight
        # exactly when N equals the chart dimension
        f = ExprField("(x^2 + y^2)/2", 2)
        pts = half_space.interior_points((6, 6))
        r = check_dimension_term(half_space.space, [f], pts, n_dim=2.0)
        assert r.passed
        assert abs(r.residual) < 1e-12
        strict = check_dimension_term(half_space.space, [f], pts, n_dim=3.0)
        assert strict.passed
        assert strict.residual < -0.5  # slack opens up once N > n

    def test_dimension_random_fields(self, ball):
        r = check_dimension_term(ball.space, ball.random_fields(10, 3),
                                 ball.interior_points((8, 8)), n_dim=2.0)
        assert r.passed


class TestCertify:
    def test_monotone_in_k(self, gaussian_half_space):
        e = gaussian_half_space
        rep = certify(e.space, k_list=[0.5, 1.0, 1.0 + 1e-3, 2.0],
                      plan=e.plan)
        verdicts = [rep.rcd_infinity[k]
                    for k in (0.5, 1.0, 1.0 + 1e-3, 2.0)]
        assert verdicts == sorted(verdicts, reverse=True)
        assert rep.rcd_infinity[1.0] and not rep.rcd_infinity[1.0 + 1e-3]

    def test_rcd_star_needs_n_ge_dim(self, gaussian_half_space):
        e = gaussian_half_space
        rep = certify(e.space, k_list=[0.0], n_list=[1.5, 2.0, 10.0],
                      plan=e.plan)
        assert not rep.rcd_star[(0.0, 1.5)]
        assert rep.rcd_star[(0.0, 2.0)] and rep.rcd_star[(0.0, 10.0)]

    def test_certified_k_non_convex(self, entry):
        e = entry("annulus")
        rep = certify(e.space, k_list=[0.0], plan=e.plan)
        assert rep.certified_k() == float("-inf")
        assert rep.lambda_min_ii == pytest.approx(-2.0, abs=1e-6)

    def test_empty_plan_rejected(self, ball):
        # phi >= 0 on the whole chart leaves no interior sample points
        exterior = dataclasses.replace(
            ball.space, defining_fn=ConstField(2, 1.0), label="empty")
        with pytest.raises(ValueError, match="empty interior"):
            certify(exterior, k_list=[0.0], interior_counts=(4, 4),
                    boundary_counts=ball.plan.boundary_counts)


class TestFlatness:
    def test_half_space_flat(self, half_space):
        r = flatness_report(half_space.space, plan=half_space.plan)
        assert r.passed
        assert r.metadata["strong_flat"] and r.metadata["minimal_trace"]

    def test_ball_not_flat(self, ball):
        r = flatness_report(ball.space, plan=ball.plan)
        assert not r.passed
        assert r.metadata["max_abs_ii"] == pytest.approx(1.0, abs=1e-6)

    def test_certificate_extremes_give_full_maxima(self, entry):
        # flatness reduces the certificate's extremes; that equals the
        # max of |.| over every sampled eigenvalue and trace exactly
        e = entry("annulus")
        counts = e.plan.interior_counts, e.plan.boundary_counts
        _, eigs = verify.interior_spectrum(e.space, counts[0])
        spectra = list(verify.boundary_spectra(e.space, counts[1]))
        meta = flatness_report(e.space, plan=e.plan).metadata
        assert meta["max_abs_ricci_v"] == float(np.max(np.abs(eigs)))
        assert meta["max_abs_ii"] == max(float(np.max(np.abs(eig)))
                                         for _, eig, _ in spectra)
        assert meta["max_abs_tr_ii"] == max(float(np.max(np.abs(tr)))
                                            for _, _, tr in spectra)

    def test_no_boundary_patches_rejected(self, ball):
        # a boundary that was never sampled is not certified flat
        unsampled = dataclasses.replace(ball.space, boundary_patches=())
        with pytest.raises(ValueError, match="empty boundary"):
            flatness_report(unsampled, plan=ball.plan)


class TestHelpers:
    def test_eigenvalues_relative_hand_case(self):
        A = np.array([[2.0, 0.0], [0.0, 8.0]])
        G = np.array([[1.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(eigenvalues_relative(A, G), [2.0, 2.0],
                                   atol=1e-12)

    def test_eigenvalues_relative_batched(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(2, 2, 6))
        G = np.einsum("ik...,jk...->ij...", B, B) + 2 * np.eye(2)[:, :, None]
        A = rng.normal(size=(2, 2, 6))
        A = 0.5 * (A + np.swapaxes(A, 0, 1))
        eig = eigenvalues_relative(A, G)
        for k in range(6):
            want = np.sort(np.linalg.eigvals(
                np.linalg.solve(G[:, :, k], A[:, :, k])).real)
            np.testing.assert_allclose(eig[k], want, atol=1e-10)

    def test_check_result_contract(self):
        r = CheckResult(name="demo", residual=2e-6, tolerance=1e-5,
                        passed=2e-6 <= 1e-5)
        assert r.passed == (r.residual <= r.tolerance)
        assert "PASS" in str(r)
        d = r.to_dict()
        assert d["name"] == "demo" and d["passed"]

import collections
import dataclasses
import functools
import re

import numpy as np
import pytest

from curvcert import (boundary, config, geometry, quadrature, report,
                      verify, zoo)
from curvcert.boundary import NeumannTestFunction
from curvcert.exprlang import EvalError
from curvcert.fields import ConstField, CutoffField, ExprField, ScalarField
from curvcert.geometry import NodeGeometry
from curvcert.jets import MAX_ORDER
from curvcert.verify import (CheckResult, GateError, boundary_grid, certify,
                             check_bochner, check_dimension_term,
                             check_green, check_ii_identity,
                             check_mv_laplacian, check_ricci_decomposition,
                             eigenvalues_relative, flatness_report,
                             interior_grid, neumann_gate)


def frames_of(e):
    """The boundary sample frames of a zoo entry's plan."""
    return boundary_grid(e.space, e.plan.boundary_counts)


class TestGate:
    def test_corrupted_test_function_raises(self, ball):
        # skip the exact correction: chi * w has a boundary-normal gradient
        raw = NeumannTestFunction(
            base=ExprField("x*cos(y)", 2),
            field=CutoffField(ball.cutoff) * ExprField("x*cos(y)", 2))
        frames = frames_of(ball)
        with pytest.raises(GateError, match="hypothesis"):
            neumann_gate(raw, frames)
        with pytest.raises(GateError, match="hypothesis"):
            check_ii_identity(raw, frames)
        with pytest.raises(GateError):
            check_ricci_decomposition(
                ball.space, raw, ball.h_fields()[0], frames,
                ball.plan.quad_interior, ball.plan.quad_boundary)

    def test_gate_value_small_for_honest_field(self, ball):
        g = ball.neumann_family()[0]
        _, worst = neumann_gate(g, frames_of(ball))
        assert worst < 1e-10

    def _counted_batch(self, monkeypatch, e, g, boundary_counts):
        """The gate and frame calls of one small decomposition_batch."""
        calls = collections.Counter()
        for fname in ("neumann_gate", "boundary_grid"):
            def wrapper(*args, _fname=fname,
                        _original=getattr(verify, fname)):
                calls[_fname] += 1
                return _original(*args)
            monkeypatch.setattr(verify, fname, wrapper)
        try:
            verify.decomposition_batch(e.space, g, e.h_fields()[:1], (16, 8),
                                       (16,), boundary_counts)
        finally:
            monkeypatch.undo()
        return dict(calls)

    def test_batch_gates_once_per_space_and_counts(self, ball, monkeypatch):
        g = ball.neumann_family()[0]
        counts = ball.plan.boundary_counts
        both = {"neumann_gate": 1, "boundary_grid": 1}
        assert self._counted_batch(monkeypatch, ball, g, counts) == both
        assert self._counted_batch(monkeypatch, ball, g, counts) == {}
        other = (counts[0] // 2,)
        assert self._counted_batch(monkeypatch, ball, g, other) == both
        assert self._counted_batch(monkeypatch, ball, g, other) == {}
        assert self._counted_batch(monkeypatch, ball, g, counts) == {}
        # the record is g's, left out of its repr and equality
        fresh = NeumannTestFunction(base=g.base, field=g.field)
        assert fresh == g and repr(fresh) == repr(g)
        assert self._counted_batch(monkeypatch, ball, fresh, counts) == both

    def test_batch_refuses_a_violating_field_every_call(self, ball):
        raw = NeumannTestFunction(
            base=ExprField("x*cos(y)", 2),
            field=CutoffField(ball.cutoff) * ExprField("x*cos(y)", 2))
        for _ in range(2):
            with pytest.raises(GateError, match="hypothesis"):
                verify.decomposition_batch(
                    ball.space, raw, ball.h_fields()[:1], (16, 8), (16,),
                    ball.plan.boundary_counts)


def decomposition_sides(space, g, h, plan):
    """(LHS, RHS) of the decomposition check's metadata."""
    meta = check_ricci_decomposition(
        space, g, h, boundary_grid(space, plan.boundary_counts),
        plan.quad_interior, plan.quad_boundary).metadata
    return np.array([meta["lhs"],
                     meta["rhs_interior"] + meta["rhs_boundary"]])


class TestDecomposition:
    def test_passes_on_ball(self, ball):
        g = ball.neumann_family()[0]
        r = check_ricci_decomposition(
            ball.space, g, ball.h_fields()[0], frames_of(ball),
            ball.plan.quad_interior, ball.plan.quad_boundary)
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
            field=CutoffField(ball.cutoff) * ExprField("x^2", 2))
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

    def jet(self, x, order=MAX_ORDER, lines=None):
        self.jets += 1
        self.points.append(np.asarray(x))
        self.orders.append(order)
        return self.inner.jet(x, order, lines)


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
        # the Christoffel jets once per batch: inside for Gamma2 and
        # Ricci_V, on the boundary for the II's Christoffel values; h's
        # derivatives are not read on the boundary; g is jetted once per
        # batch for the family, at order 3 inside and at order 1 (its
        # gradient) on the boundary; each h at order 1 once per chunk and
        # read as a value per patch
        assert calls["christoffel_jets"] == batches
        assert g.orders == [3] * chunks + [1] * patches
        for h in hs:
            assert h.orders == [1] * chunks + [0] * patches
            assert 3 not in h.orders

    def test_weight_jetted_once_per_batch(self, entry):
        # the density reads V off the batch geometry's order-2 weight jet,
        # the one Hess V reads: one evaluation per chunk and per patch
        e = entry("gaussian_half_space")
        w = CountingField(e.space.weight)
        space = dataclasses.replace(e.space, weight=w)
        qi, qb = e.plan.quad_interior, e.plan.quad_boundary
        verify.weak_checks(space, e.neumann(), e.h_field(), None, qi, qb)
        chunks = len(list(quadrature.interior_chunks(space, qi)))
        assert chunks == 3 and len(space.boundary_patches) == 1
        assert w.orders == [2] * (chunks + 1)

    @pytest.mark.parametrize("name", ["ball", "half_space"])
    def test_phi_jetted_once_per_batch(self, entry, name):
        # every reader of a batch's phi (the inside mask, the on-boundary
        # checks, the normal) reads the batch geometry's order-2 jet: one
        # evaluation per sample patch, chunk and quadrature patch
        e = entry(name)
        g = e.neumann()  # before phi is swapped: make_neumann reads its AST
        phi = CountingField(e.space.defining_fn)
        space = dataclasses.replace(e.space, defining_fn=phi)
        qi, qb = e.plan.quad_interior, e.plan.quad_boundary
        frames = boundary_grid(space, e.plan.boundary_counts)
        patches = len(space.boundary_patches)
        assert phi.orders == [2] * patches
        verify.weak_checks(space, g, e.h_field(), frames, qi, qb)
        chunks = len(list(quadrature.interior_chunks(space, qi)))
        assert phi.orders == [2] * (patches + chunks + patches)

    @pytest.mark.parametrize("name", ["annulus", "ball", "half_space"])
    def test_batch_matches_weak_checks(self, entry, name):
        e = entry(name)
        g, hs, plan = e.neumann_family()[0], e.h_fields()[:3], e.plan
        qi, qb = plan.quad_interior, plan.quad_boundary
        batch = verify.decomposition_batch(e.space, g, hs, qi, qb,
                                           plan.boundary_counts)
        assert len(batch) == 3
        for h, pair in zip(hs, batch):
            meta = verify.weak_checks(e.space, g, h, frames_of(e), qi,
                                      qb)[3].metadata
            assert pair == (meta["lhs"],
                            meta["rhs_interior"] + meta["rhs_boundary"])

    @pytest.mark.parametrize("name", ["green", "mv_laplacian"])
    def test_standalone_weak_check_equals_weak_checks(self, entry, name):
        # green and mv_laplacian alone give the result the sweep with the
        # decomposition gives
        e = entry("ball")
        g, h, plan = e.neumann(), e.h_field(), e.plan
        qi, qb = plan.quad_interior, plan.quad_boundary
        got = check_green(e.space, h, g, qi, qb) if name == "green" else \
            check_mv_laplacian(e.space, g, h, qi, qb)
        full = {r.name: r for r in verify.weak_checks(
            e.space, g, h, frames_of(e), qi, qb)}
        assert got.to_dict() == full[name].to_dict()

    def test_suite_matches_standalone_checks(self, entry):
        e = target = entry("annulus")
        run = report.run_suite(target)
        suite = {r.name: r.to_dict() for r in run["checks"]}
        g, h, plan = target.neumann(), target.h_field(), target.plan
        qi, qb = plan.quad_interior, plan.quad_boundary
        assert suite["green"] == check_green(e.space, h, g, qi,
                                             qb).to_dict()
        assert suite["mv_laplacian"] == check_mv_laplacian(
            e.space, g, h, qi, qb).to_dict()
        assert suite["ricci_decomposition"] == check_ricci_decomposition(
            e.space, g, h, frames_of(e), qi, qb).to_dict()
        assert suite["ii_identity"] == check_ii_identity(
            g, frames_of(e)).to_dict()
        assert run["certificate"].to_dict() == certify(
            *plan.grids(e.space), (0.0,)).to_dict()
        assert run["flatness"].to_dict() == flatness_report(
            e.space, plan=plan).to_dict()

    def test_suite_jets_h_to_the_order_read(self, entry):
        # h enters the weak identities through h and grad h only: no
        # order-3 jet of it is built anywhere in a suite
        target = zoo.load("ball")  # not the cached entry: it is patched
        h = CountingField(target.h_field())
        target.h_field = lambda: h
        assert report.run_suite(target)["passed"]
        assert h.orders == [1, 0]  # one interior chunk, one patch

    def test_suite_geometry_once_per_sample_grid(self, entry, monkeypatch):
        e = entry("ball")
        target = zoo.load("ball")  # not the cached entry: it is patched
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
        # bochner and dimension_term share one geometry; the boundary
        # sample grid one (gate, II identity and certificate); the weak
        # sweep one chunk and one patch; certify its interior grid;
        # flatness none, being read off the certificate
        assert calls["frame_at"] == 5
        on_grid = [x for x in g.points if x.shape == grid.shape
                   and np.allclose(x, grid, rtol=0, atol=1e-12)]
        assert len(on_grid) == 1  # the gate and the II identity share it

    def test_suite_builds_each_grid_once(self, entry, monkeypatch):
        # one ball3 suite: no two geometries on equal point arrays, and
        # the normal-field jets and II once per sample-grid patch and once
        # per quadrature patch
        e = entry("ball3")
        points, shapes = [], collections.defaultdict(list)
        init = geometry.NodeGeometry.__init__

        def recorded_init(self, space, x, lines=None):
            points.append(np.array(x))
            init(self, space, x, lines)

        monkeypatch.setattr(geometry.NodeGeometry, "__init__", recorded_init)
        for fname in ("normal_field_jets", "second_fundamental_form"):
            original = getattr(boundary, fname)

            def counted(arg, _fn=original, _name=fname):
                # a NodeGeometry, or a BoundaryFrame on one
                shapes[_name].append(np.shape(getattr(arg, "geom", arg).x))
                return _fn(arg)

            for module in (boundary, verify):
                if getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counted)
        assert report.run_suite(e)["passed"]
        for i, a in enumerate(points):
            for b in points[:i]:
                assert not (a.shape == b.shape and np.array_equal(a, b))
        grid = (3, int(np.prod(e.plan.boundary_counts)))
        quad = (3, int(np.prod(e.plan.quad_boundary)))
        assert len(e.space.boundary_patches) == 1
        assert sorted(shapes["normal_field_jets"]) == sorted([grid, quad])
        assert sorted(shapes["second_fundamental_form"]) == sorted(
            [grid, quad])

    def test_small_plan_one_geometry_per_grid(self, tmp_path, monkeypatch):
        # with at most 100 interior samples the pointwise checks' geometry
        # holds every sample point, and certify reads it
        from test_geometry import DENSE_INI
        text = DENSE_INI.read_text().replace("interior = 24,24",
                                             "interior = 8,8", 1)
        assert "interior = 8,8" in text
        p = tmp_path / "small.ini"
        p.write_text(text)
        target = config.load_config(str(p))
        points = []
        init = geometry.NodeGeometry.__init__

        def recorded_init(self, space, x, lines=None):
            points.append(np.array(x))
            init(self, space, x, lines)

        monkeypatch.setattr(geometry.NodeGeometry, "__init__", recorded_init)
        run = report.run_suite(target)
        assert run["certificate"].interior_samples == 64
        assert any(a.shape == (2, 64) for a in points)
        for i, a in enumerate(points):
            for b in points[:i]:
                assert not (a.shape == b.shape and np.array_equal(a, b))

    def test_hessian_of_g_once_per_chunk(self, entry, monkeypatch):
        # Lg, |Hess g|^2 and Gamma(g, Lg) read one Hess g per interior
        # chunk, formed by the one Hessian formula from g's partials
        e = entry("half_space")
        g_jets, hessians = [], collections.Counter()  # by g_jets index

        class RecordingField(CountingField):
            def jet(self, x, order=MAX_ORDER, lines=None):
                out = super().jet(x, order, lines)
                g_jets.append(out)
                return out

        original = geometry.hessian_jets

        def counted(geom, df):
            for k, j in enumerate(g_jets):
                d = j.partial(0).stored
                hessians[k] += df[0].stored.shape == d.shape and \
                    df[0].stored.tobytes() == d.tobytes()
            return original(geom, df)

        monkeypatch.setattr(geometry, "hessian_jets", counted)
        g = RecordingField(e.neumann_family()[0].field)
        verify._weak_integrals(e.space, g, e.h_fields()[:2],
                               e.plan.quad_interior, e.plan.quad_boundary)
        interior = [k for k, j in enumerate(g_jets) if j.order == MAX_ORDER]
        assert len(interior) == 3  # half_space's interior chunks
        assert [hessians[k] for k in interior] == [1, 1, 1]

    def test_normal_field_once_per_patch(self, entry, monkeypatch):
        # the weak sweep's flux and II rows read one normal-field jet per
        # quadrature patch; the II identity builds one on the sample grid
        e = entry("ball")
        shapes = []
        original = boundary.normal_field_jets

        def counted(geom):
            shapes.append(np.shape(geom.x))
            return original(geom)

        monkeypatch.setattr(boundary, "normal_field_jets", counted)
        plan = e.plan
        verify.weak_checks(e.space, e.neumann_family()[0], e.h_fields()[0],
                           frames_of(e), plan.quad_interior,
                           plan.quad_boundary)
        assert sorted(shapes) == sorted(
            [(2, *plan.boundary_counts), (2, *plan.quad_boundary)])

    def test_suite_geometry_jets_to_the_order_read(self, entry, monkeypatch):
        # no geometry jet above the order its consumers read is built
        orders = collections.defaultdict(set)

        def recorded(label, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                stack = [out]
                while stack:
                    item = stack.pop()
                    if isinstance(item, list):
                        stack.extend(item)
                    else:
                        orders[label].add(item.order)
                return out
            return wrapper

        space_cls, geom_cls = geometry.WeightedSpace, geometry.NodeGeometry
        monkeypatch.setattr(space_cls, "metric_jets", recorded(
            "metric_jets", space_cls.metric_jets))
        for fname in ("jet_matrix_inverse", "christoffel_jets"):
            monkeypatch.setattr(geometry, fname, recorded(
                fname, getattr(geometry, fname)))
        monkeypatch.setattr(boundary, "normal_field_jets", recorded(
            "normal_field_jets", boundary.normal_field_jets))
        # the sweep's Gamma(g,g) (only its gradient is read) and the II
        # identity's
        monkeypatch.setattr(verify, "carre_du_champ_jet", recorded(
            "carre_du_champ_jet", verify.carre_du_champ_jet))
        jV = functools.cached_property(recorded("jV", geom_cls.jV.func))
        jV.__set_name__(geom_cls, "jV")
        monkeypatch.setattr(geom_cls, "jV", jV)
        assert report.run_suite(entry("ball3"))["passed"]
        # g^{ij} at order 2 only for Gamma2 on the Bochner grid, at order 1
        # in the sweep, on the boundary and on the certificate's grid
        assert dict(orders) == {
            "metric_jets": {2}, "jet_matrix_inverse": {1, 2}, "jV": {2},
            "christoffel_jets": {1}, "normal_field_jets": {1},
            "carre_du_champ_jet": {1}}


class TestOneFormula:
    """Hess f, L f and the Neumann flux each have one formula, so an edit
    to it reaches every consumer."""

    def test_hessian_edit_reaches_lg_and_gamma_g_lg(self, ball, monkeypatch):
        # drop the connection term from the Hessian: the sweep's Lg row
        # moves, and so does Gamma(g, Lg) in its LHS row, read here with
        # |Hess g|^2 held at 0 so that no other LHS term reads a Hessian;
        # against this h neither row is near 0
        g, h, plan = ball.neumann_family()[0].field, ball.h_fields()[1], \
            ball.plan
        monkeypatch.setattr(verify, "hs_norm_sq",
                            lambda geom, H: 0.0)

        def sweep():
            w, = verify._weak_integrals(ball.space, g, [h], plan.quad_interior,
                                        plan.quad_boundary)
            return w

        def without_connection(geom, df):
            for i in range(len(df)):
                for j in range(len(df)):
                    yield i, j, df[i].partial(j)

        before = sweep()
        monkeypatch.setattr(geometry, "hessian_jets", without_connection)
        after = sweep()
        for key in ("laplacian", "lhs"):
            assert abs(before[key]) > 0.1, key
            assert abs(after[key] - before[key]) > 1e-3 * abs(before[key]), key
        for key in ("gamma", "rhs_interior", "flux", "rhs_boundary"):
            assert after[key] == before[key], key

    def test_flux_edit_reaches_gate_sweep_and_residual(self, ball,
                                                       monkeypatch):
        # doubling the flux doubles each consumer's reading exactly, on a
        # field that is not Neumann, so that its flux is not 0
        base = ExprField("x*cos(y)", 2)
        g = NeumannTestFunction(base=base,
                                field=CutoffField(ball.cutoff) * base)
        frames, plan = frames_of(ball), ball.plan

        monkeypatch.setattr(verify, "NEUMANN_GATE_TOL", np.inf)

        def consumers():
            _, gate = neumann_gate(g, frames)
            w, = verify._weak_integrals(ball.space, g.field,
                                        [ball.h_fields()[0]],
                                        plan.quad_interior, plan.quad_boundary)
            bf = frames[0]
            residual = bf.flux(g.field.jet(bf.point, 1).gradient())
            return np.array([gate, w["flux"], *residual])

        before = consumers()
        flux = boundary.BoundaryFrame.flux
        monkeypatch.setattr(boundary.BoundaryFrame, "flux",
                            lambda self, du: 2.0 * flux(self, du))
        after = consumers()
        assert np.all(before[:2] != 0.0)
        assert np.array_equal(after, 2.0 * before)


class TestPointwiseChecks:
    def test_bochner_random_fields(self, ball):
        fields = ball.random_fields(5, seed=11)
        geom = NodeGeometry(ball.space, interior_grid(ball.space, (8, 8)))
        r = check_bochner(fields, geom)
        assert r.passed

    def test_ii_identity(self, ball):
        g = ball.neumann_family()[0]
        r = check_ii_identity(g, frames_of(ball))
        assert r.passed

    def test_dimension_needs_n_at_least_dim(self, ball):
        geom = NodeGeometry(ball.space, interior_grid(ball.space, (4, 4)))
        with pytest.raises(ValueError, match="unsatisfiable"):
            check_dimension_term(ball.random_fields(1, 1), geom, n_dim=1.5)

    def test_dimension_conformal_equality(self, half_space):
        # Hessian proportional to the metric: the trace bound is tight
        # exactly when N equals the chart dimension
        f = ExprField("(x^2 + y^2)/2", 2)
        sp = half_space.space
        geom = NodeGeometry(sp, interior_grid(half_space.space, (6, 6)))
        r = check_dimension_term([f], geom, n_dim=2.0)
        assert r.passed
        assert abs(r.residual) < 1e-12
        strict = check_dimension_term([f], geom, n_dim=3.0)
        assert strict.passed
        assert strict.residual < -0.5  # slack opens up once N > n

    def test_dimension_random_fields(self, ball):
        geom = NodeGeometry(ball.space, interior_grid(ball.space, (8, 8)))
        r = check_dimension_term(ball.random_fields(10, 3), geom, n_dim=2.0)
        assert r.passed


class TestCertify:
    def test_monotone_in_k(self, gaussian_half_space):
        e = gaussian_half_space
        rep = certify(*e.plan.grids(e.space),
                      [0.5, 1.0, 1.0 + 1e-3, 2.0])
        verdicts = [rep.rcd_infinity[k]
                    for k in (0.5, 1.0, 1.0 + 1e-3, 2.0)]
        assert verdicts == sorted(verdicts, reverse=True)
        assert rep.rcd_infinity[1.0] and not rep.rcd_infinity[1.0 + 1e-3]

    def test_rcd_star_needs_n_ge_dim(self, gaussian_half_space):
        e = gaussian_half_space
        rep = certify(*e.plan.grids(e.space), [0.0],
                      [1.5, 2.0, 10.0])
        assert not rep.rcd_star[(0.0, 1.5)]
        assert rep.rcd_star[(0.0, 2.0)] and rep.rcd_star[(0.0, 10.0)]

    def test_certified_k_non_convex(self, entry):
        e = entry("annulus")
        rep = certify(*e.plan.grids(e.space), [0.0])
        assert rep.lambda_min_ii < -verify.VERDICT_SLACK
        assert rep.lambda_min_ii == pytest.approx(-2.0, abs=1e-6)

    def test_non_finite_ii_names_its_point(self, ball):
        # a NaN in II cannot be ranked: the certificate stops at its
        # point instead of reporting lambda_min_II = nan
        sample, frames = ball.plan.grids(ball.space)
        bad = dataclasses.replace(frames[0])
        II = frames[0].II.copy()
        II[0, 0, 3] = np.nan
        bad.II = II
        point = re.escape(str([float(v) for v in bad.point[:, 3]]))
        with pytest.raises(EvalError, match=rf"^ii: non-finite .* {point}$"):
            verify.boundary_spectrum([bad])
        with pytest.raises(EvalError, match=rf"^ii: .* {point}$"):
            certify(sample, [bad] + frames[1:], [0.0])

    @pytest.mark.parametrize("name", ["annulus", "ball3"])
    def test_boundary_reduction_matches_per_patch_loop(self, entry, name):
        # the certificate reduces all patches' spectra at once; the
        # per-patch loop it replaced is the reference, bit for bit
        e = entry(name)
        sample, frames = e.plan.grids(e.space)
        rep = certify(sample, frames, [0.0])
        lo, hi, tr_lo, tr_hi, witness, n = (np.inf, -np.inf, np.inf,
                                            -np.inf, [], 0)
        for bf in frames:
            II = boundary.second_fundamental_form(bf)
            eig = np.linalg.eigvalsh(np.moveaxis(II, (0, 1), (-2, -1)))
            tr = np.einsum("aa...->...", II)
            n += bf.point.shape[1]
            bi = int(np.argmin(eig[:, 0]))
            if float(eig[bi, 0]) < lo:
                lo = float(eig[bi, 0])
                witness = [float(v) for v in bf.point[:, bi]]
            hi = max(hi, float(np.max(eig[:, -1])))
            tr_lo = min(tr_lo, float(np.min(tr)))
            tr_hi = max(tr_hi, float(np.max(tr)))
        assert (rep.lambda_min_ii, rep.lambda_max_ii, rep.tr_ii_range,
                rep.boundary_witness, rep.boundary_samples) == (
                    lo, hi, (tr_lo, tr_hi), witness, n)

    def test_non_finite_phi_sample_named(self, ball):
        # a NaN phi is neither inside nor outside: the sample grid names
        # its first point instead of dropping it
        nan_phi = dataclasses.replace(ball.space, defining_fn=ExprField(
            "x - 1 + (exp(800*y) - exp(800*y))", 2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EvalError, match="phi is not finite") as exc:
            verify.interior_grid(nan_phi, (24, 24))
        point = re.search(r"at point \((.*)\)$", str(exc.value)).group(1)
        assert float(point.split(",")[1]) > 0.88

    def test_empty_plan_rejected(self, ball):
        # phi >= 0 on the whole chart leaves no interior sample points
        exterior = dataclasses.replace(
            ball.space, defining_fn=ConstField(2, 1.0), label="empty")
        with pytest.raises(ValueError, match="empty interior"):
            certify(NodeGeometry(exterior,
                                 verify.interior_grid(exterior, (4, 4))),
                    frames_of(ball), [0.0])


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
        sample, frames = e.plan.grids(e.space)
        eigs = verify.interior_spectrum(sample)
        _, eig, tr = verify.boundary_spectrum(frames)
        meta = flatness_report(e.space, plan=e.plan).metadata
        assert meta["max_abs_ricci_v"] == float(np.max(np.abs(eigs)))
        assert meta["max_abs_ii"] == float(np.max(np.abs(eig)))
        assert meta["max_abs_tr_ii"] == float(np.max(np.abs(tr)))

    def test_no_boundary_patches_rejected(self, ball):
        # a boundary that was never sampled is not certified flat
        unsampled = dataclasses.replace(ball.space, boundary_patches=())
        with pytest.raises(ValueError, match="empty boundary"):
            flatness_report(unsampled, plan=ball.plan)


class TestHelpers:
    def test_largest_witness_rules(self):
        # the first maximum by default, the last with ``last``; a NaN
        # cannot be ranked and names the check and the point
        x = np.array([[0.0, 1.0, 2.0]])
        rows = [({"i": 0}, np.array([1.0, 3.0, 3.0]), x),
                ({"i": 1}, np.array([3.0, 0.0, 0.0]), x)]
        assert verify._largest("t", rows) == (
            3.0, {"i": 0, "point": [1.0]})
        assert verify._largest("t", rows, last=True) == (
            3.0, {"i": 1, "point": [0.0]})
        rows.append(({}, np.array([0.0, 1.0, np.nan]), x))
        with pytest.raises(EvalError, match=r"^t: non-finite .* \[2.0\]$"):
            verify._largest("t", rows)

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

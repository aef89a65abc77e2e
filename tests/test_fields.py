import math

import numpy as np
import pytest

from curvcert import zoo
from curvcert.fields import (ConstField, CutoffField, CutoffSpec, ExprField,
                             _BinField, _smoothstep_jets, make_cutoff_spec)
from curvcert.jets import Jet
from curvcert.quadrature import CHUNK, tensor_rule
from oracles import richardson_partial

SPEC = make_cutoff_spec(inner=((-1.0, 1.0), (0.0, 1.0)),
                        outer=((-2.0, 2.0), (0.0, 2.0)))


class TestCutoffSpec:
    def test_inner_must_nest(self):
        with pytest.raises(ValueError):
            make_cutoff_spec(((-3.0, 1.0),), ((-2.0, 2.0),))

    def test_lo_le_hi(self):
        with pytest.raises(ValueError):
            make_cutoff_spec(((1.0, -1.0),), ((-2.0, 2.0),))


class TestCutoffField:
    def test_plateau_values(self):
        chi = CutoffField(SPEC)
        # 1 on the inner box, 0 outside the outer box, in between on the
        # taper; the no-taper side (y = 0) keeps value 1 all the way down
        pts = np.array([[0.0, 0.0, 1.5, 2.5, 0.0, 0.0],
                        [0.5, 0.0, 0.5, 0.5, 1.5, 2.5]])
        v = chi.value(pts)
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(1.0)       # no-taper side
        assert 0.0 < v[2] < 1.0
        assert v[3] == 0.0
        assert 0.0 < v[4] < 1.0
        assert v[5] == 0.0

    def test_midpoint_half(self):
        chi = CutoffField(SPEC)
        assert float(chi.value(np.array([1.5, 0.5]))) == pytest.approx(0.5)

    def test_smooth_at_edges(self):
        chi = CutoffField(SPEC)
        # all jet derivatives vanish where the plateau meets the taper
        for x in ([1.0, 0.5], [2.0, 0.5], [0.0, 1.0], [0.0, 2.0]):
            j = chi.jet(np.array(x))
            for ax in range(2):
                assert abs(float(np.asarray(j.partial(ax).value))) < 1e-12

    @pytest.mark.parametrize("pt", [(1.3, 0.4), (1.9, 0.3), (0.2, 1.2),
                                    (-1.6, 1.7)])
    def test_derivatives_match_richardson(self, pt):
        chi = CutoffField(SPEC)
        x = np.array(pt)
        j = chi.jet(x)

        def fn(p):
            return float(chi.value(p))

        for ax in range(2):
            for order, h, tol in [(1, 1e-4, 1e-6), (2, 1e-3, 1e-5),
                                  (3, 5e-3, 1e-2)]:
                part = j
                for _ in range(order):
                    part = part.partial(ax)
                want = float(richardson_partial(fn, x, ax, order, h))
                got = float(np.asarray(part.value))
                assert got == pytest.approx(want, rel=tol, abs=tol)

    def test_batch_matches_scalar(self):
        chi = CutoffField(SPEC)
        pts = np.array([[0.3, 1.4, -1.8], [0.2, 0.9, 1.1]])
        batch = chi.jet(pts)
        for k in range(3):
            single = chi.jet(pts[:, k])
            np.testing.assert_allclose(batch.coeffs[:, k], single.coeffs,
                                       atol=1e-15)


class TestFieldAlgebra:
    def test_combinators_match_expression(self):
        f = ExprField("x^2 + y", 2)
        g = ExprField("sin(x)", 2)
        combo = f * g + 2.0 * f - g / 3.0
        direct = ExprField("(x^2 + y)*sin(x) + 2*(x^2 + y) - sin(x)/3", 2)
        pts = np.array([[0.5, -1.2], [0.7, 0.3]])
        np.testing.assert_allclose(combo.jet(pts).coeffs,
                                   direct.jet(pts).coeffs, atol=1e-12)

    def test_const_field(self):
        c = ConstField(2, 4.5)
        pts = np.array([[1.0], [2.0]])
        assert c.value(pts)[0] == 4.5
        j = c.jet(pts)
        assert float(j.partial(0).value[0]) == 0.0

    def test_neg(self):
        f = -ExprField("x", 2)
        assert float(f.value(np.array([3.0, 0.0]))) == -3.0

    def test_cutoff_spec_immutable(self):
        with pytest.raises(AttributeError):
            SPEC.inner = ()


def _zoo_fields(e):
    """Every field a zoo entry certifies with: the metric entries, the
    weight, the defining function, the Neumann fields and the h."""
    sp = e.space
    return ([sp.metric[i][j] for i in range(sp.dim) for j in range(i, sp.dim)]
            + [sp.weight, sp.defining_fn]
            + [g.field for g in e.neumann_family()] + e.h_fields())


def _batches(x):
    """Interior points in batch shapes (), (7,) and (3, 5)."""
    return [x[:, 0], x[:, :7], x[:, :15].reshape(-1, 3, 5)]


class TestOrderGraded:
    @pytest.mark.parametrize("name", zoo.list_entries())
    def test_truncated_jet_is_leading_slots(self, entry, name):
        e = entry(name)
        idx = np.random.default_rng(5).permutation(
            e.interior_points().shape[1])
        x = e.interior_points()[:, idx]
        for f in _zoo_fields(e):
            for xb in _batches(x):
                full = f.jet(xb)
                for k in range(3):
                    jk = f.jet(xb, k)
                    assert jk.order <= k
                    assert np.array_equal(
                        jk.stored,
                        full.stored[:math.comb(e.space.dim + k, k)]), (f, k)

    @pytest.mark.parametrize("name", zoo.list_entries())
    def test_value_is_order3_value_bitwise(self, entry, name):
        e = entry(name)
        x = e.interior_points()
        bins = [f for f in _zoo_fields(e) if isinstance(f, _BinField)]
        assert bins
        for f in bins:
            for xb in _batches(x):
                v, want = np.asarray(f.value(xb)), np.asarray(f.jet(xb).value)
                assert v.shape == want.shape
                assert v.tobytes() == want.tobytes()


def _reference_cutoff_jet(spec, x):
    """The cutoff's order-3 jet as first written: every axis factor,
    tapered or not, evaluated at every node and multiplied in."""
    x = np.asarray(x, dtype=float)
    dim = len(spec.inner)
    out = Jet.constant(dim, 1.0, x.shape[1:])
    for i in range(dim):
        (ilo, ihi), (olo, ohi) = spec.inner[i], spec.outer[i]
        xi = x[i]
        one = np.zeros((4,) + xi.shape)
        one[0] = 1.0
        factor = Jet(1, one)
        powers = np.arange(4).reshape((4,) + (1,) * xi.ndim)
        if ilo > olo:
            scale = 1.0 / (ilo - olo)
            c = _smoothstep_jets((xi - olo) * scale) * scale ** powers
            factor = factor * Jet(1, c)
        if ohi > ihi:
            scale = 1.0 / (ohi - ihi)
            c = _smoothstep_jets((ohi - xi) * scale) * (-scale) ** powers
            factor = factor * Jet(1, c)
        out = out * Jet.from_axis(dim, i, factor.coeffs)
    return out


class TestCutoffPerCoordinate:
    """The cutoff evaluates each tapered axis once per distinct coordinate
    and skips untapered axes; its jets equal the per-node loop's bit for
    bit."""

    UNTAPERED = make_cutoff_spec(inner=((-1.0, 1.0), (0.0, 1.0)),
                                 outer=((-2.0, 2.0), (0.0, 1.0)))

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def _check(self, spec, x):
        chi = CutoffField(spec)
        ref = _reference_cutoff_jet(spec, x)
        assert self._same_bits(chi.jet(x).coeffs, ref.coeffs)
        assert self._same_bits(np.asarray(chi.value(x)),
                               np.asarray(ref.value))

    @pytest.mark.parametrize("name", ["ball", "half_space", "ball3"])
    def test_interior_tensor_chunk(self, entry, name):
        e = entry(name)
        pts, _ = tensor_rule(e.space.chart_box, e.plan.quad_interior)
        self._check(e.cutoff, pts[:, :CHUNK])

    @pytest.mark.parametrize("spec", [SPEC, UNTAPERED])
    def test_scattered_points(self, spec):
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (2, 500))
        self._check(spec, x)

    @pytest.mark.parametrize("spec", [SPEC, UNTAPERED])
    def test_single_point(self, spec):
        for pt in ([1.3, 0.4], [0.2, 1.2], [-2.2, 0.5]):
            self._check(spec, np.array(pt))

    def test_untapered_axis_tensor_grid(self):
        pts, _ = tensor_rule([(-2.5, 2.5), (0.0, 1.0)], (40, 30))
        self._check(self.UNTAPERED, pts)

    def test_axis_factor_once_per_distinct_coordinate(self, entry,
                                                      monkeypatch):
        seen = []
        original = CutoffField._axis_coeffs

        def counted(self, xi, axis, order=3):
            seen.append((axis, np.size(xi), np.unique(xi).size))
            return original(self, xi, axis, order)

        monkeypatch.setattr(CutoffField, "_axis_coeffs", counted)
        e = entry("ball")
        counts = e.plan.quad_interior
        pts, _ = tensor_rule(e.space.chart_box, counts)
        chi = CutoffField(e.cutoff)
        assert chi.tapered == (0,)  # the angle axis carries no cutoff
        chi.jet(pts[:, :CHUNK])
        assert seen
        for axis, size, distinct in seen:
            assert axis in chi.tapered
            assert size == distinct <= counts[axis]

import itertools
import re

import numpy as np
import pytest

from curvcert import zoo
from curvcert.exprlang import EvalError
from curvcert.fields import (ConstField, CutoffField, CutoffSpec, ExprField,
                             _BinField, _bump_h, _smoothstep_jets,
                             make_cutoff_spec)
from curvcert.jets import Jet, extract, multi_indices, seed_variable
from curvcert.quadrature import interior_chunks, tensor_rule
from curvcert.verify import interior_grid
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

    def test_combinator_domain_error_names_the_points(self):
        # a domain error inside a combinator reads as one inside an
        # expression: an EvalError naming the point, or the first point
        # of the batch where the field leaves its domain
        lines = [np.array([[1.0], [-0.5]]), np.array([[0.5, 0.0, 1.0]])]
        x = np.stack(np.broadcast_arrays(*lines)).reshape(2, -1)
        for f, pt in [(ExprField("x", 2) / ExprField("y", 2), [1.0, 0.0]),
                      (CutoffField(SPEC) * ExprField("log(x)", 2),
                       [-0.5, 0.5])]:
            at_pt = re.escape(f"at point {tuple(pt)}") + "$"
            with pytest.raises(EvalError, match=at_pt):
                f.jet(np.array(pt))
            for given in (None, lines):
                with pytest.raises(EvalError, match=at_pt):
                    f.jet(x, 3, given)


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
            interior_grid(e.space, e.plan.interior_counts).shape[1])
        x = interior_grid(e.space, e.plan.interior_counts)[:, idx]
        for f in _zoo_fields(e):
            for xb in _batches(x):
                full = f.jet(xb)
                for k in range(3):
                    jk = f.jet(xb, k)
                    assert jk.order <= k
                    want = full.truncate(k)  # a prefix on one support
                    assert jk.support == want.support, (f, k)
                    assert np.array_equal(jk.stored, want.stored), (f, k)

    @pytest.mark.parametrize("name", zoo.list_entries())
    def test_value_is_order3_value_bitwise(self, entry, name):
        e = entry(name)
        x = interior_grid(e.space, e.plan.interior_counts)
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
        out = out * seed_variable(i, x).compose(factor.coeffs)
    return out


class TestCutoffPerCoordinate:
    """On a chunk's axis lines the cutoff evaluates each tapered axis once
    per distinct coordinate, and it skips untapered axes; its jets equal
    the per-node loop's bit for bit in every slot they store, on lines or
    at points."""

    UNTAPERED = make_cutoff_spec(inner=((-1.0, 1.0), (0.0, 1.0)),
                                 outer=((-2.0, 2.0), (0.0, 1.0)))

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def _same_stored(self, jet, got, want):
        """``got``, the full coefficients of ``jet``, has ``want``'s bits
        in every slot the jet stores, and ``want`` is exactly 0 in every
        other slot: a slot off the jet's support or above its degree is
        no data, so the sign of a zero there is not compared."""
        stored = np.array([sum(a) <= jet.degree and all(
            v == 0 for i, v in enumerate(a) if i not in jet.support)
            for a in multi_indices(jet.dim)])
        return self._same_bits(got[stored], want[stored]) \
            and bool(np.all(want[~stored] == 0.0))

    def _check(self, spec, x):
        chi = CutoffField(spec)
        ref = _reference_cutoff_jet(spec, x)
        jet = chi.jet(x)
        assert self._same_stored(jet, jet.coeffs, ref.coeffs)
        assert self._same_bits(np.asarray(chi.value(x)),
                               np.asarray(ref.value))

    @pytest.mark.parametrize("name", ["ball", "half_space", "ball3"])
    def test_interior_tensor_chunk(self, entry, name):
        e = entry(name)
        x, _, lines = next(interior_chunks(e.space, e.plan.quad_interior))
        self._check(e.cutoff, x)
        ref = _reference_cutoff_jet(e.cutoff, x).coeffs
        jet = CutoffField(e.cutoff).jet(x, 3, lines)
        on_lines = np.broadcast_to(jet.coeffs, (len(ref),) + tuple(
            line.size for line in lines)).reshape(ref.shape)
        assert self._same_stored(jet, on_lines, ref)

    @pytest.mark.parametrize("spec", [SPEC, UNTAPERED])
    def test_orders_below_3_are_slots_of_order_3(self, spec):
        # exp(-1/t)'s derivative rows above the order asked for are not
        # computed, and the kept slots do not move
        x = np.random.default_rng(4).uniform(-2.5, 2.5, (2, 300))
        x[:, :4] = [[-1.0, 1.0, -2.0, 2.5], [0.5, 0.5, 0.5, 0.5]]
        chi = CutoffField(spec)
        full = chi.jet(x)
        for order in (0, 1, 2):
            jet = chi.jet(x, order)
            assert jet.order == order
            assert self._same_bits(jet.stored, full.stored[:len(jet.stored)])
        for t in (x[0], 0.3, 1e-13):
            rows = _bump_h(t)
            for order in (0, 1, 2):
                below = _bump_h(t, order)
                assert self._same_bits(below[:order + 1], rows[:order + 1])
                assert not below[order + 1:].any()

    @pytest.mark.parametrize("spec", [SPEC, UNTAPERED])
    def test_values_of_the_axis_embedding(self, spec):
        # composed on its coordinate seed, a factor holds its univariate
        # coefficients in the slots k*e_i of its axis and 0 elsewhere: the
        # values (not the signs of zero) of placing them there directly
        x = np.random.default_rng(3).uniform(-2.5, 2.5, (2, 500))
        chi = CutoffField(spec)
        slot = {alpha: k for k, alpha in enumerate(multi_indices(2))}
        out = Jet.constant(2, 1.0, (500,))
        for i in chi.tapered:
            c = chi._axis_coeffs(x[i], i)
            placed = np.zeros((len(slot), 500))
            for k in range(4):
                placed[slot[(k, 0) if i == 0 else (0, k)]] = c[k]
            out = out * Jet(2, placed)
        assert np.array_equal(chi.jet(x).coeffs, out.coeffs)

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
        x, _, lines = next(interior_chunks(e.space, counts))
        chi = CutoffField(e.cutoff)
        assert chi.tapered == (0,)  # the angle axis carries no cutoff
        chi.jet(x, 3, lines)
        assert seen
        for axis, size, distinct in seen:
            assert axis in chi.tapered
            assert size == distinct <= counts[axis]


def _affine_seeds(a, b, x):
    """The jets at x of the components of F(x) = a x + b, over x's
    coordinate seeds."""
    seeds = [seed_variable(j, x) for j in range(len(b))]
    out = []
    for i in range(len(b)):
        acc = seeds[0] * a[i, 0]
        for j in range(1, len(b)):
            acc = acc + seeds[j] * a[i, j]
        out.append(acc + b[i])
    return out


def _derivatives(jet, k):
    """The order-k derivative tensor of a jet, (dim,)*k + batch."""
    n = jet.dim
    return np.stack([
        extract(jet, [axes.count(i) for i in range(n)])
        for axes in itertools.product(range(n), repeat=k)]).reshape(
            (n,) * k + jet.batch_shape)


class TestChartMap:
    """A field is a function of its seed jets: jetted on the seeds of an
    affine chart map F(x) = a x + b it is the field composed with F, its
    value the field's at F(x) and its derivatives the chain rule's."""

    MAPS = {2: (np.array([[0.8, 0.3], [-0.2, 0.9]]), np.array([0.1, -0.05])),
            3: (np.array([[0.9, 0.2, -0.1], [0.15, 0.8, 0.25],
                          [-0.3, 0.1, 1.1]]), np.array([0.05, -0.1, 0.2]))}

    @staticmethod
    def _fields(e):
        n = e.space.dim
        src = "sin(x)*exp(y/3) + x^2*y" + (" - z*cos(x*z)" if n == 3 else "")
        expr = ExprField(src, n)
        return [expr, ConstField(n, 2.5),
                expr / ExprField("2 + cos(x*y)", n) - 0.5 * expr,
                CutoffField(e.cutoff), e.neumann_family()[0].field]

    @pytest.mark.parametrize("name", ["half_space", "ball3"])
    def test_jet_on_affine_seeds_is_the_chain_rule(self, entry, name):
        e = entry(name)
        a, b = self.MAPS[e.space.dim]
        y = interior_grid(e.space, e.plan.interior_counts)[:, ::25]
        seeds = _affine_seeds(a, b, np.linalg.solve(a, y - b[:, None]))
        fy = np.stack([s.value for s in seeds])  # F(x) as the seeds hold it
        for f in self._fields(e):
            got, at_fy = f._jet(seeds), f.jet(fy)
            assert got.value.tobytes() == at_fy.value.tobytes(), f
            for k in (1, 2, 3):
                want = _derivatives(at_fy, k)
                for _ in range(k):  # d/dx_a = sum_i a[i, a] d/dy_i
                    want = np.moveaxis(np.tensordot(a, want, ([0], [0])),
                                       0, k - 1)
                err = np.abs(_derivatives(got, k) - want).max()
                assert err <= 1e-12 * np.abs(want).max(), (f, k)

import itertools
import math
import zlib

import numpy as np
import pytest

from curvcert.exprlang import EvalError, evaluate_float, parse
from curvcert.fields import ConstField, ExprField
from curvcert.jets import (MAX_ORDER, Jet, JetDomainError, JetError,
                           JetShapeError, apply_univariate, extract, jet_pow,
                           multi_indices, ncoeffs, seed_variable, stack)
from oracles import Poly, all_multi_indices, richardson_partial


def poly_jet(poly, x):
    """Evaluate a Poly through jet arithmetic (independent of exprlang)."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]
    seeds = [seed_variable(i, x) for i in range(dim)]
    total = Jet.constant(dim, np.zeros(x.shape[1:]))
    for alpha, c in poly.terms.items():
        term = Jet.constant(dim, np.full(x.shape[1:], c))
        for i, a in enumerate(alpha):
            for _ in range(a):
                term = term * seeds[i]
        total = total + term
    return total


class TestBasics:
    def test_ncoeffs(self):
        assert [ncoeffs(d) for d in (1, 2, 3, 4)] == [4, 10, 20, 35]

    def test_multi_indices_graded(self):
        mi = multi_indices(2)
        assert mi[0] == (0, 0)
        orders = [sum(a) for a in mi]
        assert orders == sorted(orders)
        assert len(mi) == ncoeffs(2)

    def test_seed_variable(self):
        x = np.array([2.0, 5.0])
        j = seed_variable(1, x)
        assert j.value == 5.0
        assert extract(j, (0, 1)) == 1.0
        assert extract(j, (1, 0)) == 0.0
        assert extract(j, (0, 2)) == 0.0

    def test_seed_variable_bad_axis(self):
        with pytest.raises(JetShapeError):
            seed_variable(3, np.array([1.0, 2.0]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(JetError):
            seed_variable(0, np.array([np.nan, 1.0]))

    def test_seed_variable_on_lines(self):
        # a grid's axis lines seed as they are, each at its own shape;
        # only the seeded coordinate array is read and checked
        lines = [np.array([[1.0], [2.0], [3.0]]), np.array([[4.0, np.nan]])]
        j = seed_variable(0, lines)
        assert j.dim == 2 and j.support == {0}
        assert j.value.shape == (3, 1)
        assert np.array_equal(j.stored, np.stack([lines[0], np.ones((3, 1))]))
        with pytest.raises(JetError):
            seed_variable(1, lines)

    def test_extract_order_overflow(self):
        j = seed_variable(0, np.array([1.0]))
        with pytest.raises(JetError):
            extract(j.partial(0), (3,))

    def test_coeff_count_validated(self):
        for dim in (1, 2, 3, 4):
            for n in (ncoeffs(dim) - 1, ncoeffs(dim) + 1):
                with pytest.raises(JetShapeError):
                    Jet(dim, np.zeros((n, 3)))


class TestArithmetic:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_polynomial_derivatives_exact(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            p = Poly.random(dim, rng)
            x = rng.uniform(-1.5, 1.5, size=dim)
            j = poly_jet(p, x[:, None])
            for alpha in all_multi_indices(dim, 3):
                want = p.diff_multi(
                    [i for i, a in enumerate(alpha) for _ in range(a)])(
                        x[:, None])
                got = float(np.asarray(extract(j, alpha)).ravel()[0])
                assert got == pytest.approx(
                    float(np.asarray(want).ravel()[0]),
                    abs=1e-12, rel=1e-12)

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(7)
        a = Jet(2, rng.normal(size=(10, 3)))
        b = Jet(2, rng.normal(size=(10, 3)))
        c = Jet(2, rng.normal(size=(10, 3)))
        np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs,
                                   atol=1e-15)
        np.testing.assert_allclose(((a * b) * c).coeffs,
                                   (a * (b * c)).coeffs, atol=1e-13)

    def test_division_roundtrip(self):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=(10, 4))
        coeffs[0] = 2.0 + rng.uniform(0, 1, 4)
        a = Jet(2, coeffs)
        b = Jet(2, rng.normal(size=(10, 4)))
        np.testing.assert_allclose(((b / a) * a).coeffs, b.coeffs,
                                   atol=1e-12)

    def test_division_by_zero_value(self):
        a = Jet.constant(2, 0.0)
        with pytest.raises(JetDomainError):
            a.reciprocal()

    def test_dim_mismatch(self):
        with pytest.raises(JetShapeError):
            Jet.constant(2, 1.0) * Jet.constant(3, 1.0)

    def test_scalar_operands(self):
        x = np.array([3.0])
        j = seed_variable(0, x)
        k = 2.0 * j + 1.0 - j / 2.0
        assert k.value == pytest.approx(5.5)
        assert extract(k, (1,)) == pytest.approx(1.5)


class TestPartialsAndOrder:
    def test_partial_lowers_order(self):
        j = seed_variable(0, np.array([1.0, 1.0]))
        assert j.order == 3
        assert j.partial(0).order == 2
        assert j.partial(0).partial(0).order == 1
        assert j.partial(0).partial(0).partial(0).order == 0

    def test_partial_matches_extract(self):
        rng = np.random.default_rng(9)
        p = Poly.random(2, rng)
        x = np.array([[0.7], [-0.4]])
        j = poly_jet(p, x)
        d = j.partial(0)
        assert d.value[0] == pytest.approx(extract(j, (1, 0))[0])
        assert extract(d, (0, 1))[0] == pytest.approx(extract(j, (1, 1))[0])

    def test_reduced_order_product_masks_high_slots(self):
        # product of order-2 jets is a valid order-2 jet: slots above the
        # order stay identically zero
        j = seed_variable(0, np.array([2.0])).partial(0)
        k = seed_variable(0, np.array([2.0]))
        prod = j * k
        assert prod.order == 2
        assert prod.coeffs[3] == 0.0
        with pytest.raises(JetError):
            extract(prod, (3,))

    def test_truncate(self):
        j = seed_variable(0, np.array([2.0]))
        cube = j * j * j
        t = cube.truncate(2)
        assert t.order == 2
        assert t.coeffs[3] == 0.0
        assert extract(t, (2,)) == pytest.approx(extract(cube, (2,)))


class TestUnivariate:
    FNS = ["exp", "sin", "cos", "tanh", "log", "sqrt"]

    @pytest.mark.parametrize("fn", FNS)
    def test_against_richardson(self, fn):
        # A second Richardson level at order 3: one level at h = 1e-2
        # is off by up to 2.8x the tolerance on [0.3, 1.2] (log at 0.3).
        rng = np.random.default_rng(zlib.crc32(fn.encode()))
        grid = np.linspace(0.3, 1.2, 10)

        def scalar(x):
            v = np.asarray(x, dtype=float)[0]
            return getattr(np, fn)(0.7 * v * v + v)

        for x0 in [float(rng.uniform(0.3, 1.2)), *grid]:
            s = seed_variable(0, np.array([x0]))
            j = apply_univariate(fn, 0.7 * s * s + s)
            for order, h, levels in [(1, 1e-4, 1), (2, 1e-3, 1),
                                     (3, 1e-2, 2)]:
                want = richardson_partial(scalar, np.array([x0]), 0, order,
                                          h, levels)
                got = float(np.asarray(extract(j, (order,))))
                assert got == pytest.approx(float(want), rel=1e-6, abs=1e-6)

    def test_log_domain(self):
        with pytest.raises(JetDomainError):
            apply_univariate("log", Jet.constant(1, -1.0))

    def test_sqrt_domain(self):
        with pytest.raises(JetDomainError):
            apply_univariate("sqrt", Jet.constant(1, 0.0))

    def test_unknown_function(self):
        with pytest.raises(JetError):
            apply_univariate("erf", Jet.constant(1, 1.0))

    def test_sqrt_squares(self):
        x = np.array([[1.3], [0.4]])
        j = seed_variable(0, x) * seed_variable(0, x) \
            + seed_variable(1, x) * seed_variable(1, x) + 1.0
        r = apply_univariate("sqrt", j)
        np.testing.assert_allclose((r * r).coeffs, j.coeffs, atol=1e-12)


class TestPow:
    def test_integer_negative_base(self):
        x = np.array([-2.0])
        j = jet_pow(seed_variable(0, x), 3)
        assert j.value == -8.0
        assert extract(j, (1,)) == 12.0
        assert extract(j, (2,)) == -12.0
        assert extract(j, (3,)) == 6.0

    def test_negative_integer_exponent(self):
        x = np.array([2.0])
        j = jet_pow(seed_variable(0, x), -2)
        assert j.value == pytest.approx(0.25)
        assert extract(j, (1,)) == pytest.approx(-2 * 2.0**-3)

    def test_real_exponent(self):
        x = np.array([1.7])
        j = jet_pow(seed_variable(0, x), 0.5)
        k = apply_univariate("sqrt", seed_variable(0, x))
        np.testing.assert_allclose(j.coeffs, k.coeffs, atol=1e-12)

    def test_real_exponent_domain(self):
        with pytest.raises(JetDomainError):
            jet_pow(Jet.constant(1, -1.0), 0.5)

    def test_jet_exponent(self):
        x = np.array([[1.5], [0.7]])
        a = seed_variable(0, x)
        p = seed_variable(1, x)
        j = jet_pow(a, p)
        want = apply_univariate(
            "exp", p * apply_univariate("log", a))
        np.testing.assert_allclose(j.coeffs, want.coeffs, atol=1e-12)


class TestBatch:
    def test_batch_matches_loop(self):
        rng = np.random.default_rng(12)
        p = Poly.random(2, rng)
        xs = rng.uniform(-1, 1, size=(2, 17))
        batch = poly_jet(p, xs)
        for k in range(17):
            single = poly_jet(p, xs[:, k:k + 1])
            np.testing.assert_allclose(batch.coeffs[:, k],
                                       single.coeffs[:, 0], atol=1e-13)

    def test_constant_broadcast(self):
        j = Jet.constant(2, 3.0, batch_shape=(5,))
        assert j.batch_shape == (5,)
        np.testing.assert_array_equal(j.value, np.full(5, 3.0))


OPS = {"*": lambda a, b: a * b, "+": lambda a, b: a + b,
       "/": lambda a, b: a / b}


class TestBatchRank:
    """Operands whose batches differ in rank broadcast like numpy arrays:
    the lower-rank batch gains leading unit axes and never meets the slot
    axis."""

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_lower_rank_operand_is_one_point(self, op):
        c = Jet.constant(2, [1.0, 2.0, 3.0])     # batch (3,)
        v = seed_variable(0, [0.5, 0.25])        # batch (): one point
        for a, b in ((c, v), (v, c)):
            got = OPS[op](a, b)
            assert got.batch_shape == (3,)
            for k, ck in enumerate([1.0, 2.0, 3.0]):
                one = Jet.constant(2, ck)
                want = OPS[op](one, v) if a is c else OPS[op](v, one)
                assert got.coeffs[:, k].tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_array_operand_of_higher_rank(self, op):
        v = seed_variable(0, [0.5, 0.25])        # batch ()
        got = OPS[op](v, np.array([1.0, 2.0, 4.0]))
        assert got.batch_shape == (3,)
        for k, ck in enumerate([1.0, 2.0, 4.0]):
            want = OPS[op](v, ck)
            assert got.coeffs[:, k].tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_grid_lines_combine(self, op):
        # jets on (2, 1) and (1, 3) lines equal the jets at the 6 nodes
        rng = np.random.default_rng(7)
        a = graded_jet(rng, 2, 3, 3, (2, 1))
        b = graded_jet(rng, 2, 2, 3, (1, 3))
        b = b + 1.0 + float(np.max(np.abs(b.value)))  # no zero value
        got = OPS[op](a, b)
        assert got.batch_shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            want = OPS[op](Jet._make(2, 3, 3, a.stored[:, i, 0], a.support),
                           Jet._make(2, 3, 2, b.stored[:, 0, j], b.support))
            assert got.stored[:, i, j].tobytes() == want.stored.tobytes()

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_batches_that_do_not_broadcast_raise(self, op):
        a = Jet.constant(2, [1.0, 2.0, 3.0])
        b = seed_variable(1, np.ones((2, 2)))
        with pytest.raises(JetShapeError, match="do not broadcast"):
            OPS[op](a, b)


def dense_product(dim, a, b, order):
    """Reference product over full coefficient arrays: the Leibniz pair
    table grouped by output slot and summed by one ``np.add.reduceat``,
    then truncated to ``order``."""
    idx = multi_indices(dim)
    slot = {alpha: k for k, alpha in enumerate(idx)}
    triples = []
    for i, x in enumerate(idx):
        for j, y in enumerate(idx):
            c = tuple(p + q for p, q in zip(x, y))
            if sum(c) <= 3:
                triples.append((slot[c], i, j))
    kk, ii, jj = (np.array(t) for t in zip(*sorted(triples)))
    starts = np.searchsorted(kk, np.arange(len(idx)))
    out = np.add.reduceat(a[ii] * b[jj], starts, axis=0)
    return truncated(dim, out, order)


def truncated(dim, coeffs, order):
    degree = np.array([sum(alpha) for alpha in multi_indices(dim)])
    keep = (degree <= order).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return np.where(keep, coeffs, 0.0)


def graded_jet(rng, dim, degree, order, batch, support=None):
    """Random jet on ``support`` (every variable by default) storing the
    slots up to ``degree``, values over 6 decades."""
    support = frozenset(range(dim) if support is None else support)
    n = math.comb(len(support) + degree, degree) if degree >= 0 else 0
    shape = (n,) + batch
    stored = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    return Jet._make(dim, order, degree, stored, support)


class TestGradedStorage:
    KINDS = [(degree, order) for order in range(4)
             for degree in range(-1, order + 1)]

    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_product_bitwise_equals_dense_table(self, dim, batch):
        rng = np.random.default_rng(10 * dim + len(batch))
        for (da, oa), (db, ob) in itertools.product(self.KINDS, self.KINDS):
            a = graded_jet(rng, dim, da, oa, batch)
            b = graded_jet(rng, dim, db, ob, batch)
            order = min(oa, ob)
            prod = a * b
            assert prod.order == order
            assert prod.degree == (-1 if min(da, db) < 0
                                   else min(da + db, order))
            assert prod.coeffs.shape == (ncoeffs(dim),) + batch
            assert np.array_equal(
                prod.coeffs, dense_product(dim, a.coeffs, b.coeffs, order))
            assert np.array_equal(
                (a + b).coeffs, truncated(dim, a.coeffs + b.coeffs, order))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_zero_constant_stores_no_slots(self, dim):
        j = ConstField(dim, 0).jet(np.ones((dim, 4, 3)))
        assert j.degree == -1
        assert j.stored.shape == (0, 4, 3)
        assert j.batch_shape == (4, 3)
        np.testing.assert_array_equal(j.value, np.zeros((4, 3)))
        np.testing.assert_array_equal(j.coeffs, np.zeros((ncoeffs(dim), 4, 3)))

    def test_scalar_constant_is_read_only_view(self):
        j = Jet.constant(3, 2.5, (6,))
        assert j.degree == 0
        assert j.stored.shape == (1, 6)
        assert not j.stored.flags.writeable
        np.testing.assert_array_equal(j.coeffs[0], np.full(6, 2.5))
        assert not j.coeffs[1:].any()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_partial_of_constant_is_zero(self, order):
        j = Jet.constant(2, 2.5, (6,)).truncate(order)
        d = j.partial(1)
        assert (d.degree, d.order) == (-1, order - 1)
        assert d.batch_shape == (6,)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_seed_variable_stores_linear_slots(self, dim):
        x = np.linspace(0.1, 0.9, 5 * dim).reshape(dim, 5)
        for axis in range(dim):
            j = seed_variable(axis, x)
            assert j.degree == 1
            assert j.support == {axis}
            assert j.stored.shape == (2, 5)  # value and d/dx_axis
            assert j.coeffs.shape == (ncoeffs(dim), 5)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_coeffs_always_full_size(self, dim):
        rng = np.random.default_rng(dim)
        for degree, order in self.KINDS:
            j = graded_jet(rng, dim, degree, order, (4,))
            c = j.coeffs
            assert c.shape == (ncoeffs(dim), 4)
            n = j.stored.shape[0]
            np.testing.assert_array_equal(c[:n], j.stored)
            assert not c[n:].any()
            for other in (j.partial(0) if order else j, j.truncate(0),
                          j * 2.0, j + 1.0, -j):
                assert other.coeffs.shape == (ncoeffs(dim), 4)

    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gradient_is_first_partials_bitwise(self, dim, batch):
        rng = np.random.default_rng(100 + dim)
        for degree, order in self.KINDS:
            j = graded_jet(rng, dim, degree, order, batch)
            if order == 0:
                with pytest.raises(JetShapeError):
                    j.gradient()
                continue
            grad = j.gradient()
            want = np.stack([j.partial(i).value for i in range(dim)])
            assert grad.shape == (dim,) + batch
            assert grad.tobytes() == want.tobytes()


class TestStack:
    """``stack`` puts k jets into one of batch (k,) + their broadcast
    batch: the greatest degree, the least order, and zeros in a row's
    slots above its own degree."""

    def test_rows_are_the_jets_zero_padded(self):
        rng = np.random.default_rng(3)
        js = [graded_jet(rng, 3, degree, 3, (5,)) for degree in (-1, 0, 2, 3)]
        s = stack(js)
        assert (s.degree, s.order, s.dim) == (3, 3, 3)
        assert s.stored.shape == (ncoeffs(3), 4, 5)
        for i, j in enumerate(js):
            n = j.stored.shape[0]
            assert s.stored[:n, i].tobytes() == j.stored.tobytes()
            assert not s.stored[n:, i].any()

    def test_degree_capped_by_least_order(self):
        rng = np.random.default_rng(4)
        s = stack([graded_jet(rng, 2, 3, 3, (2,)),
                   graded_jet(rng, 2, 1, 1, (2,))])
        assert (s.degree, s.order) == (1, 1)
        assert s.stored.shape == (3, 2, 2)

    def test_all_zero_jets(self):
        s = stack([Jet.constant(2, 0.0, (3,))] * 2)
        assert (s.degree, s.order) == (-1, 3)
        assert s.stored.shape == (0, 2, 3)
        np.testing.assert_array_equal(s.value, np.zeros((2, 3)))

    def test_batches_broadcast(self):
        point = seed_variable(0, [0.5, 0.25])             # batch ()
        line = seed_variable(1, np.ones((2, 1, 4)))        # batch (1, 4)
        col = Jet.constant(2, np.arange(3.0)[:, None], (3, 1))
        s = stack([point, line, col])
        assert s.batch_shape == (3, 3, 4)
        for i, j in enumerate([point, line, col]):
            want = np.broadcast_to(j.coeffs[:, None, None] if j is point
                                   else j.coeffs, (ncoeffs(2), 3, 4))
            assert np.array_equal(s.coeffs[:, i], want)

    def test_rank_pads_batch(self):
        # a jet of batch () stacked to meet an (m,) batch: rows (k, 1)
        j = Jet.constant(2, 2.0)
        s = stack([j], rank=1)
        assert s.batch_shape == (1, 1)
        assert s.stored[:, 0, 0].tobytes() == j.stored.tobytes()
        s = stack([j, seed_variable(0, np.ones((2, 6)))], rank=1)
        assert s.batch_shape == (2, 6)
        np.testing.assert_array_equal(s.value[0], np.full(6, 2.0))
        assert stack([seed_variable(0, np.ones((2, 6)))],
                     rank=1).batch_shape == (1, 6)

    def test_one_jet_is_a_stack_of_one(self):
        j = seed_variable(0, np.ones((2, 6))) * 2.0
        s = stack([j])
        assert s.batch_shape == (1, 6)
        assert s.stored[:, 0].tobytes() == j.stored.tobytes()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(JetShapeError, match="dimension mismatch"):
            stack([Jet.constant(2, 1.0), Jet.constant(3, 1.0)])

    def test_empty_raises(self):
        with pytest.raises(JetShapeError, match="no jets"):
            stack([])


def dense_of(jet):
    """The jet's full coefficient array rebuilt from ``stored`` by the slot
    order alone: the multi-indices zero off ``support``, up to ``degree``,
    in graded order.  Raises unless ``stored`` holds exactly those."""
    kept = [k for k, alpha in enumerate(multi_indices(jet.dim))
            if sum(alpha) <= jet.degree
            and all(v == 0 for i, v in enumerate(alpha)
                    if i not in jet.support)]
    out = np.zeros((ncoeffs(jet.dim),) + jet.batch_shape)
    assert jet.stored.shape == (len(kept),) + jet.batch_shape
    out[kept] = jet.stored
    return out


def dense_partial(dim, c, axis, order):
    """d/dx_axis of full coefficients c, through ``order`` - 1."""
    idx = multi_indices(dim)
    slot = {alpha: k for k, alpha in enumerate(idx)}
    out = np.zeros_like(c)
    for k, alpha in enumerate(idx):
        if sum(alpha) <= order - 1:
            up = tuple(v + (i == axis) for i, v in enumerate(alpha))
            out[k] = (alpha[axis] + 1) * c[slot[up]]
    return out


def dense_compose(dim, c, derivs, order):
    """Horner on the nilpotent part of full coefficients c, with dense
    Leibniz products, through ``order``."""
    w = c.copy()
    w[0] = 0.0
    res = np.zeros_like(c)
    res[0] = derivs[3]
    for d in derivs[2::-1]:
        res = dense_product(dim, res, w, order)
        res[0] = res[0] + d
    return truncated(dim, res, order)


def _kept(jet_degree, support):
    return support if jet_degree > 0 else frozenset()


def padded(c, rank):
    """Full coefficients whose batch gains leading unit axes to ``rank``,
    as jet operands broadcast."""
    return c.reshape(c.shape[:1] + (1,) * (rank + 1 - c.ndim) + c.shape[1:])


class TestVariableSupport:
    """Jets store only the slots of their variable support: every result
    equals the dense order-3 Leibniz reference on the slots it stores, up
    to the sign of a zero, the reference is exactly 0 on every slot it
    does not store, and its support is the union of its operands' (or
    the kept support) wherever its degree is positive."""

    BATCHES = [((), ()), ((4,), (4,)), ((3, 1), (1, 2)), ((), (2, 3)),
               ((0,), ()), ((2, 1), (0,))]

    @staticmethod
    def random_jet(rng, dim, batch, min_order=0):
        degree = int(rng.integers(-1, 4))
        order = int(rng.integers(max(degree, min_order), 4))
        support = {i for i in range(dim) if rng.random() < 0.5}
        if degree > 0 and not support:
            support = {int(rng.integers(dim))}
        return graded_jet(rng, dim, degree, order, batch, support)

    @staticmethod
    def check(jet, ref, support):
        got = dense_of(jet)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert jet.support == support

    @pytest.mark.parametrize("batches", BATCHES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_binary_operations(self, dim, batches):
        rng = np.random.default_rng(1000 * dim + len(str(batches)))
        rank = max(map(len, batches))
        for _ in range(12):
            a = self.random_jet(rng, dim, batches[0])
            b = self.random_jet(rng, dim, batches[1])
            A, B = (padded(dense_of(j), rank) for j in (a, b))
            A, B = np.broadcast_arrays(A, B)
            order = min(a.order, b.order)
            union = a.support | b.support
            prod = a * b
            self.check(prod, dense_product(dim, A, B, order),
                       _kept(prod.degree, union))
            if a.is_zero or b.is_zero:
                assert prod.is_zero
            for out, want in ((a + b, A + B), (a - b, A - B)):
                self.check(out, truncated(dim, want, order),
                           _kept(out.degree, union))
            if not b.is_zero:
                b = b + (1.0 + np.max(np.abs(b.value), initial=0.0))
                v = b.value
                rec = b.reciprocal()
                self.check(rec, dense_compose(
                    dim, dense_of(b), (1.0 / v, -1.0 / v**2, 2.0 / v**3 / 2.0,
                                       -6.0 / v**4 / 6.0), b.order),
                    _kept(rec.degree, b.support))
                quo = a / b
                R = padded(dense_of(rec), rank)
                self.check(quo, dense_product(dim, *np.broadcast_arrays(A, R),
                                              order),
                           _kept(quo.degree, union))

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3), (0,)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_unary_operations(self, dim, batch):
        rng = np.random.default_rng(2000 * dim + len(batch))
        for _ in range(12):
            a = self.random_jet(rng, dim, batch, min_order=1)
            A = dense_of(a)
            assert np.array_equal(a.coeffs, A)
            assert np.array_equal(a.value, A[0])
            for axis in range(dim):
                d = a.partial(axis)
                self.check(d, dense_partial(dim, A, axis, a.order),
                           _kept(d.degree, a.support))
                assert d.is_zero or axis in a.support
            units = [tuple(int(i == axis) for i in range(dim))
                     for axis in range(dim)]
            slot = {alpha: k for k, alpha in enumerate(multi_indices(dim))}
            assert np.array_equal(a.gradient(),
                                  np.stack([A[slot[e]] for e in units]))
            derivs = rng.standard_normal((4,) + batch)
            comp = a.compose(derivs)
            self.check(comp, dense_compose(dim, A, derivs, a.order),
                       _kept(comp.degree, a.support))
            for k in range(4):
                t = a.truncate(k)
                self.check(t, truncated(dim, A, k), _kept(t.degree, a.support))
                assert np.array_equal(t.stored, a.stored[:len(t.stored)])
            for alpha in multi_indices(dim):
                if sum(alpha) <= a.order:
                    fact = math.prod(math.factorial(v) for v in alpha)
                    assert np.array_equal(extract(a, alpha),
                                          A[slot[alpha]] * fact)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stack(self, dim):
        rng = np.random.default_rng(3000 + dim)
        for batches in ([(4,), (4,), (1,)], [(), (2, 3)], [(0,), ()],
                        [(3, 1), (1, 2), ()]):
            js = [self.random_jet(rng, dim, b) for b in batches]
            s = stack(js, rank=2)
            batch = np.broadcast_shapes(*batches)
            batch = (1,) * (2 - len(batch)) + batch
            rows = [np.broadcast_to(padded(dense_of(j), len(batch)),
                                    (ncoeffs(dim),) + batch) for j in js]
            order = min(j.order for j in js)
            self.check(s, truncated(dim, np.stack(rows, axis=1), order),
                       _kept(s.degree, frozenset().union(
                           *(j.support for j in js))))


def horner_over_jets(a, coeffs):
    """``compose`` as Horner over Jet objects: each ck a degree-0 jet
    broadcast to a's batch, ``r = r * w + ck`` through ``*`` and ``+``
    from r = c3, then truncated to a's order."""
    def const(c):
        return Jet._make(a.dim, MAX_ORDER, 0,
                         np.broadcast_to(c, (1,) + a.batch_shape),
                         frozenset())

    if a.degree <= 0:
        return const(coeffs[0]).truncate(a.order)
    w = a.stored.copy()
    w[0] = 0.0
    wjet = Jet._make(a.dim, a.order, a.degree, w, a.support)
    res = const(coeffs[3])
    for c in coeffs[2::-1]:
        res = res * wjet + const(c)
    return res.truncate(a.order)


def assert_same_jet(got, want):
    """Equal order, degree, support and batch, and equal slots with equal
    signs of zeros."""
    assert (got.order, got.degree, got.support, got.batch_shape) == \
        (want.order, want.degree, want.support, want.batch_shape)
    assert got.stored.shape == want.stored.shape
    assert np.array_equal(got.stored, want.stored)
    assert np.array_equal(np.signbit(got.stored), np.signbit(want.stored))


def with_signed_zeros(rng, a):
    """``a`` with about a fifth of its entries set to +0.0 or -0.0."""
    a = np.array(a, dtype=float)
    a[rng.random(a.shape) < 0.1] = 0.0
    a[rng.random(a.shape) < 0.1] = -0.0
    return a


class TestComposeKernel:
    """``compose`` runs Horner on the stored slots; each result has the
    bits, degree, support and batch of Horner over Jet objects."""

    @pytest.mark.parametrize("batch", [(), (5,), (3, 1), (1, 4)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bitwise_equals_horner_over_jets(self, dim, batch):
        rng = np.random.default_rng(4000 + 10 * dim + len(batch))
        for order in range(4):
            for degree in range(-1, order + 1):
                for _ in range(3):
                    support = {i for i in range(dim) if rng.random() < 0.5}
                    if degree > 0 and not support:
                        support = {int(rng.integers(dim))}
                    a = graded_jet(rng, dim, degree, order, batch, support)
                    a.stored[...] = with_signed_zeros(rng, a.stored)
                    arrays = with_signed_zeros(
                        rng, rng.standard_normal((4,) + batch))
                    for coeffs in (arrays, tuple(arrays),
                                   (0.5, -0.0, 0.0, -2.0),
                                   (arrays[0], -1.5, arrays[2], 0.25)):
                        assert_same_jet(a.compose(coeffs),
                                        horner_over_jets(a, coeffs))

    def test_one_jet_and_no_broadcast_views(self, monkeypatch):
        rng = np.random.default_rng(41)
        a = graded_jet(rng, 3, 3, 3, (6,))
        coeffs = rng.standard_normal((4, 6))
        made, views = [], []
        make, broadcast_to = Jet._make.__func__, np.broadcast_to

        def counted_make(cls, *args):
            made.append(args)
            return make(cls, *args)

        def counted_broadcast_to(*args, **kwargs):
            views.append(args)
            return broadcast_to(*args, **kwargs)

        monkeypatch.setattr(Jet, "_make", classmethod(counted_make))
        monkeypatch.setattr(np, "broadcast_to", counted_broadcast_to)
        out = a.compose(coeffs)
        assert len(made) == 1 and views == []
        assert (out.order, out.degree) == (3, 3)


class TestPowAboveSixteen:
    """An integer exponent with |p| > 16 composes with the integer-power
    coefficients, so any base is in its domain but a zero one under a
    negative power, as ``evaluate_float`` folds it."""

    @pytest.mark.parametrize("p, x0", [(18, -1.0), (17, 0.0), (-17, -1.0),
                                       (20, -0.7), (-18, 1.3), (17, -1.2)])
    def test_matches_polynomial_oracle(self, p, x0):
        point = np.array([x0, 0.4])
        j = ExprField(f"x^{p}" if p > 0 else f"x^({p})", 2).jet(point)
        poly = Poly(2, {(p, 0): 1.0})
        for alpha in all_multi_indices(2, 3):
            want = poly.diff_multi([0] * alpha[0] + [1] * alpha[1])(point)
            np.testing.assert_allclose(extract(j, alpha), want, rtol=1e-13,
                                       atol=0.0)

    def test_value_agrees_with_evaluate_float(self):
        # a negated literal exponent is a number, as the float fold reads it
        for src, x0 in (("x^18", -1.0), ("x^17", 0.0), ("x^(-17)", -1.0),
                        ("x^-17", -1.0), ("pow(x, -18)", -1.0),
                        ("x^-2", -1.0)):
            point = np.array([x0, 0.4])
            assert ExprField(src, 2).value(point) == \
                evaluate_float(parse(src, 2), point)

    def test_zero_base_of_negative_power_refused(self):
        with pytest.raises(JetDomainError,
                           match="division by a jet with zero value"):
            jet_pow(seed_variable(0, np.array([0.0, 1.0])), -17)
        with pytest.raises(EvalError,
                           match="division by a jet with zero value"):
            ExprField("x^(-20)", 2).value(np.array([0.0, 1.0]))


def scatter_sum(a, b):
    """``a + b`` on differing supports through the dense scatter: a
    zero-filled array, the lower-degree operand's slots, the other's
    slots it does not share, then the shared ones added in."""
    from curvcert.jets import _at_rank, _embedding, _nslots
    lo, hi = (a, b) if a.degree <= b.degree else (b, a)
    order = min(a.order, b.order)
    degree = min(hi.degree, order)
    support = lo.support | hi.support
    batch = np.broadcast_shapes(a.batch_shape, b.batch_shape)
    n_lo = _nslots(len(lo.support), min(lo.degree, degree))
    n_hi = _nslots(len(hi.support), degree)
    pa = _embedding(a.dim, lo.support, support)[:n_lo]
    pb = _embedding(a.dim, hi.support, support)[:n_hi]
    shared = np.isin(pb, pa)
    lo_slots = _at_rank(lo.stored, len(batch))
    hi_slots = _at_rank(hi.stored, len(batch))
    stored = np.zeros((_nslots(len(support), degree),) + batch)
    stored[pa] = lo_slots[:n_lo]
    stored[pb[~shared]] = hi_slots[np.flatnonzero(~shared)]
    stored[pb[shared]] += hi_slots[np.flatnonzero(shared)]
    return Jet._make(a.dim, order, degree, stored, support)


class TestSumKernel:
    """A sum of jets on differing supports writes each slot once, from
    its per-slot plan; each result has the bits, signs of zeros, degree,
    support and batch of the dense scatter."""

    @pytest.mark.parametrize("batches", [((), ()), ((5,), (5,)),
                                         ((3, 1), (1, 4)), ((), (2, 3))])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bitwise_equals_dense_scatter(self, dim, batches):
        rng = np.random.default_rng(5000 + 10 * dim + len(str(batches)))
        tried = 0
        while tried < 40:
            ops = []
            for batch in batches:
                order = int(rng.integers(1, 4))
                degree = int(rng.integers(1, order + 1))
                support = {i for i in range(dim) if rng.random() < 0.5} \
                    or {int(rng.integers(dim))}
                a = graded_jet(rng, dim, degree, order, batch, support)
                a.stored[...] = with_signed_zeros(rng, a.stored)
                ops.append(a)
            a, b = ops
            if a.support == b.support:
                continue
            tried += 1
            assert_same_jet(a + b, scatter_sum(a, b))
            assert_same_jet(b + a, scatter_sum(b, a))

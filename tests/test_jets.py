import itertools
import math
import zlib

import numpy as np
import pytest

from curvcert.fields import ConstField
from curvcert.jets import (Jet, JetDomainError, JetError, JetShapeError,
                           apply_univariate, extract, jet_pow, multi_indices,
                           ncoeffs, seed_variable)
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


def graded_jet(rng, dim, degree, order, batch):
    """Random jet storing the slots up to ``degree``, values over 6 decades."""
    n = math.comb(dim + degree, degree) if degree >= 0 else 0
    shape = (n,) + batch
    stored = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    return Jet._make(dim, order, degree, stored)


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
            assert j.stored.shape == (dim + 1, 5)
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

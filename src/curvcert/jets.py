"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` holds the value and all partial derivatives of a scalar
quantity up to total order 3, in 1..4 chart variables, as coefficients
indexed by multi-indices alpha (the slot for alpha holds
``d^alpha u / alpha!``), ordered by total degree.  Storage is graded: a
jet keeps only the slots up to its structural degree, the highest total
degree that can be nonzero (-1 for the zero jet, 0 for a constant, 1 for
a coordinate), and every slot above it is an exact zero.  Degrees follow
the arithmetic, so a product with a zero or constant operand costs no
convolution and reduced-order jets carry no dead slots.

All operations are exact truncated Taylor arithmetic: sums, Leibniz
products, quotients and composition with the elementary functions.
Coefficients may carry trailing batch axes, so a single Jet can
represent the same field evaluated at many points.

Jets are immutable values; every operation returns a fresh Jet.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 3
MAX_DIM = 4

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


class JetError(ValueError):
    """Base error for jet arithmetic."""


class JetDomainError(JetError):
    """Elementary function evaluated outside its domain (log/sqrt/1/x)."""


class JetShapeError(JetError):
    """Dimension or order mismatch; a programming error, never silent."""


def ncoeffs(dim: int) -> int:
    return math.comb(dim + MAX_ORDER, MAX_ORDER)


def _nslots(dim: int, degree: int) -> int:
    """Number of multi-indices with |alpha| <= degree (0 for degree -1)."""
    return math.comb(dim + degree, degree) if degree >= 0 else 0


def _compositions(total, dim):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, dim - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def multi_indices(dim: int) -> tuple:
    """All multi-indices with |alpha| <= 3, graded lexicographic."""
    if not 1 <= dim <= MAX_DIM:
        raise JetShapeError(f"jet dimension must be 1..{MAX_DIM}, got {dim}")
    out = []
    for total in range(MAX_ORDER + 1):
        out.extend(sorted(_compositions(total, dim)))
    return tuple(out)


@lru_cache(maxsize=None)
def _slot_of(dim: int):
    return {alpha: k for k, alpha in enumerate(multi_indices(dim))}


@lru_cache(maxsize=None)
def _mul_plan(dim: int, deg_a: int, deg_b: int, deg_out: int) -> tuple:
    """Leibniz terms of a product of graded jets, per output slot.

    One ``(k, lead, rest)`` per output slot k: ``lead`` says whether the
    pair (0, k) is present, and ``rest`` lists the other (i, j) pairs in
    increasing i.  Pairs that read a slot above an operand's degree are
    structural zeros and are left out.
    """
    idx = multi_indices(dim)
    slot = _slot_of(dim)
    na, nb = _nslots(dim, deg_a), _nslots(dim, deg_b)
    plan = []
    for k in range(_nslots(dim, deg_out)):
        c = idx[k]
        rest = []
        for i in range(1, na):
            d = tuple(y - x for x, y in zip(idx[i], c))
            if min(d) >= 0 and slot[d] < nb:
                rest.append((i, slot[d]))
        plan.append((k, k < nb, tuple(rest)))
    return tuple(plan)


def _product(a, b, plan, n_out, batch):
    """Graded Leibniz product of stored slots ``a`` and ``b``.

    Each output slot is ``a[0]*b[k] + (((r0 + r1) + r2) ...)`` over the
    plan's remaining terms r, the association ``np.add.reduceat`` gives
    the dense pair table (the first pair of a segment plus the in-order
    sum of the rest, fewer than eight of them).  Dropped pairs are exact
    zeros, so the result equals the dense product bit for bit.
    """
    if not batch:  # rows must be arrays to serve as out= buffers
        return _product(a[:, None], b[:, None], plan, n_out, (1,))[:, 0]
    out = np.empty((n_out,) + batch)
    acc = np.empty(batch)
    tmp = np.empty(batch)
    for k, lead, rest in plan:
        o = out[k]
        if rest:
            s = acc if lead else o
            (i, j), more = rest[0], rest[1:]
            np.multiply(a[i], b[j], out=s)
            for i, j in more:
                np.multiply(a[i], b[j], out=tmp)
                np.add(s, tmp, out=s)
        if lead:
            np.multiply(a[0], b[k], out=o)
            if rest:
                np.add(o, acc, out=o)
    return out


@lru_cache(maxsize=None)
def _gradient_slots(dim: int) -> np.ndarray:
    """Slot of the unit multi-index e_i for each axis i."""
    slot = _slot_of(dim)
    return np.array([slot[tuple(int(i == axis) for i in range(dim))]
                     for axis in range(dim)])


@lru_cache(maxsize=None)
def _partial_table(dim: int, axis: int, degree: int):
    """(src, mult) so that slot k of d/dx_axis is mult[k] * c[src[k]].

    Covers the output slots up to ``degree - 1`` of a degree-``degree``
    jet.
    """
    idx = multi_indices(dim)
    slot = _slot_of(dim)
    src, mult = [], []
    for a in idx[:_nslots(dim, degree - 1)]:
        up = tuple(x + (1 if i == axis else 0) for i, x in enumerate(a))
        src.append(slot[up])
        mult.append(a[axis] + 1)
    return np.array(src), np.array(mult, dtype=float)


def _bshape(mult, nd):
    return mult.reshape((-1,) + (1,) * (nd - 1))


def take_batch(a: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``a`` gathered along its last (batch) axis: the result has shape
    ``a.shape[:-1] + where.shape``.  A stride-0 batch axis, the broadcast
    storage of a constant, stays a read-only broadcast view."""
    if a.strides[-1] == 0:
        row = a[..., 0][(...,) + (None,) * where.ndim]
        return np.broadcast_to(row, a.shape[:-1] + where.shape)
    return np.take(a, where, axis=-1)


def _batch(a: "Jet", b: "Jet"):
    sa, sb = a.batch_shape, b.batch_shape
    return sa if sa == sb else np.broadcast_shapes(sa, sb)


class Jet:
    """Order-3 truncated Taylor value in ``dim`` chart variables.

    ``stored`` has shape ``(nslots,) + batch`` and holds the slots up to
    ``degree``; ``degree <= order``, and slots above ``order`` are not
    part of the jet (reduced-order jets appear as intermediate results of
    differentiation).  ``coeffs`` is the full ``(ncoeffs(dim),) + batch``
    array, zero-padded, as a fresh copy.

    ``Jet(dim, coeffs, order)`` takes a full coefficient array and keeps
    its slots up to ``order``.
    """

    __slots__ = ("dim", "order", "degree", "stored")

    def __init__(self, dim: int, coeffs, order: int = MAX_ORDER):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[0] != ncoeffs(dim):
            raise JetShapeError(
                f"expected {ncoeffs(dim)} coefficients for dim {dim}, "
                f"got {coeffs.shape[0]}")
        self.dim = dim
        self.order = order
        self.degree = order
        self.stored = coeffs[:_nslots(dim, order)]

    @classmethod
    def _make(cls, dim: int, order: int, degree: int, stored) -> "Jet":
        """Jet from graded slots: ``stored.shape[0] == _nslots(dim, degree)``."""
        jet = object.__new__(cls)
        jet.dim = dim
        jet.order = order
        jet.degree = degree
        jet.stored = stored
        return jet

    @classmethod
    def _zero(cls, dim: int, order: int, batch_shape) -> "Jet":
        return cls._make(dim, order, -1, np.empty((0,) + batch_shape))

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(dim: int, value, batch_shape=()) -> "Jet":
        """Constant jet; a scalar 0 gives the zero jet."""
        value = np.asarray(value, dtype=float)
        shape = np.broadcast_shapes(value.shape, batch_shape)
        if value.ndim == 0 and value == 0.0:
            return Jet._zero(dim, MAX_ORDER, shape)
        return Jet._make(dim, MAX_ORDER, 0,
                         np.broadcast_to(value, (1,) + shape))

    @staticmethod
    def from_axis(dim: int, axis: int, coeffs1d, order: int = MAX_ORDER) -> "Jet":
        """Embed univariate Taylor coefficients along one chart axis."""
        coeffs1d = np.asarray(coeffs1d, dtype=float)
        slot = _slot_of(dim)
        stored = np.zeros((_nslots(dim, order),) + coeffs1d.shape[1:])
        for k in range(order + 1):
            e = tuple(k if i == axis else 0 for i in range(dim))
            stored[slot[e]] = coeffs1d[k]
        return Jet._make(dim, order, order, stored)

    @property
    def coeffs(self):
        out = np.zeros((ncoeffs(self.dim),) + self.batch_shape)
        out[:self.stored.shape[0]] = self.stored
        return out

    @property
    def value(self):
        if self.degree < 0:
            return np.zeros(self.batch_shape)[()]
        return self.stored[0]

    @property
    def batch_shape(self):
        return self.stored.shape[1:]

    # -- helpers ------------------------------------------------------

    def _check_mate(self, other: "Jet"):
        if self.dim != other.dim:
            raise JetShapeError(
                f"jet dimension mismatch: {self.dim} vs {other.dim}")

    def gather(self, where) -> "Jet":
        """This jet at the points ``where`` indexes in its one batch axis,
        with its order and degree (see ``take_batch``)."""
        return Jet._make(self.dim, self.order, self.degree,
                         take_batch(self.stored, where))

    def truncate(self, order: int) -> "Jet":
        order = min(order, self.order)
        degree = min(self.degree, order)
        return Jet._make(self.dim, order, degree,
                         self.stored[:_nslots(self.dim, degree)])

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_mate(other)
            order = min(self.order, other.order)
            lo, hi = ((self, other) if self.degree <= other.degree
                      else (other, self))
            degree = min(hi.degree, order)
            n = _nslots(self.dim, degree)
            n_lo = _nslots(self.dim, min(lo.degree, degree))
            batch = _batch(self, other)
            if n_lo == 0:
                stored = hi.stored[:n]
                if stored.shape[1:] != batch:
                    stored = np.broadcast_to(stored, (n,) + batch)
            else:
                stored = np.empty((n,) + batch)
                np.add(self.stored[:n_lo], other.stored[:n_lo],
                       out=stored[:n_lo])
                stored[n_lo:] = hi.stored[n_lo:n]
            return Jet._make(self.dim, order, degree, stored)
        degree = max(self.degree, 0)
        n = _nslots(self.dim, degree)
        stored = np.empty((n,) + np.broadcast_shapes(self.batch_shape,
                                                      np.shape(other)))
        stored[1:] = self.stored[1:]
        stored[0] = self.value + other
        return Jet._make(self.dim, self.order, degree, stored)

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(self.dim, self.order, self.degree, -self.stored)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._make(self.dim, self.order, self.degree,
                             self.stored * np.asarray(other))
        self._check_mate(other)
        order = min(self.order, other.order)
        batch = _batch(self, other)
        da, db = self.degree, other.degree
        if da < 0 or db < 0:
            return Jet._zero(self.dim, order, batch)
        degree = min(da + db, order)
        n = _nslots(self.dim, degree)
        a, b = self.stored, other.stored
        if da == 0:
            stored = a[0] * b[:n]
        elif db == 0:
            stored = a[:n] * b[0]
        else:
            stored = _product(a, b, _mul_plan(self.dim, da, db, degree), n,
                              batch)
        return Jet._make(self.dim, order, degree, stored)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        v = self.value
        if np.any(v == 0.0):
            raise JetDomainError("division by a jet with zero value")
        return self.compose((1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet._make(self.dim, self.order, self.degree,
                         self.stored / np.asarray(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        return jet_pow(self, p)

    # -- calculus -----------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of du/dx_axis, one order lower."""
        if not 0 <= axis < self.dim:
            raise JetShapeError(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        if self.degree <= 0:
            return Jet._zero(self.dim, self.order - 1, self.batch_shape)
        src, mult = _partial_table(self.dim, axis, self.degree)
        stored = self.stored[src] * _bshape(mult, self.stored.ndim)
        return Jet._make(self.dim, self.order - 1, self.degree - 1, stored)

    def gradient(self) -> np.ndarray:
        """First partials du/dx_i as one ``(dim,) + batch`` array, read off
        the degree-1 slots: ``partial(i).value`` for every axis at once."""
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        if self.degree <= 0:
            return np.zeros((self.dim,) + self.batch_shape)
        return self.stored[_gradient_slots(self.dim)]

    def compose(self, derivs) -> "Jet":
        """Compose with a univariate function given by its derivatives.

        ``derivs`` are d0..d3 of the outer function at ``self.value``
        (value-shaped arrays); returns the Taylor composition at this
        jet's order via Horner on the nilpotent part, whose products
        drop every slot above that order.
        """
        if self.degree > 0:
            w = self.stored.copy()
            w[0] = 0.0
            wjet = Jet._make(self.dim, self.order, self.degree, w)
        else:
            wjet = Jet._zero(self.dim, self.order, self.batch_shape)
        res = Jet.constant(self.dim, derivs[3] / 6.0, self.batch_shape)
        res = res * wjet + Jet.constant(self.dim, derivs[2] / 2.0, self.batch_shape)
        res = res * wjet + Jet.constant(self.dim, derivs[1], self.batch_shape)
        res = res * wjet + Jet.constant(self.dim, derivs[0], self.batch_shape)
        return res.truncate(self.order)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


def seed_variable(axis: int, x) -> Jet:
    """Jet of the coordinate function x_axis at point(s) x (shape (dim,...))."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]
    if not 0 <= axis < dim:
        raise JetShapeError(f"variable index {axis} out of range for dim {dim}")
    if not np.all(np.isfinite(x)):
        raise JetError("non-finite point coordinates")
    stored = np.zeros((dim + 1,) + x.shape[1:])
    stored[0] = x[axis]
    e = tuple(1 if i == axis else 0 for i in range(dim))
    stored[_slot_of(dim)[e]] = 1.0
    return Jet._make(dim, MAX_ORDER, 1, stored)


def extract(a: Jet, alpha) -> float:
    """Partial derivative d^alpha u (coefficient times alpha!)."""
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != a.dim:
        raise JetShapeError(f"multi-index length {len(alpha)} != dim {a.dim}")
    total = sum(alpha)
    if total > a.order:
        raise JetError(f"order overflow: |alpha|={total} > jet order {a.order}")
    fact = math.prod(math.factorial(v) for v in alpha)
    if total > a.degree:
        return np.zeros(a.batch_shape)[()] * fact
    return a.stored[_slot_of(a.dim)[alpha]] * fact


def apply_univariate(fn: str, a: Jet) -> Jet:
    """Compose a jet with one of the elementary functions by tag."""
    v = a.value
    if fn == "exp":
        e = np.exp(v)
        return a.compose((e, e, e, e))
    if fn == "sin":
        s, c = np.sin(v), np.cos(v)
        return a.compose((s, c, -s, -c))
    if fn == "cos":
        s, c = np.sin(v), np.cos(v)
        return a.compose((c, -s, -c, s))
    if fn == "tanh":
        t = np.tanh(v)
        s = 1.0 - t * t
        return a.compose((t, s, -2.0 * t * s, s * (6.0 * t * t - 2.0)))
    if fn == "log":
        if np.any(v <= 0.0):
            raise JetDomainError("log of a nonpositive jet value")
        return a.compose((np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3))
    if fn == "sqrt":
        if np.any(v <= 0.0):
            raise JetDomainError("sqrt of a nonpositive jet value")
        r = np.sqrt(v)
        return a.compose((r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r)))
    raise JetError(f"unknown elementary function {fn!r}")


def jet_pow(a: Jet, p) -> Jet:
    """a**p for a real exponent; integer exponents allow any base."""
    if isinstance(p, Jet):
        # a^p = exp(p*log a); requires a > 0
        return apply_univariate("exp", p * apply_univariate("log", a))
    p = float(p)
    if p == int(p) and abs(p) <= 16:
        n = int(p)
        if n == 0:
            one = Jet.constant(a.dim, np.ones(a.batch_shape))
            return one.truncate(a.order)
        base = a if n > 0 else a.reciprocal()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    v = a.value
    if np.any(v <= 0.0):
        raise JetDomainError(
            f"non-integer power {p} of a nonpositive jet value")
    return a.compose((v**p, p * v**(p - 1), p * (p - 1) * v**(p - 2),
                      p * (p - 1) * (p - 2) * v**(p - 3)))

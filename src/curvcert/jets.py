"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` holds the value and all partial derivatives of a scalar
quantity up to total order 3, in 1..4 chart variables, as coefficients
indexed by multi-indices alpha (the slot for alpha holds
``d^alpha u / alpha!``), ordered by total degree.  Storage is graded
twice over:

* by degree: a jet keeps only the slots up to its structural degree,
  the highest total degree that can be nonzero (-1 for the zero jet, 0
  for a constant, 1 for a coordinate);
* by variable support: a jet records the chart variables whose seeds it
  was built from (none for a constant, ``{i}`` for the coordinate x_i,
  the union of the operands' for a sum or product) and keeps only the
  slots whose multi-index is zero on every other variable.

Every slot a jet does not store is an exact zero.  Degrees and supports
follow the arithmetic, so a product with a zero or constant operand
costs no convolution, a product of jets in different variables
multiplies only the pairs both store, and reduced-order jets carry no
dead slots.  Within one support the stored slots are graded, so a
truncation keeps a prefix of them.

All operations are exact truncated Taylor arithmetic: sums, Leibniz
products, quotients and composition with the elementary functions.
Coefficients may carry trailing batch axes, so a single Jet can
represent the same field evaluated at many points.  Operands broadcast
like numpy arrays over their batch axes (a lower-rank batch gains
leading unit axes), so jets on the axis lines of a tensor grid, shaped
``(n0, 1)`` and ``(1, n1)``, combine into the jet on the grid.

Jets are immutable values; every operation returns a fresh Jet.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_ORDER = 3
MAX_DIM = 4

_NO_VARIABLES = frozenset()


class JetError(ValueError):
    """Base error for jet arithmetic."""


class JetDomainError(JetError):
    """Elementary function evaluated outside its domain (log/sqrt/1/x).

    ``index`` is the first entry, in C order, of the jet's batch where
    the argument is outside the domain, given the mask ``bad`` of such
    entries."""

    def __init__(self, message: str, bad):
        super().__init__(message)
        bad = np.asarray(bad)
        self.index = tuple(int(k) for k in
                           np.unravel_index(np.argmax(bad), bad.shape))


class JetShapeError(JetError):
    """Dimension or order mismatch; a programming error, never silent."""


def ncoeffs(dim: int) -> int:
    return math.comb(dim + MAX_ORDER, MAX_ORDER)


def _nslots(nvars: int, degree: int) -> int:
    """Number of multi-indices in ``nvars`` variables with |alpha| <=
    degree (0 for degree -1)."""
    return math.comb(nvars + degree, degree) if degree >= 0 else 0


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
def _every_variable(dim: int) -> frozenset:
    return frozenset(range(dim))


def _index_array(values) -> np.ndarray:
    """Read-only slot indices: the cached tables below are shared."""
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _indices_on(dim: int, support: frozenset) -> tuple:
    """The multi-indices that are zero off ``support``, in slot order: the
    slots a jet with that support stores, up to its degree."""
    return tuple(alpha for alpha in multi_indices(dim)
                 if all(a == 0 for i, a in enumerate(alpha)
                        if i not in support))


@lru_cache(maxsize=None)
def _slot_on(dim: int, support: frozenset) -> dict:
    """Stored slot of each multi-index of ``_indices_on(dim, support)``."""
    return {alpha: k for k, alpha in enumerate(_indices_on(dim, support))}


@lru_cache(maxsize=None)
def _embedding(dim: int, sub: frozenset, sup: frozenset) -> np.ndarray:
    """Slot in the storage of support ``sup`` of each slot of ``sub``,
    a subset of it."""
    slot = _slot_on(dim, sup)
    return _index_array([slot[alpha] for alpha in _indices_on(dim, sub)])


@lru_cache(maxsize=None)
def _mul_plan(dim: int, sa: frozenset, deg_a: int, sb: frozenset, deg_b: int,
              deg_out: int) -> tuple:
    """Leibniz terms of a product of stored slots, per output slot.

    One ``(k, lead, rest)`` per slot k of the union support up to
    ``deg_out``: ``lead`` is the slot of b paired with a's slot 0 (None
    where b does not store it), and ``rest`` lists the other pairs (i, j)
    both operands store, in increasing slot i of a.  Every other pair of
    the dense table reads a slot that is an exact zero and is left out.
    """
    a_idx = _indices_on(dim, sa)[:_nslots(len(sa), deg_a)]
    b_slot = _slot_on(dim, sb)
    nb = _nslots(len(sb), deg_b)
    out = sa | sb
    plan = []
    for k, c in enumerate(_indices_on(dim, out)[:_nslots(len(out), deg_out)]):
        rest = []
        for i in range(1, len(a_idx)):
            d = tuple(y - x for x, y in zip(a_idx[i], c))
            j = b_slot.get(d, nb) if min(d) >= 0 else nb
            if j < nb:
                rest.append((i, j))
        lead = b_slot.get(c, nb)
        plan.append((k, lead if lead < nb else None, tuple(rest)))
    return tuple(plan)


def _product(a, b, plan, n_out, batch):
    """Leibniz product of stored slots ``a`` and ``b`` by ``plan``.

    Each output slot is ``a[0]*b[lead] + (((r0 + r1) + r2) ...)`` over
    the plan's remaining terms r, the association ``np.add.reduceat``
    gives the dense pair table (the first pair of a segment plus the
    in-order sum of the rest, fewer than eight of them), and a slot no
    stored pair reaches is 0.0.  Dropped pairs are exact zeros, so the
    result equals the dense product up to the sign of a zero.
    """
    if not batch:  # rows must be arrays to serve as out= buffers
        return _product(a[:, None], b[:, None], plan, n_out, (1,))[:, 0]
    out = np.empty((n_out,) + batch)
    acc = np.empty(batch)
    tmp = np.empty(batch)
    for k, lead, rest in plan:
        o = out[k]
        if rest:
            s = o if lead is None else acc
            (i, j), more = rest[0], rest[1:]
            np.multiply(a[i], b[j], out=s)
            for i, j in more:
                np.multiply(a[i], b[j], out=tmp)
                np.add(s, tmp, out=s)
        if lead is not None:
            np.multiply(a[0], b[lead], out=o)
            if rest:
                np.add(o, acc, out=o)
        elif not rest:
            o.fill(0.0)
    return out


@lru_cache(maxsize=None)
def _sum_plan(dim: int, sa: frozenset, na: int, sb: frozenset, nb: int,
              n: int) -> tuple:
    """Sources of the first ``n`` slots of the union support in a sum of
    a's first ``na`` slots and b's first ``nb``, as runs ``(k, stop, i,
    j)``: slots k to stop - 1 are a's from slot i on and b's from slot j
    on, i or j None where that operand stores none of them, so the run
    is a copy, a sum or 0."""
    out = sa | sb
    from_a = {int(k): i for i, k in enumerate(_embedding(dim, sa, out)[:na])}
    from_b = {int(k): j for j, k in enumerate(_embedding(dim, sb, out)[:nb])}
    runs = []
    for k in range(n):
        i, j = from_a.get(k), from_b.get(k)
        if runs:
            k0, _, i0, j0 = runs[-1]
            if (i is None) == (i0 is None) and (j is None) == (j0 is None) \
                    and (i is None or i == i0 + k - k0) \
                    and (j is None or j == j0 + k - k0):
                runs[-1] = (k0, k + 1, i0, j0)
                continue
        runs.append((k, k + 1, i, j))
    return tuple(runs)


@lru_cache(maxsize=None)
def _gradient_slots(dim: int, support: frozenset):
    """The axes of ``support`` and the stored slot of each one's unit
    multi-index e_i."""
    slot = _slot_on(dim, support)
    axes = sorted(support)
    return (_index_array(axes),
            _index_array([slot[tuple(int(i == axis) for i in range(dim))]
                          for axis in axes]))


@lru_cache(maxsize=None)
def _partial_table(dim: int, support: frozenset, axis: int, degree: int):
    """(src, mult) so that stored slot k of d/dx_axis is mult[k] *
    c[src[k]], for a jet of that support (which holds ``axis``).

    Covers the output slots up to ``degree - 1`` of a degree-``degree``
    jet.
    """
    slot = _slot_on(dim, support)
    src, mult = [], []
    for a in _indices_on(dim, support)[:_nslots(len(support), degree - 1)]:
        up = tuple(x + (1 if i == axis else 0) for i, x in enumerate(a))
        src.append(slot[up])
        mult.append(a[axis] + 1)
    mult = np.array(mult, dtype=float)
    mult.flags.writeable = False
    return _index_array(src), mult


def _bshape(mult, nd):
    return mult.reshape((-1,) + (1,) * (nd - 1))


def _at_rank(stored: np.ndarray, rank: int) -> np.ndarray:
    """Slots whose batch is padded with leading unit axes to ``rank``
    batch axes, so that broadcasting never meets the slot axis with a
    batch axis."""
    pad = rank - (stored.ndim - 1)
    if pad <= 0:
        return stored
    return stored.reshape(stored.shape[:1] + (1,) * pad + stored.shape[1:])


def _aligned(a: "Jet", b: "Jet"):
    """Both operands' slots with their batches at one rank, and the
    broadcast batch shape; batches that do not broadcast raise."""
    sa, sb = a.batch_shape, b.batch_shape
    if sa == sb:
        return a.stored, b.stored, sa
    rank = max(len(sa), len(sb))
    pa = (1,) * (rank - len(sa)) + sa
    pb = (1,) * (rank - len(sb)) + sb
    if any(p != q and p != 1 and q != 1 for p, q in zip(pa, pb)):
        raise JetShapeError(f"jet batch shapes {sa} and {sb} do not broadcast")
    batch = tuple(q if p == 1 else p for p, q in zip(pa, pb))
    return _at_rank(a.stored, rank), _at_rank(b.stored, rank), batch


class Jet:
    """Order-3 truncated Taylor value in ``dim`` chart variables.

    ``support`` is the frozenset of chart variables the jet may depend on
    (empty when ``degree <= 0``).  ``stored`` has shape ``(nslots,) +
    batch`` and holds the slots of the multi-indices zero off the support,
    in slot order, up to ``degree``; ``degree <= order``, and slots above
    ``order`` are not part of the jet (reduced-order jets appear as
    intermediate results of differentiation).  ``coeffs`` is the full
    ``(ncoeffs(dim),) + batch`` array, zero-padded, as a fresh copy.

    ``Jet(dim, coeffs, order)`` takes a full coefficient array and keeps
    its slots up to ``order``, with every variable in its support.
    """

    __slots__ = ("dim", "order", "degree", "support", "stored")

    def __init__(self, dim: int, coeffs, order: int = MAX_ORDER):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[0] != ncoeffs(dim):
            raise JetShapeError(
                f"expected {ncoeffs(dim)} coefficients for dim {dim}, "
                f"got {coeffs.shape[0]}")
        self.dim = dim
        self.order = order
        self.degree = order
        self.support = _every_variable(dim) if order > 0 else _NO_VARIABLES
        self.stored = coeffs[:_nslots(dim, order)]

    @classmethod
    def _make(cls, dim: int, order: int, degree: int, stored,
              support: frozenset) -> "Jet":
        """Jet from graded slots on ``support``: ``stored.shape[0] ==
        _nslots(len(support), degree)``."""
        jet = object.__new__(cls)
        jet.dim = dim
        jet.order = order
        jet.degree = degree
        jet.support = support if degree > 0 else _NO_VARIABLES
        jet.stored = stored
        return jet

    @classmethod
    def _zero(cls, dim: int, order: int, batch_shape) -> "Jet":
        return cls._make(dim, order, -1, np.empty((0,) + batch_shape),
                         _NO_VARIABLES)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(dim: int, value, batch_shape=()) -> "Jet":
        """Constant jet; a scalar 0 gives the zero jet."""
        value = np.asarray(value, dtype=float)
        shape = tuple(batch_shape)
        if value.ndim and value.shape != shape:
            shape = np.broadcast_shapes(value.shape, shape)
        if value.ndim == 0 and value == 0.0:
            return Jet._zero(dim, MAX_ORDER, shape)
        return Jet._make(dim, MAX_ORDER, 0,
                         np.broadcast_to(value, (1,) + shape), _NO_VARIABLES)

    @property
    def coeffs(self):
        out = np.zeros((ncoeffs(self.dim),) + self.batch_shape)
        slots = _embedding(self.dim, self.support, _every_variable(self.dim))
        out[slots[:self.stored.shape[0]]] = self.stored
        return out

    @property
    def value(self):
        if self.degree < 0:
            return np.zeros(self.batch_shape)[()]
        return self.stored[0]

    @property
    def batch_shape(self):
        return self.stored.shape[1:]

    @property
    def is_zero(self) -> bool:
        """Whether this is the zero jet, which stores no slot."""
        return self.degree < 0

    # -- helpers ------------------------------------------------------

    def _check_mate(self, other: "Jet"):
        if self.dim != other.dim:
            raise JetShapeError(
                f"jet dimension mismatch: {self.dim} vs {other.dim}")

    def truncate(self, order: int) -> "Jet":
        order = min(order, self.order)
        degree = min(self.degree, order)
        n = _nslots(len(self.support), degree)
        return Jet._make(self.dim, order, degree, self.stored[:n],
                         self.support)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_mate(other)
            order = min(self.order, other.order)
            a, b, batch = _aligned(self, other)
            if self.degree <= other.degree:
                lo, hi, lo_slots, hi_slots = self, other, a, b
            else:
                lo, hi, lo_slots, hi_slots = other, self, b, a
            degree = min(hi.degree, order)
            support = lo.support | hi.support
            n = _nslots(len(support), degree)
            n_lo = _nslots(len(lo.support), min(lo.degree, degree))
            if n_lo == 0:
                stored = hi_slots[:n]
                if stored.shape[1:] != batch:
                    stored = np.broadcast_to(stored, (n,) + batch)
            elif lo.support == hi.support or lo.degree == 0:
                # one layout: lo's slots are a prefix of hi's
                stored = np.empty((n,) + batch)
                np.add(a[:n_lo], b[:n_lo], out=stored[:n_lo])
                stored[n_lo:] = hi_slots[n_lo:n]
            else:
                # each slot written once: a copy, a sum, or 0 where
                # neither operand stores it
                n_hi = _nslots(len(hi.support), degree)
                stored = np.empty((n,) + batch)
                for k, stop, i, j in _sum_plan(
                        self.dim, lo.support, n_lo, hi.support, n_hi, n):
                    o = stored[k:stop]
                    if j is None:
                        o[...] = 0.0 if i is None else \
                            lo_slots[i:i + stop - k]
                    elif i is None:
                        o[...] = hi_slots[j:j + stop - k]
                    else:
                        np.add(lo_slots[i:i + stop - k],
                               hi_slots[j:j + stop - k], out=o)
            return Jet._make(self.dim, order, degree, stored, support)
        degree = max(self.degree, 0)
        n = _nslots(len(self.support), degree)
        batch = np.broadcast_shapes(self.batch_shape, np.shape(other))
        stored = np.empty((n,) + batch)
        stored[1:] = _at_rank(self.stored[1:], len(batch))
        stored[0] = self.value + other
        return Jet._make(self.dim, self.order, degree, stored, self.support)

    __radd__ = __add__

    def __neg__(self):
        return Jet._make(self.dim, self.order, self.degree, -self.stored,
                         self.support)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = np.asarray(other)
            return Jet._make(self.dim, self.order, self.degree,
                             _at_rank(self.stored, other.ndim) * other,
                             self.support)
        self._check_mate(other)
        order = min(self.order, other.order)
        a, b, batch = _aligned(self, other)
        da, db = self.degree, other.degree
        if da < 0 or db < 0:
            return Jet._zero(self.dim, order, batch)
        degree = min(da + db, order)
        support = self.support | other.support
        n = _nslots(len(support), degree)
        if da == 0:
            stored = a[0] * b[:n]
        elif db == 0:
            stored = a[:n] * b[0]
        else:
            plan = _mul_plan(self.dim, self.support, da, other.support, db,
                             degree)
            stored = _product(a, b, plan, n, batch)
        return Jet._make(self.dim, order, degree, stored, support)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        v = self.value
        bad = v == 0.0
        if np.any(bad):
            raise JetDomainError("division by a jet with zero value", bad)
        return self.compose((1.0 / v, -1.0 / v**2, 2.0 / v**3 / 2.0,
                             -6.0 / v**4 / 6.0))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        other = np.asarray(other)
        return Jet._make(self.dim, self.order, self.degree,
                         _at_rank(self.stored, other.ndim) / other,
                         self.support)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        return jet_pow(self, p)

    # -- calculus -----------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of du/dx_axis, one order lower; the zero jet when x_axis is
        not in the support."""
        if not 0 <= axis < self.dim:
            raise JetShapeError(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        if axis not in self.support:
            return Jet._zero(self.dim, self.order - 1, self.batch_shape)
        src, mult = _partial_table(self.dim, self.support, axis, self.degree)
        stored = self.stored[src] * _bshape(mult, self.stored.ndim)
        return Jet._make(self.dim, self.order - 1, self.degree - 1, stored,
                         self.support)

    def gradient(self) -> np.ndarray:
        """First partials du/dx_i as one ``(dim,) + batch`` array, read off
        the degree-1 slots: ``partial(i).value`` for every axis at once,
        a zero row off the support."""
        if self.order == 0:
            raise JetShapeError("cannot differentiate an order-0 jet")
        out = np.zeros((self.dim,) + self.batch_shape)
        axes, slots = _gradient_slots(self.dim, self.support)
        out[axes] = self.stored[slots]
        return out

    def compose(self, coeffs) -> "Jet":
        """Compose with a univariate function given by its Taylor
        coefficients c0..c3 at ``self.value`` (ck = dk/k!, value-shaped
        arrays or scalars): Horner on the nilpotent part w, run on the
        stored slots, ``r = (r * w) + ck`` from r = c3, whose products
        drop every slot above this jet's order.  The first product scales
        w's slots by c3, the later ones are the Leibniz products of ``*``
        (its plan, r's slots first), and ck adds to slot 0, so every slot
        has the bits the same steps over jets would give.  The result
        keeps this jet's support; with no nilpotent part it is the
        degree-0 jet of c0.
        """
        if self.degree <= 0:
            return Jet._make(self.dim, self.order, 0,
                             np.broadcast_to(coeffs[0],
                                             (1,) + self.batch_shape),
                             _NO_VARIABLES)
        d, support = self.degree, self.support
        w = self.stored.copy()
        w[0] = 0.0
        res = coeffs[3] * w
        res[0] += coeffs[2]
        degree = d
        for c in (coeffs[1], coeffs[0]):
            out = min(degree + d, self.order)
            plan = _mul_plan(self.dim, support, degree, support, d, out)
            res = _product(res, w, plan, _nslots(len(support), out),
                           self.batch_shape)
            res[0] += c
            degree = out
        return Jet._make(self.dim, self.order, degree, res, support)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"


def seed_variable(axis: int, x) -> Jet:
    """Jet of the coordinate function x_axis, support {axis} and slots
    (value, 1), at the coordinate array ``x[axis]`` and its batch shape.
    ``x`` holds one coordinate array per chart variable: the rows of a
    point array (shape (dim, ...)), or the axis lines of a tensor grid,
    each at its own shape.  Only ``x[axis]`` is read and checked finite."""
    dim = len(x)
    if not 0 <= axis < dim:
        raise JetShapeError(f"variable index {axis} out of range for dim {dim}")
    coord = np.asarray(x[axis], dtype=float)
    if not np.isfinite(coord).all():
        raise JetError("non-finite point coordinates")
    stored = np.empty((2,) + coord.shape)
    stored[0] = coord
    stored[1] = 1.0
    return Jet._make(dim, MAX_ORDER, 1, stored, frozenset((axis,)))


def stack(js: Sequence[Jet], rank: int = 0) -> Jet:
    """The jets ``js`` as one jet of batch ``(len(js),) + b``, whose row i
    is ``js[i]``: b is their broadcast batch, padded with leading unit
    axes to at least ``rank`` axes (the rank of the batch the stack is to
    meet, so that a jet of batch () meets an (m,) one at (k, m)).  Its
    order is the least of theirs, its degree the greatest (at most that
    order) and its support the union of theirs, and a row's slots that
    its own jet does not store are zero.  Every jet operation is
    elementwise over the batch, so a row of a result is the result on
    that row's jet, up to the sign of a zero."""
    if not js:
        raise JetShapeError("no jets to stack")
    for j in js[1:]:
        js[0]._check_mate(j)
    dim = js[0].dim
    order = min(j.order for j in js)
    degree = min(max(j.degree for j in js), order)
    support = _NO_VARIABLES.union(*(j.support for j in js))
    batch = np.broadcast_shapes(*(j.batch_shape for j in js))
    batch = (1,) * (rank - len(batch)) + batch
    stored = np.zeros((_nslots(len(support), degree), len(js)) + batch)
    for i, j in enumerate(js):
        n = _nslots(len(j.support), min(j.degree, degree))
        rows = _at_rank(j.stored[:n], len(batch))
        if j.support == support:
            stored[:n, i] = rows
        else:
            stored[_embedding(dim, j.support, support)[:n], i] = rows
    return Jet._make(dim, order, degree, stored, support)


def extract(a: Jet, alpha) -> float:
    """Partial derivative d^alpha u (coefficient times alpha!)."""
    alpha = tuple(int(v) for v in alpha)
    if len(alpha) != a.dim:
        raise JetShapeError(f"multi-index length {len(alpha)} != dim {a.dim}")
    total = sum(alpha)
    if total > a.order:
        raise JetError(f"order overflow: |alpha|={total} > jet order {a.order}")
    fact = math.prod(math.factorial(v) for v in alpha)
    slot = _slot_on(a.dim, a.support).get(alpha)
    if total > a.degree or slot is None:
        return np.zeros(a.batch_shape)[()] * fact
    return a.stored[slot] * fact


def apply_univariate(fn: str, a: Jet) -> Jet:
    """Compose a jet with one of the elementary functions by tag."""
    v = a.value
    if fn == "exp":
        e = np.exp(v)
        return a.compose((e, e, e / 2.0, e / 6.0))
    if fn == "sin":
        s, c = np.sin(v), np.cos(v)
        return a.compose((s, c, -s / 2.0, -c / 6.0))
    if fn == "cos":
        s, c = np.sin(v), np.cos(v)
        return a.compose((c, -s, -c / 2.0, s / 6.0))
    if fn == "tanh":
        t = np.tanh(v)
        s = 1.0 - t * t
        return a.compose((t, s, -2.0 * t * s / 2.0,
                          s * (6.0 * t * t - 2.0) / 6.0))
    if fn == "log":
        bad = v <= 0.0
        if np.any(bad):
            raise JetDomainError("log of a nonpositive jet value", bad)
        return a.compose((np.log(v), 1.0 / v, -1.0 / v**2 / 2.0,
                          2.0 / v**3 / 6.0))
    if fn == "sqrt":
        bad = v <= 0.0
        if np.any(bad):
            raise JetDomainError("sqrt of a nonpositive jet value", bad)
        r = np.sqrt(v)
        return a.compose((r, 0.5 / r, -0.25 / (v * r) / 2.0,
                          0.375 / (v * v * r) / 6.0))
    raise JetError(f"unknown elementary function {fn!r}")


def jet_pow(a: Jet, p) -> Jet:
    """a**p for a real exponent; integer exponents allow any base but a
    zero one under a negative power.  Up to |p| = 16 an integer power is
    a repeated product (of the reciprocal for p < 0); above, like a
    non-integer one, it composes with the power's Taylor coefficients."""
    if isinstance(p, Jet):
        # a^p = exp(p*log a); requires a > 0
        return apply_univariate("exp", p * apply_univariate("log", a))
    p = float(p)
    integer = p == int(p)
    if integer and abs(p) <= 16:
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
    if not integer:
        bad = v <= 0.0
        if np.any(bad):
            raise JetDomainError(
                f"non-integer power {p} of a nonpositive jet value", bad)
    elif p < 0:
        bad = v == 0.0
        if np.any(bad):
            raise JetDomainError("division by a jet with zero value", bad)
    return a.compose((v**p, p * v**(p - 1), p * (p - 1) * v**(p - 2) / 2.0,
                      p * (p - 1) * (p - 2) * v**(p - 3) / 6.0))

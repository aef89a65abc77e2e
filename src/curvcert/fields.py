"""Scalar fields on a chart: expression-backed, cutoffs, combinators.

A field maps chart points (shape ``(dim,)`` or ``(dim, m)``) to jets of
order 0 to 3, order 3 by default: a consumer asks for the order it reads
(``jet(x, 1)`` for a value and gradient, ``value`` for the order-0 jet's
value) and no slot above it is computed.  Truncated jet arithmetic forms
each kept slot from the same terms in the same order as the order-3
arithmetic, so an order-k jet holds the order-3 jet's slots up to k.
(An order-0 composition skips adding the zero products of the nilpotent
part, which shows only on a -0.0 outer value or a non-finite higher
derivative.)  Jet-wise arithmetic on fields is exact through order 3, so
products/sums/quotients of fields with exact jets again have exact jets.

A field's ``reads`` are the chart axes it depends on.  An expression
field is jetted once per distinct point of those axes and gathered to
the points it was asked at (``distinct``); every jet operation is
elementwise, so each point's jet is bit for bit the direct one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from . import exprlang
from .jets import MAX_ORDER, Jet

Box = Sequence[Tuple[float, float]]


def distinct(x: np.ndarray, axes: Sequence[int]
             ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The distinct points of x (shape ``(dim, ...)``) on the chart axes
    ``axes``: the index of each one's first appearance in the flattened
    batch, ascending, and the map from every point to its distinct point
    (shaped like the batch).  Points are equal when their coordinates on
    ``axes`` have equal bits.  None, meaning "evaluate directly", when
    ``axes`` is every axis, x is a single point, a coordinate is
    non-finite (the direct evaluation raises), or more than half the
    points are distinct.
    """
    x = np.asarray(x, dtype=float)
    if len(axes) == x.shape[0] or x.ndim < 2 or x[0].size < 2:
        return None
    if not np.all(np.isfinite(x)):
        return None
    flat = x.reshape(x.shape[0], -1)
    m = flat.shape[1]
    # one 1-D unique per axis, combined mixed-radix into an integer key
    key = np.zeros(m, dtype=np.int64)
    for i in axes:
        bits = np.ascontiguousarray(flat[i]).view(np.int64)
        values, rank = np.unique(bits, return_inverse=True)
        if (int(key.max()) + 1) * len(values) >= 2**63:  # re-rank first
            key = np.unique(key, return_inverse=True)[1].reshape(m)
        key = key * len(values) + rank.reshape(m)
    _, first, where = np.unique(key, return_index=True, return_inverse=True)
    if 2 * len(first) > m:
        return None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[where.reshape(m)].reshape(x.shape[1:])


class ScalarField:
    """Base: a C^3 scalar field evaluable to jets of order up to 3."""

    dim: int

    @property
    def reads(self) -> Tuple[int, ...]:
        """The chart axes the field depends on, ascending: a static
        property of the field, never of the points.  Every axis unless a
        subclass knows better."""
        return tuple(range(self.dim))

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        """Jet of the field at x through ``order`` (its ``.order`` is at
        most ``order``)."""
        raise NotImplementedError

    def value(self, x):
        return self.jet(x, 0).value

    def __add__(self, other):
        return _BinField("+", self, _coerce(other, self.dim))

    def __radd__(self, other):
        return _BinField("+", _coerce(other, self.dim), self)

    def __sub__(self, other):
        return _BinField("-", self, _coerce(other, self.dim))

    def __rsub__(self, other):
        return _BinField("-", _coerce(other, self.dim), self)

    def __mul__(self, other):
        return _BinField("*", self, _coerce(other, self.dim))

    def __rmul__(self, other):
        return _BinField("*", _coerce(other, self.dim), self)

    def __truediv__(self, other):
        return _BinField("/", self, _coerce(other, self.dim))

    def __neg__(self):
        return _BinField("-", ConstField(self.dim, 0.0), self)


def _coerce(v, dim) -> "ScalarField":
    if isinstance(v, ScalarField):
        return v
    return ConstField(dim, float(v))


class ConstField(ScalarField):
    reads = ()

    def __init__(self, dim: int, value: float):
        self.dim = dim
        self._value = float(value)

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        x = np.asarray(x, dtype=float)
        return Jet.constant(self.dim, self._value, x.shape[1:]).truncate(order)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._value, x.shape[1:]).copy() \
            if x.ndim > 1 else self._value

    def __repr__(self):
        return f"ConstField({self._value})"


class ExprField(ScalarField):
    """Field defined by an expression-language AST (or source text)."""

    def __init__(self, src, dim: int):
        self.dim = dim
        if isinstance(src, str):
            self.ast = exprlang.parse(src, dim)
            self.source = src
        else:
            self.ast = src
            self.source = exprlang.to_source(src)

    @cached_property
    def reads(self) -> Tuple[int, ...]:
        return exprlang.variables(self.ast)

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        x = np.asarray(x, dtype=float)
        proj = distinct(x, self.reads)
        if proj is None:
            return exprlang.evaluate(self.ast, x, order)
        first, where = proj
        try:
            jet = exprlang.evaluate(
                self.ast, x.reshape(x.shape[0], -1)[:, first], order)
        except exprlang.EvalError:
            # evaluate every point, so that the error names the caller's
            # batch
            return exprlang.evaluate(self.ast, x, order)
        return jet.gather(where)

    def value(self, x):
        return exprlang.evaluate_value(self.ast, np.asarray(x, dtype=float))

    def __repr__(self):
        return f"ExprField({self.source!r})"


class _BinField(ScalarField):
    def __init__(self, op: str, a: ScalarField, b: ScalarField):
        if a.dim != b.dim:
            raise ValueError("field dimension mismatch")
        self.dim = a.dim
        self.op = op
        self.a = a
        self.b = b

    @property
    def reads(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.a.reads) | set(self.b.reads)))

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        ja = self.a.jet(x, order)
        jb = self.b.jet(x, order)
        if self.op == "+":
            return ja + jb
        if self.op == "-":
            return ja - jb
        if self.op == "*":
            return ja * jb
        return ja / jb


# -- smooth plateau cutoff ---------------------------------------------


def _bump_h(t):
    """exp(-1/t) for t > 0, 0 otherwise: value and derivatives 1..3."""
    t = np.asarray(t, dtype=float)
    pos = t > 1e-12
    ts = np.where(pos, t, 1.0)
    h = np.where(pos, np.exp(-1.0 / ts), 0.0)
    h1 = np.where(pos, h / ts**2, 0.0)
    h2 = np.where(pos, h * (1.0 - 2.0 * ts) / ts**4, 0.0)
    h3 = np.where(pos, h * (1.0 - 6.0 * ts + 6.0 * ts**2) / ts**6, 0.0)
    return np.stack([h, h1, h2, h3])


def _smoothstep_jets(t, order: int = MAX_ORDER):
    """Taylor coefficients (c0..c3) of s(t)=h(t)/(h(t)+h(1-t)) at t,
    exact through ``order`` and zero above it."""
    t = np.asarray(t, dtype=float)
    ha = _bump_h(np.clip(t, None, 1.0))
    hb = _bump_h(1.0 - np.clip(t, 0.0, None))
    hb[1::2] *= -1.0  # chain rule for t -> 1-t on odd orders
    fact = np.array([1.0, 1.0, 2.0, 6.0]).reshape((4,) + (1,) * t.ndim)
    ja = Jet(1, ha / fact, order)
    jb = Jet(1, hb / fact, order)
    denom = ja + jb
    s = (ja / denom).coeffs
    lo = t <= 0.0
    hi = t >= 1.0
    s[0] = np.where(lo, 0.0, np.where(hi, 1.0, s[0]))
    for k in range(1, order + 1):
        s[k] = np.where(lo | hi, 0.0, s[k])
    return s


@dataclass(frozen=True)
class CutoffSpec:
    """Plateau support boxes: value 1 on ``inner``, 0 outside ``outer``.

    On a side where the inner and outer bounds coincide the cutoff does
    not taper (it stays 1 through that edge), which is how supports are
    allowed to touch the boundary of the domain.
    """

    inner: Tuple[Tuple[float, float], ...]
    outer: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.inner) != len(self.outer):
            raise ValueError("inner/outer box dimension mismatch")
        for (ilo, ihi), (olo, ohi) in zip(self.inner, self.outer):
            if not (olo <= ilo <= ihi <= ohi):
                raise ValueError(
                    f"cutoff boxes must nest: outer ({olo},{ohi}) "
                    f"inner ({ilo},{ihi})")


def make_cutoff_spec(inner: Box, outer: Box) -> CutoffSpec:
    return CutoffSpec(tuple((float(a), float(b)) for a, b in inner),
                      tuple((float(a), float(b)) for a, b in outer))


class CutoffField(ScalarField):
    """C-infinity plateau bump built from t -> exp(-1/(1-t^2)) edges.

    The field is a product of one univariate factor per tapered axis (an
    axis whose inner and outer bounds differ on some side); untapered
    factors are exactly 1 and are left out.  Each factor is evaluated
    once per distinct coordinate of the batch and gathered to the nodes,
    so a tensor-product chunk costs one evaluation per grid line.
    """

    def __init__(self, spec: CutoffSpec):
        self.dim = len(spec.inner)
        self.spec = spec
        self.tapered = tuple(
            i for i, ((ilo, ihi), (olo, ohi))
            in enumerate(zip(spec.inner, spec.outer))
            if ilo > olo or ohi > ihi)

    @property
    def reads(self) -> Tuple[int, ...]:
        return self.tapered

    def _axis_coeffs(self, xi, axis, order: int = MAX_ORDER):
        """(order + 1, ...) univariate Taylor coefficients of the axis
        factor at the coordinates ``xi``."""
        (ilo, ihi) = self.spec.inner[axis]
        (olo, ohi) = self.spec.outer[axis]
        out = np.zeros((4,) + np.shape(xi))
        out[0] = 1.0
        jet = Jet(1, out, order)
        if ilo > olo:
            scale = 1.0 / (ilo - olo)
            c = _smoothstep_jets((xi - olo) * scale, order)
            c *= (scale ** np.arange(4)).reshape((4,) + (1,) * np.ndim(xi))
            jet = jet * Jet(1, c, order)
        if ohi > ihi:
            scale = 1.0 / (ohi - ihi)
            c = _smoothstep_jets((ohi - xi) * scale, order)
            c *= ((-scale) ** np.arange(4)).reshape((4,) + (1,) * np.ndim(xi))
            jet = jet * Jet(1, c, order)
        return jet.coeffs[:order + 1]

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        x = np.asarray(x, dtype=float)
        out = Jet.constant(self.dim, 1.0, x.shape[1:]).truncate(order)
        for i in self.tapered:
            coords, where = np.unique(x[i], return_inverse=True)
            c = self._axis_coeffs(coords, i, order)
            # gather to the nodes; np.unique's inverse shape has varied
            c = c[:, where.reshape(x[i].shape)]
            out = out * Jet.from_axis(self.dim, i, c, order)
        return out

    def __repr__(self):
        return f"CutoffField(inner={self.spec.inner}, outer={self.spec.outer})"

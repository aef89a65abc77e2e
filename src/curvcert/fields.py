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

Where the points are a C-ordered tensor grid (``grid_lines``: every
interior quadrature chunk that holds whole rows of its rule, the sample
grids, the boundary patch grids), the whole field tree is jetted on the
grid's axis lines: axis i gets one seed shaped to broadcast along it,
every subfield is jetted at the broadcast shape of the axes it reads
(``sin(y)`` on the line of y, ``x^2*cos(y)`` as one product of two
lines), and the root's jet is flattened to the points once.  Elsewhere
each subfield is jetted at the points; there a field's ``reads``, the
chart axes it depends on, let an expression be jetted once per distinct
point of those axes and gathered (``distinct``), and a cutoff once per
distinct coordinate of each tapered axis.  Every jet operation is
elementwise, so on either path each point's jet is bit for bit the jet
at that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import exprlang
from .jets import MAX_ORDER, Jet, JetDomainError, seed_variable

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


def grid_lines(x: np.ndarray) -> Optional[List[np.ndarray]]:
    """The axis lines of x (shape ``(dim, ...)``) when its flattened
    points are a C-ordered tensor grid of shape ``(n0, ..., n_{dim-1})``:
    line i holds axis i's n_i coordinates, shaped to broadcast along axis
    i only, and point k is the line values at k's C-order grid index.
    Coordinates are compared by their bits, so 0.0 and -0.0 differ.  The
    run length of each axis's first value fixes the shape, and every
    coordinate is then checked against its line: O(dim m) comparisons,
    no sort.  None, meaning "jet at the points", when x is a single point
    or not such a grid, or a coordinate is not finite (the points' jet
    raises).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x[0].size < 2:
        return None
    flat = x.reshape(x.shape[0], -1)
    bits = flat.view(np.int64)
    dim, m = bits.shape
    shape, run = [], m
    for row in bits[:-1]:
        step = int((row[:run] != row[0]).argmax()) or run
        if run % step:
            return None
        shape.append(run // step)
        run = step
    shape.append(run)
    lines, step = [None] * dim, 1
    for i in reversed(range(dim)):  # scattered points fail on the last
        n = shape[i]
        along = [1] * dim
        along[i] = n
        line = flat[i, :n * step:step].reshape(along)
        if not ((bits[i].reshape(shape) == line.view(np.int64)).all()
                and np.isfinite(line).all()):
            return None
        lines[i] = line
        step *= n
    return lines


class ScalarField:
    """Base: a C^3 scalar field evaluable to jets of order up to 3.

    A subclass jets itself at points (``_node_jet``) and on a grid's
    axis lines (``_line_jet``); ``jet`` picks the path.
    """

    dim: int

    @property
    def reads(self) -> Tuple[int, ...]:
        """The chart axes the field depends on, ascending: a static
        property of the field, never of the points.  Every axis unless a
        subclass knows better."""
        return tuple(range(self.dim))

    def jet(self, x, order: int = MAX_ORDER) -> Jet:
        """Jet of the field at x through ``order`` (its ``.order`` is at
        most ``order``): on the axis lines when x is a tensor grid
        (``grid_lines``), flattened to the points once, here; otherwise
        at the points."""
        x = np.asarray(x, dtype=float)
        lines = grid_lines(x)
        if lines is not None:
            # seed i reads row i of a (dim,) + line-shaped point array
            seeds = [seed_variable(i, np.repeat(line[None], len(lines), 0))
                     .truncate(order) for i, line in enumerate(lines)]
            try:
                jet = self._line_jet(seeds, order)
            except JetDomainError:
                pass  # jet the points, so that the error names x
            else:
                shape = tuple(line.size for line in lines)
                return jet.on_grid(shape, x.shape[1:])
        return self._node_jet(x, order)

    def _node_jet(self, x, order: int) -> Jet:
        """The jet at the points x (shape ``(dim,)`` or ``(dim, ...)``)."""
        raise NotImplementedError

    def _line_jet(self, seeds: Sequence[Jet], order: int) -> Jet:
        """The jet on a tensor grid, given one seed per axis line (see
        ``exprlang.evaluate_jet``), at the broadcast shape of the axes
        the field reads."""
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
        # the same at every point, so no grid is worth detecting
        return self._node_jet(np.asarray(x, dtype=float), order)

    def _node_jet(self, x, order: int) -> Jet:
        return Jet.constant(self.dim, self._value, x.shape[1:]).truncate(order)

    def _line_jet(self, seeds: Sequence[Jet], order: int) -> Jet:
        return Jet.constant(self.dim, self._value,
                            (1,) * len(seeds)).truncate(order)

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

    def _node_jet(self, x, order: int) -> Jet:
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

    def _line_jet(self, seeds: Sequence[Jet], order: int) -> Jet:
        return exprlang.evaluate_jet(self.ast, seeds)

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

    def _node_jet(self, x, order: int) -> Jet:
        return self._apply(self.a._node_jet(x, order),
                           self.b._node_jet(x, order))

    def _line_jet(self, seeds: Sequence[Jet], order: int) -> Jet:
        return self._apply(self.a._line_jet(seeds, order),
                           self.b._line_jet(seeds, order))

    def _apply(self, ja: Jet, jb: Jet) -> Jet:
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
    on its axis line of a tensor grid, or else once per distinct
    coordinate of the batch and gathered to the nodes.
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

    def _node_jet(self, x, order: int) -> Jet:
        out = Jet.constant(self.dim, 1.0, x.shape[1:]).truncate(order)
        for i in self.tapered:
            coords, where = np.unique(x[i], return_inverse=True)
            c = self._axis_coeffs(coords, i, order)
            # gather to the nodes; np.unique's inverse shape has varied
            c = c[:, where.reshape(x[i].shape)]
            out = out * Jet.from_axis(self.dim, i, c, order)
        return out

    def _line_jet(self, seeds: Sequence[Jet], order: int) -> Jet:
        out = Jet.constant(self.dim, 1.0, (1,) * len(seeds)).truncate(order)
        for i in self.tapered:
            c = self._axis_coeffs(seeds[i].value, i, order)
            out = out * Jet.from_axis(self.dim, i, c, order)
        return out

    def __repr__(self):
        return f"CutoffField(inner={self.spec.inner}, outer={self.spec.outer})"

"""Scalar fields on a chart: expression-backed, cutoffs, combinators.

A field maps chart points (shape ``(dim,)`` or ``(dim, m)``) to jets of
order 0 to 3, order 3 by default: a consumer asks for the order it reads
(``jet(x, 1)`` for a value and gradient) and no slot above it is
computed.  A field's value is the value of its order-0 jet
(``ScalarField.value``, which no field overrides), so values and jets
come from one evaluator, and a value that leaves the field's domain
raises the jet's point-naming ``EvalError``.  Truncated jet arithmetic
forms each kept slot from the same terms in the same order as the order-3
arithmetic, so an order-k jet holds the order-3 jet's slots up to k.
(An order-0 composition skips adding the zero products of the nilpotent
part, which shows only on a -0.0 outer value or a non-finite higher
derivative.)  Jet-wise arithmetic on fields is exact through order 3, so
products/sums/quotients of fields with exact jets again have exact jets.

A field is a function of its seed jets: it folds its tree over any
seeds (``exprlang.evaluate_jet`` for expressions, ``compose`` for cutoff
factors), so on the jets of a chart map's components it is the field
composed with the map.  ``ScalarField.jet`` seeds each coordinate
through ``jets.seed_variable`` from its coordinate array: a row of the
points, or, where the caller passes the axis lines of the tensor grid
the points form (an interior quadrature chunk), a line as it is.  Axis
i's line is shaped to broadcast along that axis only, so every subfield
is jetted at the broadcast shape of the axes it reads (``sin(y)`` on the
line of y, ``x^2*cos(y)`` as one product of two lines), and the jet
comes back at that shape.  Every jet operation is elementwise, so either
way each point's jet is bit for bit the jet at that point alone.

Two bounded caches keep repeated work out of a pass: an expression
source is parsed once per dimension, and a cutoff's univariate axis
factor is built once per spec, axis, order and coordinate bits (a
chunk's g and every h share its lines), handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import exprlang
from .jets import MAX_ORDER, Jet, JetDomainError, seed_variable

Lines = Optional[Sequence[np.ndarray]]


class ScalarField:
    """Base: a C^3 scalar field evaluable to jets of order up to 3.

    A subclass jets itself on any seeds (``_jet``); ``jet`` builds the
    coordinate seeds and names the points in a domain error."""

    dim: int

    def jet(self, x, order: int = MAX_ORDER, lines: Lines = None) -> Jet:
        """Jet of the field at the points x through ``order`` (its
        ``.order`` is at most ``order``), at x's batch shape.  With
        ``lines``, the axis lines of the tensor grid whose nodes x lists
        in C order (line i shaped to broadcast along axis i only), it is
        jetted on the lines and comes back at the broadcast shape of the
        axes it reads.  Either way the seeds are ``seed_variable``'s over
        the coordinate arrays, x's rows or the lines as they are.  A domain
        error is an EvalError naming the first point of x, in x's order,
        where the field leaves its domain."""
        x = np.asarray(x, dtype=float)
        coords = x if lines is None else lines
        seeds = [seed_variable(i, coords) for i in range(len(coords))]
        try:
            return self._jet([s.truncate(order) for s in seeds])
        except JetDomainError as exc:
            where = point_of(x, lines, exc.index)
            raise exprlang.EvalError(f"{exc} at point {where}") from exc

    def _jet(self, seeds: Sequence[Jet]) -> Jet:
        """The field composed with the seeds, through their order."""
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


def point_of(x: np.ndarray, lines: Lines, index: Tuple[int, ...]) -> tuple:
    """The point of x at entry ``index`` of a jet's batch: that batch
    broadcasts against x's (or, on lines, against the grid x lists in C
    order), so an axis of size 1 is read at its only entry, the first
    node along it."""
    if x.ndim == 1:
        return tuple(float(v) for v in x)
    grid = x.shape[1:] if lines is None else \
        np.broadcast_shapes(*(line.shape for line in lines))
    node = np.ravel_multi_index((0,) * (len(grid) - len(index)) + index, grid)
    return tuple(float(v) for v in x.reshape(len(x), -1)[:, node])


def require_finite(values, x: np.ndarray, lines: Lines, what: str) -> None:
    """EvalError naming the first point of x (as ``point_of`` reads it)
    where ``what``'s values, at a batch shape that broadcasts against x's,
    are not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        index = np.unravel_index(np.argmax(bad), bad.shape)
        raise exprlang.EvalError(
            f"{what} is not finite at point {point_of(x, lines, index)}")


def _coerce(v, dim) -> "ScalarField":
    if isinstance(v, ScalarField):
        return v
    return ConstField(dim, float(v))


@lru_cache(maxsize=256)
def _parsed(src: str, dim: int):
    """``exprlang.parse``, once per source and dimension: an AST is
    immutable, so the fields of one source share it (a space file's
    ``[test]`` expressions are parsed at load, and every Neumann field
    and density built from them later reads that parse)."""
    return exprlang.parse(src, dim)


class ExprField(ScalarField):
    """Field defined by an expression-language AST (or source text)."""

    def __init__(self, src, dim: int):
        self.dim = dim
        if isinstance(src, str):
            self.ast = _parsed(src, dim)
            self.source = src
        else:
            self.ast = src
            self.source = exprlang.to_source(src)

    def _jet(self, seeds: Sequence[Jet]) -> Jet:
        return exprlang.evaluate_jet(self.ast, seeds)

    def __repr__(self):
        return f"ExprField({self.source!r})"


class ConstField(ExprField):
    """The expression field of one number."""

    def __init__(self, dim: int, value: float):
        super().__init__(exprlang.Num(float(value)), dim)

    def jet(self, x, order: int = MAX_ORDER, lines: Lines = None) -> Jet:
        # the same at every point, so it needs no seeds
        batch = np.shape(x)[1:] if lines is None else (1,) * len(lines)
        return Jet.constant(self.dim, self.ast.value, batch).truncate(order)

    def __repr__(self):
        return f"ConstField({self.ast.value})"


class _BinField(ScalarField):
    def __init__(self, op: str, a: ScalarField, b: ScalarField):
        if a.dim != b.dim:
            raise ValueError("field dimension mismatch")
        self.dim = a.dim
        self.op = op
        self.a = a
        self.b = b

    def _jet(self, seeds: Sequence[Jet]) -> Jet:
        ja, jb = self.a._jet(seeds), self.b._jet(seeds)
        if self.op == "+":
            return ja + jb
        if self.op == "-":
            return ja - jb
        if self.op == "*":
            return ja * jb
        return ja / jb


# -- smooth plateau cutoff ---------------------------------------------


def _bump_h(t, order: int = MAX_ORDER):
    """exp(-1/t) for t > 0, 0 otherwise: value and derivatives 1..order,
    as rows 0..order of a (4, ...) array whose rows above are zero."""
    t = np.asarray(t, dtype=float)
    pos = t > 1e-12
    ts = np.where(pos, t, 1.0)
    out = np.zeros((4,) + t.shape)
    out[0] = h = np.where(pos, np.exp(-1.0 / ts), 0.0)
    if order >= 1:
        out[1] = np.where(pos, h / ts**2, 0.0)
    if order >= 2:
        out[2] = np.where(pos, h * (1.0 - 2.0 * ts) / ts**4, 0.0)
    if order >= 3:
        out[3] = np.where(pos, h * (1.0 - 6.0 * ts + 6.0 * ts**2) / ts**6,
                          0.0)
    return out


def _smoothstep_jets(t, order: int = MAX_ORDER):
    """Taylor coefficients (c0..c3) of s(t)=h(t)/(h(t)+h(1-t)) at t,
    exact through ``order`` and zero above it."""
    t = np.asarray(t, dtype=float)
    ha = _bump_h(np.clip(t, None, 1.0), order)
    hb = _bump_h(1.0 - np.clip(t, 0.0, None), order)
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


@lru_cache(maxsize=64)
def _axis_factor(spec: CutoffSpec, axis: int, order: int,
                 shape: Tuple[int, ...], data: bytes) -> np.ndarray:
    """``CutoffField._axis_coeffs`` at the coordinates of that shape whose
    float bytes are ``data``.  The sweeps of one pass jet the same axis
    lines and sample points again and again (every chunk's g and h, every
    suite's cutoff), so the factors are cached, bounded, by the exact
    bits of their coordinates, and handed out read-only, as
    ``quadrature.gauss_rule``'s rules are."""
    xi = np.frombuffer(data).reshape(shape)
    (ilo, ihi) = spec.inner[axis]
    (olo, ohi) = spec.outer[axis]
    out = np.zeros((4,) + shape)
    out[0] = 1.0
    jet = Jet(1, out, order)
    if ilo > olo:
        scale = 1.0 / (ilo - olo)
        c = _smoothstep_jets((xi - olo) * scale, order)
        c *= (scale ** np.arange(4)).reshape((4,) + (1,) * len(shape))
        jet = jet * Jet(1, c, order)
    if ohi > ihi:
        scale = 1.0 / (ohi - ihi)
        c = _smoothstep_jets((ohi - xi) * scale, order)
        c *= ((-scale) ** np.arange(4)).reshape((4,) + (1,) * len(shape))
        jet = jet * Jet(1, c, order)
    coeffs = jet.coeffs
    coeffs.flags.writeable = False
    return coeffs


class CutoffField(ScalarField):
    """C-infinity plateau bump built from t -> exp(-1/(1-t^2)) edges.

    The field is a product of one univariate factor per tapered axis (an
    axis whose inner and outer bounds differ on some side); untapered
    factors are exactly 1 and are left out.  Each factor is composed
    with its axis's seed: at the points, on the axis line of a grid, or
    on a chart map's component.
    """

    def __init__(self, spec: CutoffSpec):
        self.dim = len(spec.inner)
        self.spec = spec
        self.tapered = tuple(
            i for i, ((ilo, ihi), (olo, ohi))
            in enumerate(zip(spec.inner, spec.outer))
            if ilo > olo or ohi > ihi)

    def _axis_coeffs(self, xi, axis, order: int = MAX_ORDER):
        """(4, ...) univariate Taylor coefficients of the axis factor at
        the coordinates ``xi``, exact through ``order`` and zero above
        it; read-only, built once per spec, axis, order and coordinates
        (``_axis_factor``)."""
        xi = np.asarray(xi, dtype=float)
        return _axis_factor(self.spec, axis, order, xi.shape, xi.tobytes())

    def _jet(self, seeds: Sequence[Jet]) -> Jet:
        order = seeds[0].order
        out = exprlang.evaluate_jet(exprlang.ONE, seeds)
        for i in self.tapered:
            c = self._axis_coeffs(seeds[i].value, i, order)
            out = out * seeds[i].compose(c)
        return out

    def __repr__(self):
        return f"CutoffField(inner={self.spec.inner}, outer={self.spec.outer})"

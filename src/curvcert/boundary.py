"""Boundary geometry from the defining function, and Neumann fields.

The outward unit normal is the level-set normal N = grad(phi)/|grad phi|_g
(phi increases along N since Omega = {phi < 0}); it is extended off the
boundary by the same formula so the shape operator can be differentiated
through jets; ``normal_field_jets`` is its one formula, read off the
batch geometry's phi jet (``NodeGeometry.jphi``, which the frame's
on-boundary check reads too), and
``BoundaryFrame.flux`` that of the Neumann flux g(N, grad u).  The
g-orthonormal tangent frame is built at each node from a basis of
ker dphi, so every boundary node gets one, for any metric and wherever
the node falls.  The second fundamental form is II(X, Y) = g(nabla_X N, Y)
on that frame, so II >= 0 means a convex boundary.

``make_neumann`` builds compactly supported fields with vanishing normal
derivative on {phi = 0} by the exact correction

    u = w - phi * Gamma(phi, w) / Gamma(phi, phi)

applied symbolically (so the corrected field has exact order-3 jets),
optionally localized to a collar around the boundary where
Gamma(phi, phi) > 0, and multiplied by a smooth plateau cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import List, Sequence

import numpy as np

from . import exprlang
from .exprlang import add, differentiate, div, mul, simplify, sub
from .fields import CutoffField, CutoffSpec, ExprField, ScalarField
from .geometry import GRAD_PHI_FLOOR, NodeGeometry, WeightedSpace, jet_sum
from .jets import Jet

ON_BOUNDARY_TOL = 1e-10


class BoundaryError(ValueError):
    """Off-boundary point or degenerate normal direction."""


@dataclass
class BoundaryFrame:
    """Outward g-unit normal, read off its jets, and g-orthonormal tangent
    frame at the nodes of ``geom``; II on first use, like
    ``NodeGeometry``'s jets."""

    normal: np.ndarray      # (n, ...) contravariant: normal_jets' values
    normal_jets: List[Jet]  # order 1, from normal_field_jets
    tangents: np.ndarray    # (n-1, n, ...)
    geom: NodeGeometry

    @property
    def point(self) -> np.ndarray:
        return self.geom.x

    @cached_property
    def II(self) -> np.ndarray:
        return second_fundamental_form(self)

    def flux(self, du: np.ndarray) -> np.ndarray:
        """g(N, grad u) = N^i d_i u from u's first partials ``du`` (n, ...)
        at the frame's points: the one formula for the Neumann flux."""
        return np.einsum("i...,i...->...", self.normal, du)


def boundary_frame(geom: NodeGeometry) -> BoundaryFrame:
    """Normal + tangent frame at the nodes of ``geom``.  The tangents are
    Gram-Schmidt (in g, after N) of a basis of ker dphi, built at each
    node alone: with p the axis of the largest |d_p phi|, the seeds are
    e_j - (d_j phi / d_p phi) e_p for the axes j != p in order.  A seed
    of a node is the chart axis e_j wherever d_j phi = 0."""
    abs_phi = np.abs(geom.jphi.value)
    if np.any(abs_phi > ON_BOUNDARY_TOL):
        raise BoundaryError(
            f"point not on boundary: |phi| = {np.max(abs_phi):.3e} "
            f"> {ON_BOUNDARY_TOL}")
    n = geom.space.dim
    jN = normal_field_jets(geom)
    N = np.stack([j.value for j in jN])
    dphi = geom.jphi.gradient()
    p = np.argmax(np.abs(dphi), axis=0)
    axes = np.arange(n).reshape((n,) + (1,) * p.ndim)
    dphi_p = np.take_along_axis(dphi, p[None], 0)[0]

    def g_dot(u, v):
        return np.einsum("i...,ij...,j...->...", u, geom.metric, v)

    tangents: List[np.ndarray] = []
    for k in range(n - 1):
        j = k + (k >= p)  # the k-th axis other than p
        ratio = np.take_along_axis(dphi, j[None], 0)[0] / dphi_p
        v = (axes == j) - ratio * (axes == p)
        v = v - g_dot(v, N) * N
        for t in tangents:
            v = v - g_dot(v, t) * t
        tangents.append(v / np.sqrt(g_dot(v, v)))
    return BoundaryFrame(normal=N, normal_jets=jN,
                         tangents=np.stack(tangents), geom=geom)


def normal_field_jets(geom: NodeGeometry) -> List[Jet]:
    """Order-1 jets of the contravariant components of grad(phi)/|grad phi|_g
    at the nodes: the II reads their values and gradients, the flux and the
    frame their values.  BoundaryError where |grad phi|_g < GRAD_PHI_FLOOR."""
    n = geom.space.dim
    dphi = [geom.jphi.partial(i) for i in range(n)]
    up = [jet_sum(zip(geom.jginv1[k], dphi)) for k in range(n)]
    norm2 = jet_sum(zip(dphi, up))
    if np.any(norm2.value < GRAD_PHI_FLOOR**2):
        raise BoundaryError(
            f"degenerate defining-function gradient: |grad phi|_g = "
            f"{np.sqrt(np.min(norm2.value)):.3e} < {GRAD_PHI_FLOOR}")
    inv_norm = norm2 ** -0.5
    return [jet_sum([(u, inv_norm)]) for u in up]


def second_fundamental_form(bframe: BoundaryFrame) -> np.ndarray:
    """II_ab = g(nabla_{e_a} N, e_b) on the orthonormal tangent frame,
    from the frame's normal-field jets."""
    gam = bframe.geom.christoffels
    dN = np.stack([j.gradient() for j in bframe.normal_jets])  # [k, i]
    # covariant derivative of the normal field: d_i N^k + G^k_ij N^j
    covdN = dN + np.einsum("kij...,j...->ki...", gam, bframe.normal)
    II = np.einsum("ai...,ki...,kl...,bl...->ab...", bframe.tangents, covdN,
                   bframe.geom.metric, bframe.tangents)
    return 0.5 * (II + np.swapaxes(II, 0, 1))


def mean_curvature(bframe: BoundaryFrame) -> np.ndarray:
    """Trace of the frame's II over its orthonormal tangent frame."""
    return np.einsum("aa...->...", bframe.II)


# -- Neumann test-function factory -------------------------------------


@dataclass
class NeumannTestFunction:
    """Compactly supported field with g(N, grad) = 0 on {phi = 0}."""

    base: ScalarField          # the raw ingredient w
    field: ScalarField         # cutoff * (w - collar * phi * q)
    # (space, boundary counts) pairs whose sample frames this field passed
    # the Neumann gate on, so that ``verify.decomposition_batch`` gates
    # each once; a failed gate is never recorded
    _gated: list = dataclass_field(default_factory=list, init=False,
                                   repr=False, compare=False)


def _symbolic_adjugate(metric_asts):
    """Adjugate of the metric AST matrix (cofactor transpose), at least
    2 x 2: ``WeightedSpace`` refuses a chart dimension below 2."""
    n = len(metric_asts)

    def det(rows, cols):
        if len(rows) == 1:
            return metric_asts[rows[0]][cols[0]]
        acc = exprlang.ZERO
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = mul(metric_asts[r][c], minor)
            acc = add(acc, term) if pos % 2 == 0 else sub(acc, term)
        return simplify(acc)

    all_idx = tuple(range(n))
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = tuple(r for r in all_idx if r != i)
            cols = tuple(c for c in all_idx if c != j)
            minor = det(rows, cols)
            sign = 1 if (i + j) % 2 == 0 else -1
            adj[j][i] = minor if sign > 0 else simplify(exprlang.Neg(minor))
    return adj


def _require_expr(field: ScalarField, what: str):
    if isinstance(field, ExprField):  # a ConstField too
        return field.ast
    raise TypeError(
        f"make_neumann needs an expression-backed {what}, "
        f"got {type(field).__name__}")


def make_neumann(space: WeightedSpace, w: ScalarField, cutoff: CutoffSpec,
                 collars: Sequence[CutoffSpec] = ()) -> NeumannTestFunction:
    """Exact-correction Neumann field chi * (w - collar * phi * q).

    ``q = Gamma(phi, w)/Gamma(phi, phi)`` is built symbolically (the
    metric determinant cancels, so only the adjugate enters).  When
    grad(phi) vanishes somewhere inside the chart, pass ``collars``
    (plateau specs equal to 1 near the boundary) so the correction term
    is localized away from the degenerate set.
    """
    n = space.dim
    w_ast = _require_expr(w, "base field w")
    phi_ast = _require_expr(space.defining_fn, "defining function")
    metric_asts = [[_require_expr(space.metric[i][j], f"metric g{i}{j}")
                    for j in range(n)] for i in range(n)]
    for lo_hi, box in zip(cutoff.outer, space.chart_box):
        if lo_hi[0] < box[0] - 1e-12 or lo_hi[1] > box[1] + 1e-12:
            raise ValueError(
                f"cutoff support box {lo_hi} exceeds chart_box {tuple(box)}")
    adj = _symbolic_adjugate(metric_asts)
    dphi = [differentiate(phi_ast, i) for i in range(n)]
    dw = [differentiate(w_ast, i) for i in range(n)]
    num = exprlang.ZERO
    den = exprlang.ZERO
    for i in range(n):
        for j in range(n):
            num = add(num, mul(adj[i][j], mul(dphi[i], dw[j])))
            den = add(den, mul(adj[i][j], mul(dphi[i], dphi[j])))
    correction_ast = simplify(mul(phi_ast, div(num, den)))
    correction: ScalarField = ExprField(correction_ast, n)
    if collars:
        collar_sum: ScalarField = CutoffField(collars[0])
        for spec in collars[1:]:
            collar_sum = collar_sum + CutoffField(spec)
        correction = collar_sum * correction
    field = CutoffField(cutoff) * (w - correction)
    return NeumannTestFunction(base=w, field=field)


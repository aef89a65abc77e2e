"""Boundary geometry from the defining function, and Neumann fields.

The outward unit normal is the level-set normal N = grad(phi)/|grad phi|_g
(phi increases along N since Omega = {phi < 0}); it is extended off the
boundary by the same formula so the shape operator can be differentiated
through jets.  The second fundamental form is II(X, Y) = g(nabla_X N, Y)
on the g-orthonormal tangent frame, so II >= 0 means a convex boundary.

``make_neumann`` builds compactly supported fields with vanishing normal
derivative on {phi = 0} by the exact correction

    u = w - phi * Gamma(phi, w) / Gamma(phi, phi)

applied symbolically (so the corrected field has exact order-3 jets),
optionally localized to a collar around the boundary where
Gamma(phi, phi) > 0, and multiplied by a smooth plateau cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from . import exprlang
from .exprlang import add, differentiate, div, mul, simplify, sub
from .fields import ConstField, CutoffField, CutoffSpec, ExprField, ScalarField
from .geometry import GRAD_PHI_FLOOR, NodeGeometry, WeightedSpace, as_points
from .jets import Jet

ON_BOUNDARY_TOL = 1e-10


class BoundaryError(ValueError):
    """Off-boundary point or degenerate normal direction."""


@dataclass
class BoundaryFrame:
    """Outward g-unit normal and g-orthonormal tangent frame at x; the
    normal-field jets and II on first use, like ``NodeGeometry``'s jets."""

    point: np.ndarray
    normal: np.ndarray    # (n, ...) contravariant components
    tangents: np.ndarray  # (n-1, n, ...)
    geom: NodeGeometry

    @cached_property
    def normal_jets(self) -> List[Jet]:
        return normal_field_jets(self.geom.space, self.point, self.geom)

    @cached_property
    def II(self) -> np.ndarray:
        return second_fundamental_form(self.geom.space, self.point, self)


def _check_on_boundary(space: WeightedSpace, x):
    phi = np.asarray(space.defining_fn.value(x))
    if np.any(np.abs(phi) > ON_BOUNDARY_TOL):
        raise BoundaryError(
            f"point not on boundary: |phi| = {np.max(np.abs(phi)):.3e} "
            f"> {ON_BOUNDARY_TOL}")


def boundary_frame(space: WeightedSpace, x,
                   axis_order: Optional[Sequence[int]] = None,
                   geom: Optional[NodeGeometry] = None) -> BoundaryFrame:
    """Normal + tangent frame; Gram-Schmidt seeded by chart axes in order."""
    x = as_points(space, x)
    _check_on_boundary(space, x)
    n = space.dim
    geom = geom or NodeGeometry(space, x)
    frame = geom.frame
    dphi = space.defining_fn.jet(x, 1).gradient()
    gphi = np.einsum("ij...,j...->i...", frame.inverse, dphi)
    norm2 = np.einsum("i...,i...->...", dphi, gphi)
    if np.any(norm2 < GRAD_PHI_FLOOR**2):
        raise BoundaryError(
            f"degenerate defining-function gradient: |grad phi|_g = "
            f"{np.sqrt(np.min(norm2)):.3e} < {GRAD_PHI_FLOOR}")
    N = gphi / np.sqrt(norm2)

    def g_dot(u, v):
        return np.einsum("i...,ij...,j...->...", u, frame.metric, v)

    tangents: List[np.ndarray] = []
    order = list(axis_order) if axis_order is not None else list(range(n))
    for axis in order:
        v = np.zeros_like(N)
        v[axis] = 1.0
        v = v - g_dot(v, N) * N
        for t in tangents:
            v = v - g_dot(v, t) * t
        vnorm2 = g_dot(v, v)
        if np.all(vnorm2 < 1e-10):
            continue
        if np.any(vnorm2 < 1e-10):
            raise BoundaryError(
                "tangent frame degenerates on part of the point batch")
        tangents.append(v / np.sqrt(vnorm2))
        if len(tangents) == n - 1:
            break
    if len(tangents) != n - 1:
        raise BoundaryError("could not build a full tangent frame")
    return BoundaryFrame(point=x, normal=N, tangents=np.stack(tangents),
                         geom=geom)


def normal_field_jets(space: WeightedSpace, x,
                      geom: Optional[NodeGeometry] = None) -> List[Jet]:
    """Order-1 jets of the contravariant components of grad(phi)/|grad phi|_g:
    the II reads their values and gradients, the flux their values."""
    n = space.dim
    jginv = (geom or NodeGeometry(space, x)).jginv
    jphi = space.defining_fn.jet(x, 2)
    dphi = [jphi.partial(i) for i in range(n)]
    up = []
    for k in range(n):
        acc = None
        for j in range(n):
            t = jginv[k][j] * dphi[j]
            acc = t if acc is None else acc + t
        up.append(acc)
    norm2 = None
    for i in range(n):
        t = dphi[i] * up[i]
        norm2 = t if norm2 is None else norm2 + t
    inv_norm = norm2 ** -0.5
    return [u * inv_norm for u in up]


def second_fundamental_form(space: WeightedSpace, x,
                            bframe: Optional[BoundaryFrame] = None
                            ) -> np.ndarray:
    """II_ab = g(nabla_{e_a} N, e_b) on the orthonormal tangent frame,
    from the frame's normal-field jets."""
    bframe = bframe or boundary_frame(space, x)
    frame = bframe.geom.frame
    Nval = np.stack([j.value for j in bframe.normal_jets])
    dN = np.stack([j.gradient() for j in bframe.normal_jets])  # [k, i]
    # covariant derivative of the normal field: d_i N^k + G^k_ij N^j
    covdN = dN + np.einsum("kij...,j...->ki...", frame.christoffels, Nval)
    II = np.einsum("ai...,ki...,kl...,bl...->ab...", bframe.tangents, covdN,
                   frame.metric, bframe.tangents)
    return 0.5 * (II + np.swapaxes(II, 0, 1))


def mean_curvature(space: WeightedSpace, x,
                   bframe: Optional[BoundaryFrame] = None) -> np.ndarray:
    """Trace of II over the orthonormal tangent frame."""
    II = second_fundamental_form(space, x, bframe)
    return np.einsum("aa...->...", II)


# -- Neumann test-function factory -------------------------------------


@dataclass
class NeumannTestFunction:
    """Compactly supported field with g(N, grad) = 0 on {phi = 0}."""

    base: ScalarField          # the raw ingredient w
    field: ScalarField         # cutoff * (w - collar * phi * q)
    cutoff: CutoffSpec
    collars: tuple = ()
    label: str = ""

    @property
    def dim(self) -> int:
        return self.field.dim


def _symbolic_adjugate(metric_asts):
    """Adjugate of the metric AST matrix (cofactor transpose)."""
    n = len(metric_asts)
    if n == 1:
        return [[exprlang.ONE]]

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
    if isinstance(field, ExprField):
        return field.ast
    if isinstance(field, ConstField):
        return simplify(exprlang.Num(field.value(np.zeros((field.dim, 1)))[0]))
    raise TypeError(
        f"make_neumann needs an expression-backed {what}, "
        f"got {type(field).__name__}")


def make_neumann(space: WeightedSpace, w: ScalarField, cutoff: CutoffSpec,
                 collars: Sequence[CutoffSpec] = (), label: str = ""
                 ) -> NeumannTestFunction:
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
    return NeumannTestFunction(base=w, field=field, cutoff=cutoff,
                               collars=tuple(collars), label=label)


def neumann_residual(space: WeightedSpace, field: ScalarField, x,
                     bframe: Optional[BoundaryFrame] = None) -> np.ndarray:
    """g(N, grad field) at boundary point(s) x; the theorem's gate."""
    x = as_points(space, x)
    if bframe is None:
        bframe = boundary_frame(space, x)
    df = field.jet(x, 1).gradient()
    return np.einsum("i...,i...->...", bframe.normal, df)

"""Intrinsic weighted-manifold calculus, pointwise from jet evaluations.

Every operation accepts a single chart point (shape ``(n,)``) or a batch
(shape ``(n, m)``); outputs carry the batch axes last.  Curvature
conventions (the single normative statement for the whole package):

* Christoffel symbols ``G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``
* Ricci tensor ``R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik``
  (the round sphere has positive Ricci)
* Hessian ``(Hess f)_ij = d_i d_j f - G^k_ij d_k f``
* carre du champ ``Gamma(f,h) = g^{ij} d_i f d_j h``
* weighted Laplacian ``L f = g^{ij} (Hess f)_ij - Gamma(V, f)``
* iterated operator ``Gamma2(f) = 1/2 L Gamma(f,f) - Gamma(f, L f)``,
  computed by running the operator arithmetic over jets of one order
  lower, never by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import ScalarField, distinct
from .jets import Jet, take_batch

SPD_FLOOR = 1e-10
GRAD_PHI_FLOOR = 1e-8


class GeometryError(ValueError):
    """Degenerate metric / invalid frame input."""


@dataclass
class WeightedSpace:
    """A chart of a weighted Riemannian manifold with boundary.

    ``metric[i][j]`` are scalar fields (symmetric: only i <= j need be
    distinct objects), ``weight`` is V in the reference measure
    ``exp(-V) dVol_g`` and ``defining_fn`` is phi with Omega = {phi < 0}.
    """

    dim: int
    metric: Sequence[Sequence[ScalarField]]
    weight: ScalarField
    defining_fn: ScalarField
    chart_box: Sequence[Tuple[float, float]]
    boundary_patches: Sequence = field(default_factory=tuple)
    label: str = ""

    def __post_init__(self):
        if not 2 <= self.dim <= 4:
            raise GeometryError(f"chart dimension must be 2..4, got {self.dim}")
        if len(self.chart_box) != self.dim:
            raise GeometryError("chart_box length must equal dim")

    @property
    def reads(self) -> Tuple[int, ...]:
        """The chart axes the metric entries and the weight read."""
        axes = set(self.weight.reads)
        for i in range(self.dim):
            for j in range(i, self.dim):
                axes.update(self.metric[i][j].reads)
        return tuple(sorted(axes))

    def metric_jets(self, x) -> List[List[Jet]]:
        """Order-2 jets of the metric entries at x, the highest order any
        consumer reads (Gamma(f,f) needs the inverse to order 2); the
        (j, i) entry is the (i, j) jet."""
        n = self.dim
        jg: List[List[Optional[Jet]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                jg[i][j] = jg[j][i] = self.metric[i][j].jet(x, 2)
        return jg  # type: ignore[return-value]


def as_points(space: WeightedSpace, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != space.dim:
        raise GeometryError(
            f"point has {x.shape[0]} coordinates, chart dim is {space.dim}")
    return x


def _to_mat(a: np.ndarray) -> np.ndarray:
    """(n, n, ...) -> (..., n, n) for numpy.linalg."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def _from_mat(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, (-2, -1), (0, 1))


def jet_matrix_inverse(a: List[List[Jet]]) -> List[List[Jet]]:
    """Inverse of a jet-valued SPD matrix by Gauss-Jordan elimination."""
    n = len(a)
    dim = a[0][0].dim
    batch = a[0][0].batch_shape
    m = [list(row) for row in a]
    inv = [[Jet.constant(dim, 1.0 if i == j else 0.0, batch)
            for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = m[col][col].reciprocal()
        m[col] = [e * piv for e in m[col]]
        inv[col] = [e * piv for e in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            m[r] = [m[r][c] - f * m[col][c] for c in range(n)]
            inv[r] = [inv[r][c] - f * inv[col][c] for c in range(n)]
    return inv


@dataclass
class PointFrame:
    """Cached per-point metric data consumed by every operator."""

    metric: np.ndarray        # (n, n, ...)
    inverse: np.ndarray       # (n, n, ...)
    sqrt_det: np.ndarray
    christoffels: np.ndarray  # (n, n, n, ...) indexed [k, i, j]


def frame_at(space: WeightedSpace, x, jg: Optional[List[List[Jet]]] = None
             ) -> PointFrame:
    """Metric matrix, inverse, volume density and Christoffels at x."""
    x = as_points(space, x)
    n = space.dim
    if jg is None:
        jg = space.metric_jets(x)
    batch = jg[0][0].batch_shape
    G = np.zeros((n, n) + batch)
    dg = np.zeros((n, n, n) + batch)
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = jg[i][j].value
            dg[i, j] = dg[j, i] = jg[i][j].gradient()
    Gm = _to_mat(G)
    eig = np.linalg.eigvalsh(Gm)
    min_eig = eig[..., 0]
    if np.any(min_eig <= SPD_FLOOR):
        bad = np.argmin(min_eig)
        pt = x if x.ndim == 1 else x[:, np.unravel_index(bad, min_eig.shape)]
        raise GeometryError(
            f"metric not positive definite: min eigenvalue "
            f"{np.min(min_eig):.3e} at point {np.asarray(pt).ravel()}")
    Ginv = _from_mat(np.linalg.inv(Gm))
    sqrt_det = np.sqrt(np.linalg.det(Gm))
    gamma = np.zeros((n, n, n) + batch)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = 0.0
                for l in range(n):
                    acc = acc + Ginv[k, l] * (dg[j, l, i] + dg[i, l, j]
                                              - dg[i, j, l])
                gamma[k, i, j] = gamma[k, j, i] = 0.5 * acc
    return PointFrame(metric=G, inverse=Ginv, sqrt_det=sqrt_det,
                      christoffels=gamma)


def christoffel_jets(space: WeightedSpace, x, jg: List[List[Jet]],
                     jginv: List[List[Jet]]) -> List[List[List[Jet]]]:
    """Christoffel symbols as order-1 jets (Ricci reads their values and
    gradients, Gamma2 their values), from the order-2 metric jets and
    their inverse at x.  Each symbol is computed for j >= i only: the
    (k, j, i) entry is the (k, i, j) jet, which it equals bit for bit."""
    n = space.dim
    djg: List[List[Optional[List[Jet]]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            djg[i][j] = djg[j][i] = [jg[i][j].partial(l) for l in range(n)]
    out: List[List[List[Optional[Jet]]]] = [[[None] * n for _ in range(n)]
                                            for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = None
                for l in range(n):
                    t = jginv[k][l] * (djg[j][l][i] + djg[i][l][j]
                                       - djg[i][j][l])
                    acc = t if acc is None else acc + t
                out[k][i][j] = out[k][j][i] = 0.5 * acc
    return out  # type: ignore[return-value]


class NodeGeometry:
    """Metric and weight data of one node batch, computed once: the
    ``PointFrame`` up front; the metric, inverse, Christoffel and weight
    jets on first use (the metric jets up front when the frame is computed
    here, since it reads them); Ricci_V on each read.  The operators below
    take it as ``geom``.

    Each jet is built to the highest order a consumer reads: ``jg``,
    ``jginv`` and ``jV`` at order 2 (Gamma(f,f) and Hess V read second
    derivatives), ``jgam`` at order 1 (Ricci reads first derivatives).

    The data are computed once per distinct point of the axes the space's
    metric and weight read (``WeightedSpace.reads``), on a plain
    ``NodeGeometry`` of those points, and gathered to the nodes: on a
    tensor-product grid of a chart whose geometry ignores an axis, that
    axis costs nothing.  Every per-node operation is elementwise, so the
    gathered data equal the direct ones bit for bit; the gather keeps the
    symmetric aliasing (``jgam[k][i][j] is jgam[k][j][i]``), each jet's
    order and degree, and broadcast constant storage."""

    def __init__(self, space: WeightedSpace, x):
        self.space = space
        self.x = as_points(space, x)
        proj = distinct(self.x, space.reads)
        if proj is None:
            self._base = self._where = None
            self.frame = frame_at(space, self.x, self.jg)
        else:
            first, self._where = proj
            # its points are distinct on the axes read, so it computes
            # directly
            self._base = NodeGeometry(
                space, self.x.reshape(space.dim, -1)[:, first])
            frame, where = self._base.frame, self._where
            self.frame = PointFrame(
                metric=take_batch(frame.metric, where),
                inverse=take_batch(frame.inverse, where),
                sqrt_det=take_batch(frame.sqrt_det, where),
                christoffels=take_batch(frame.christoffels, where))

    def _shared(self, name: str, build):
        """``build()`` here, or the distinct-point geometry's ``name``
        gathered to the nodes, one gathered jet per jet object."""
        if self._base is None:
            return build()
        where, memo = self._where, {}

        def gather(item):
            if isinstance(item, list):
                return [gather(e) for e in item]
            if isinstance(item, Jet):
                if id(item) not in memo:
                    memo[id(item)] = item.gather(where)
                return memo[id(item)]
            return take_batch(item, where)

        return gather(getattr(self._base, name))

    @cached_property
    def jg(self) -> List[List[Jet]]:
        return self._shared("jg", lambda: self.space.metric_jets(self.x))

    @cached_property
    def jginv(self) -> List[List[Jet]]:
        return self._shared("jginv", lambda: jet_matrix_inverse(self.jg))

    @cached_property
    def jgam(self) -> List[List[List[Jet]]]:
        return self._shared("jgam", lambda: christoffel_jets(
            self.space, self.x, self.jg, self.jginv))

    @cached_property
    def jV(self) -> Jet:
        return self._shared("jV", lambda: self.space.weight.jet(self.x, 2))

    @property
    def ricci_v(self) -> np.ndarray:
        """Ricci_V = Ricci + Hess V at the nodes; each consumer reads it
        once, so it is not kept."""
        return self._shared("ricci_v", lambda: ricci(
            self.space, self.x, self) + hessian(self.space, self.jV,
                                                 self.x, self))


FieldOrJet = Union[ScalarField, Jet]


def _jet(f: FieldOrJet, x) -> Jet:
    """The jet of f at x; f is a field or already that jet."""
    return f if isinstance(f, Jet) else f.jet(x)


def ricci(space: WeightedSpace, x,
          geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """Ricci tensor components R_ij at x, symmetrized."""
    x = as_points(space, x)
    n = space.dim
    jgam = (geom or NodeGeometry(space, x)).jgam
    batch = jgam[0][0][0].batch_shape
    gam = np.zeros((n, n, n) + batch)
    dgam = np.zeros((n, n, n, n) + batch)  # [k, i, j, l] = d_l G^k_ij
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gam[k, i, j] = jgam[k][i][j].value
                dgam[k, i, j] = jgam[k][i][j].gradient()
    R = np.zeros((n, n) + batch)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = acc + dgam[k, i, j, k] - dgam[k, i, k, j]
                for l in range(n):
                    acc = acc + gam[k, k, l] * gam[l, i, j] \
                        - gam[k, j, l] * gam[l, i, k]
            R[i, j] = acc
    return 0.5 * (R + np.swapaxes(R, 0, 1))


def hessian(space: WeightedSpace, f: FieldOrJet, x,
            geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """Covariant Hessian components (Hess f)_ij at x."""
    x = as_points(space, x)
    frame = (geom or NodeGeometry(space, x)).frame
    jf = _jet(f, x)
    n = space.dim
    df = [jf.partial(i) for i in range(n)]
    H = np.zeros((n, n) + jf.batch_shape)
    for i in range(n):
        for j in range(i, n):
            v = df[i].partial(j).value
            for k in range(n):
                v = v - frame.christoffels[k, i, j] * df[k].value
            H[i, j] = H[j, i] = v
    return H


def grad(space: WeightedSpace, f: FieldOrJet, x,
         geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """Contravariant gradient components of f at x."""
    x = as_points(space, x)
    frame = (geom or NodeGeometry(space, x)).frame
    jf = _jet(f, x)
    df = jf.gradient()
    return np.einsum("ij...,j...->i...", frame.inverse, df)


def gamma1(space: WeightedSpace, f: FieldOrJet, h: FieldOrJet, x,
           geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """Carre du champ Gamma(f,h) = g^{ij} d_i f d_j h at x."""
    x = as_points(space, x)
    frame = (geom or NodeGeometry(space, x)).frame
    jf = _jet(f, x)
    jh = jf if h is f else _jet(h, x)
    df = jf.gradient()
    dh = df if jh is jf else jh.gradient()
    return np.einsum("ij...,i...,j...->...", frame.inverse, df, dh)


def witten_laplacian(space: WeightedSpace, f: FieldOrJet, x,
                     geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """L f = trace_g Hess f - Gamma(V, f) at x."""
    x = as_points(space, x)
    geom = geom or NodeGeometry(space, x)
    jf = _jet(f, x)
    return laplacian_of_hessian(space, jf, hessian(space, jf, x, geom), geom)


def laplacian_of_hessian(space: WeightedSpace, jf: Jet, H: np.ndarray,
                         geom: NodeGeometry) -> np.ndarray:
    """L f at the nodes of ``geom`` from the jet of f and its Hessian
    there, for a caller that reads Hess f itself too."""
    lap = np.einsum("ij...,ij...->...", geom.frame.inverse, H)
    return lap - gamma1(space, geom.jV, jf, geom.x, geom)


def hs_norm_sq(space: WeightedSpace, H: np.ndarray, x,
               frame: Optional[PointFrame] = None) -> np.ndarray:
    """Squared Hilbert-Schmidt norm g^{ik} g^{jl} H_ij H_kl."""
    if frame is None:
        frame = frame_at(space, as_points(space, x))
    return np.einsum("ik...,jl...,ij...,kl...->...",
                     frame.inverse, frame.inverse, H, H)


def bakry_emery_ricci(space: WeightedSpace, x,
                      geom: Optional[NodeGeometry] = None) -> np.ndarray:
    """Ricci_V = Ricci + Hess V at x."""
    return (geom or NodeGeometry(space, x)).ricci_v


@dataclass
class Gamma2Parts:
    """Jet-assembled intermediates of Gamma2 reused by the checkers."""

    f_jet: Jet                    # order 3
    gamma_ff_jet: Jet             # order 2: Gamma(f,f) as a field
    lf_jet: Jet                   # order 1: L f as a field
    gamma2: np.ndarray


def carre_du_champ_jet(geom: NodeGeometry, df: Sequence[Jet]) -> Jet:
    """Gamma(f,f) = g^{ij} d_i f d_j f as a jet, from the jets of the
    first partials of f; its order is theirs, at most 2."""
    n = len(df)
    jginv = geom.jginv
    gamma_ff = None
    for i in range(n):
        for j in range(n):
            t = jginv[i][j] * df[i] * df[j]
            gamma_ff = t if gamma_ff is None else gamma_ff + t
    return gamma_ff


def gamma2_parts(space: WeightedSpace, f: FieldOrJet, x,
                 geom: Optional[NodeGeometry] = None) -> Gamma2Parts:
    """Gamma2(f) via operator composition over jets of one order lower."""
    x = as_points(space, x)
    n = space.dim
    geom = geom or NodeGeometry(space, x)
    jginv, jgam, frame, jV = geom.jginv, geom.jgam, geom.frame, geom.jV
    jf = _jet(f, x)
    df = [jf.partial(i) for i in range(n)]
    dV = [jV.partial(i) for i in range(n)]
    gamma_ff = carre_du_champ_jet(geom, df)

    lf = None
    for i in range(n):
        for j in range(n):
            hij = df[i].partial(j)
            for k in range(n):
                hij = hij - jgam[k][i][j] * df[k]
            t = jginv[i][j] * (hij - dV[i] * df[j])
            lf = t if lf is None else lf + t

    half_l_gamma = 0.5 * _pointwise_witten(space, gamma_ff, jV, frame)
    dlf = lf.gradient()
    dfv = np.stack([d.value for d in df])
    gamma_f_lf = np.einsum("ij...,i...,j...->...", frame.inverse, dfv, dlf)
    return Gamma2Parts(f_jet=jf, gamma_ff_jet=gamma_ff,
                       lf_jet=lf, gamma2=half_l_gamma - gamma_f_lf)


def _pointwise_witten(space: WeightedSpace, ju: Jet, jV: Jet,
                      frame: PointFrame) -> np.ndarray:
    """L u at one point from the (order >= 2) jet of u."""
    n = space.dim
    du = [ju.partial(i) for i in range(n)]
    acc = 0.0
    for i in range(n):
        for j in range(n):
            hij = du[i].partial(j).value
            for k in range(n):
                hij = hij - frame.christoffels[k, i, j] * du[k].value
            acc = acc + frame.inverse[i, j] * (
                hij - jV.partial(i).value * du[j].value)
    return acc


def gamma2(space: WeightedSpace, f: ScalarField, x) -> np.ndarray:
    return gamma2_parts(space, f, x).gamma2

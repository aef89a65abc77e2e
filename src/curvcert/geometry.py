"""Intrinsic weighted-manifold calculus, pointwise from jet evaluations.

Every operator takes the ``NodeGeometry`` built once at a single chart
point (shape ``(n,)``) or a batch (shape ``(n, m)``); outputs carry the
batch axes last.  Curvature conventions (the single normative statement
for the whole package):

* Christoffel symbols ``G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``
* Ricci tensor ``R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik``
  (the round sphere has positive Ricci)
* Hessian ``(Hess f)_ij = d_i d_j f - G^k_ij d_k f``
* carre du champ ``Gamma(f,h) = g^{ij} d_i f d_j h``
* weighted Laplacian ``L f = g^{ij} (Hess f)_ij - Gamma(V, f)``
* iterated operator ``Gamma2(f) = 1/2 L Gamma(f,f) - Gamma(f, L f)``,
  computed by running the operator arithmetic over jets of one order
  lower, never by finite differences.

The metric of a batch is checked once, in ``frame_at``: a non-finite
entry is an error naming it and its first node; positive definiteness
(least eigenvalue above ``SPD_FLOOR``) is proven by Gershgorin's row
bound, min_i (G_ii - sum_{j != i} |G_ij|) <= lambda_min, with
``SPD_MARGIN`` times the largest |G_ij| to spare, which is far above
both the bound's rounding and eigvalsh's backward error; only a batch it
cannot prove is probed with eigvalsh, whose least eigenvalue decides;
an error names the first node where it is least, as ``fields.point_of``
names a node in every other error.

The tensor-index loops form their sums with ``jet_sum``, which skips
every term with a zero-jet factor (a structural zero, such as an
off-diagonal entry of a diagonal metric): the term costs no product, and
each component keeps the batch shape of what it reads instead of being
broadcast to that of its zero terms.

Each quantity has one formula: g^{ij} is read off ``jet_matrix_inverse``
(``NodeGeometry.inverse`` holds its values), the Christoffel values are
those of ``christoffel_jets``, Hess f is formed by ``hessian_jets`` from
the jets of f's first partials (``hessian``, and so
``bakry_emery_ricci``'s Hess V, reads it alone), L f by
``laplacian_jet`` on top of it (``witten_laplacian`` and
``gamma2_parts`` read both), and Gamma2 reads L Gamma(f,f) from
``witten_laplacian``.

Each jet is formed only to the order read.  g^{ij}'s jets are inverted
at order 1, all that the values, the Christoffels, L f, the normal and
Gamma(f,f) from order-1 partials read, by one inversion of the metric
jets truncated to order 1; only Gamma(f,f) from order-2 partials, in
Gamma2, reads them at order 2, from a second inversion of its own.
Hess f truncates its factors to the order of its entries, so Hess V's
values take order-0 products.  Truncated jet arithmetic forms each kept
slot from the same terms in the same order, so every value is the same
bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import Lines, ScalarField, point_of, require_finite
from .jets import Jet

SPD_FLOOR = 1e-10
# Gershgorin's SPD proof must clear the floor by this share of the
# largest metric entry, far above its own rounding and eigvalsh's.
SPD_MARGIN = 1e-12
GRAD_PHI_FLOOR = 1e-8


class GeometryError(ValueError):
    """Degenerate metric / invalid frame input."""


@dataclass
class WeightedSpace:
    """A chart of a weighted Riemannian manifold with boundary.

    ``metric[i][j]`` are scalar fields (symmetric: only i <= j need be
    separate objects), ``weight`` is V in the reference measure
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

    def metric_jets(self, x, lines: Lines = None) -> List[List[Jet]]:
        """Order-2 jets of the metric entries at x (on its grid ``lines``
        if given, see ``ScalarField.jet``), the highest order any consumer
        reads (Gamma(f,f) needs the inverse to order 2); the (j, i) entry
        is the (i, j) jet."""
        n = self.dim
        jg: List[List[Optional[Jet]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                jg[i][j] = jg[j][i] = self.metric[i][j].jet(x, 2, lines)
        return jg  # type: ignore[return-value]


def jet_sum(plus: Iterable[Sequence[Jet]],
            minus: Iterable[Sequence[Jet]] = ()) -> Jet:
    """The sum of the products of the factor tuples in ``plus`` less those
    in ``minus``, formed left to right: ``((p0 + p1) ... - m0) - m1``.
    A term with a zero-jet factor is left out, product and all: it is
    exactly zero, and adding it would only broadcast the sum to its batch.
    With every term left out, the sum is the zero jet at the least order
    and the broadcast batch of all the factors, as the full sum is; only
    their shapes are kept meanwhile, not the jets."""
    acc, skipped = None, []
    for sign, terms in ((1, plus), (-1, minus)):
        for factors in terms:
            if any(f.is_zero for f in factors):
                skipped += [(f.dim, f.order, f.batch_shape) for f in factors]
                continue
            t = factors[0]
            for f in factors[1:]:
                t = t * f
            if sign < 0:
                t = -t
            acc = t if acc is None else acc + t
    if acc is None:
        dims, orders, batches = zip(*skipped)
        return Jet.constant(dims[0], 0.0, np.broadcast_shapes(*batches)
                            ).truncate(min(orders))
    return acc


def jet_matrix_inverse(a: List[List[Jet]]) -> List[List[Jet]]:
    """Inverse of a jet-valued SPD matrix by Gauss-Jordan elimination; a
    row update whose factor is the zero jet is skipped.  Once column
    ``col`` is eliminated no step reads an entry of a in it or before it
    (they would be 1 and 0), so only the entries of the later columns are
    formed."""
    n = len(a)
    dim = a[0][0].dim
    batch = a[0][0].batch_shape
    m = [list(row) for row in a]
    inv = [[Jet.constant(dim, 1.0 if i == j else 0.0, batch)
            for j in range(n)] for i in range(n)]
    for col in range(n):
        later = range(col + 1, n)
        piv = m[col][col].reciprocal()
        for c in later:
            m[col][c] = jet_sum([(m[col][c], piv)])
        inv[col] = [jet_sum([(e, piv)]) for e in inv[col]]
        for r in range(n):
            f = m[r][col]
            if r == col or f.is_zero:
                continue
            for c in later:
                m[r][c] = jet_sum([(m[r][c],)], [(f, m[col][c])])
            inv[r] = [jet_sum([(inv[r][c],)], [(f, inv[col][c])])
                      for c in range(n)]
    return inv


def _spd_by_rows(G: np.ndarray) -> bool:
    """Whether Gershgorin's row bound proves every node's metric (G at
    (n, n) + batch) positive definite above ``SPD_FLOOR``, with
    ``SPD_MARGIN`` of its largest entry to spare; False at a NaN."""
    diag = np.einsum("ii...->i...", G)
    absG = np.abs(G)
    lower = diag - (absG.sum(axis=1) - np.abs(diag))
    return bool(np.all(lower > SPD_FLOOR + SPD_MARGIN * absG.max(axis=(0, 1))))


def frame_at(space: WeightedSpace, x: np.ndarray, jg: List[List[Jet]],
             lines: Lines) -> Tuple[np.ndarray, np.ndarray]:
    """Metric matrix (n, n, ...) and volume density at the points x, at the
    broadcast shape of their metric jets ``jg`` (on the grid ``lines``, if
    any); EvalError naming the entry and the first node where a metric
    value is not finite, GeometryError where the metric is not positive
    definite.

    The SPD probe is eigvalsh's least eigenvalue, at or below
    ``SPD_FLOOR`` an error.  It is called only on a batch that the
    Gershgorin row bound cannot prove: every eigenvalue of the symmetric
    G lies in some interval G_ii -+ sum_{j != i} |G_ij|, so lambda_min is
    at least min_i (G_ii - sum_{j != i} |G_ij|).  Where that bound
    exceeds ``SPD_FLOOR`` by ``SPD_MARGIN`` times the node's largest
    |G_ij|, well above the rounding of the bound and eigvalsh's backward
    error (a small multiple of n eps |G|), eigvalsh's least eigenvalue
    would exceed the floor too, so skipping it changes no outcome.  The
    error names the first node, in x's order, where the least eigenvalue
    is least, through ``fields.point_of`` (which maps an entry of the
    eigenvalues' batch to its node), and prints it as a numpy array."""
    n = space.dim
    batch = np.broadcast_shapes(*(jg[i][j].batch_shape for i in range(n)
                                  for j in range(i, n)))
    G = np.zeros((n, n) + batch)
    for i in range(n):
        for j in range(i, n):
            require_finite(jg[i][j].value, x, lines,
                           f"metric entry g{i + 1}{j + 1}")
            G[i, j] = G[j, i] = jg[i][j].value
    Gm = np.moveaxis(G, (0, 1), (-2, -1))  # (..., n, n) for numpy.linalg
    if not _spd_by_rows(G):
        min_eig = np.linalg.eigvalsh(Gm)[..., 0]
        if np.any(min_eig <= SPD_FLOOR):
            worst = np.unravel_index(np.argmin(min_eig), min_eig.shape)
            raise GeometryError(
                f"metric not positive definite: min eigenvalue "
                f"{np.min(min_eig):.3e} at point "
                f"{np.array(point_of(x, lines, worst))}")
    return G, np.sqrt(np.linalg.det(Gm))


def christoffel_jets(jg: List[List[Jet]], jginv: List[List[Jet]]
                     ) -> List[List[List[Jet]]]:
    """Christoffel symbols as order-1 jets (Ricci reads their values and
    gradients, the Hessian and the II their values), from the order-2
    metric jets and their order-1 inverse.  Each symbol is computed for j >= i
    only: the (k, j, i) entry is the (k, i, j) jet, which it equals bit
    for bit."""
    n = len(jg)
    djg: List[List[Optional[List[Jet]]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            djg[i][j] = djg[j][i] = [jg[i][j].partial(l) for l in range(n)]
    # d_i g_jl + d_j g_il - d_l g_ij, formed once for every k
    first = {(i, j): [jet_sum([(djg[j][l][i],), (djg[i][l][j],)],
                              [(djg[i][j][l],)]) for l in range(n)]
             for i in range(n) for j in range(i, n)}
    out: List[List[List[Optional[Jet]]]] = [[[None] * n for _ in range(n)]
                                            for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                out[k][i][j] = out[k][j][i] = \
                    0.5 * jet_sum(zip(jginv[k], first[i, j]))
    return out  # type: ignore[return-value]


def _symmetric_triples(n: int) -> Iterator[Tuple[int, int, int]]:
    """(k, i, j) with i <= j: the Christoffel symbols ``christoffel_jets``
    forms, each the (k, j, i) one as well."""
    return ((k, i, j) for k in range(n) for i in range(n)
            for j in range(i, n))


class NodeGeometry:
    """Metric, weight and defining-function data of one node batch,
    computed once: the metric jets, the metric values ``metric`` and
    volume density ``sqrt_det`` up front; the inverse, Christoffel, weight
    and phi jets, and ``inverse`` (g^{ij}) and ``christoffels``, the values
    of the first two, on first use.  The operators below take it as
    ``geom``.

    Each jet is built to the highest order a consumer reads: ``jg``,
    ``jV`` and ``jphi`` at order 2 (the Christoffels, Hess V and the
    normal's derivative read second derivatives), ``jginv1`` and ``jgam``
    at order 1 (the Christoffels, L f, the normal and Ricci read first
    derivatives).  Only Gamma(f,f) from order-2 partials, as Gamma2 forms
    it, reads g^{ij} to order 2, ``jginv``, which a sweep never builds;
    each of the two is inverted on its own, so neither depends on
    whether the other was built.
    phi's jet is the one every consumer of the batch reads: the
    quadrature's inside mask and on-boundary check, the frame's
    on-boundary check and its normal.

    ``x`` holds the points.  Given ``lines``, the axis lines of the
    tensor grid x lists in C order (an interior quadrature chunk), the
    metric, weight and phi are jetted on the lines, and every jet and array
    here stays at the broadcast shape of the axes they read: ball3's at
    (r, theta), since its geometry never reads the azimuth.  The metric
    arrays are at the broadcast shape of all of them; ``grid``
    is the shape of the nodes themselves, against which everything
    broadcasts.  Every per-node operation is elementwise, so once
    broadcast to ``grid`` and flattened each value equals the one computed
    at the points bit for bit."""

    def __init__(self, space: WeightedSpace, x, lines: Lines = None):
        self.space, self.x, self.lines = space, np.asarray(x, float), lines
        if self.x.shape[0] != space.dim:
            raise GeometryError(f"point has {self.x.shape[0]} coordinates, "
                                f"chart dim is {space.dim}")
        self.grid = self.x.shape[1:] if lines is None else \
            np.broadcast_shapes(*(line.shape for line in lines))
        self.metric, self.sqrt_det = frame_at(space, self.x, self.jg, lines)

    def at_nodes(self, a: np.ndarray) -> np.ndarray:
        """Per-node values whose trailing axes broadcast against ``grid``,
        materialised at ``grid``: at every node, in x's order once the
        grid axes are flattened."""
        a = np.asarray(a)
        head = a.shape[:a.ndim - len(self.grid)]
        return np.ascontiguousarray(np.broadcast_to(a, head + self.grid))

    @cached_property
    def jg(self) -> List[List[Jet]]:
        return self.space.metric_jets(self.x, self.lines)

    @cached_property
    def jginv(self) -> List[List[Jet]]:
        """g^{ij}'s order-2 jets, read only by Gamma(f,f) from order-2
        partials (``carre_du_champ_jet`` in Gamma2)."""
        return jet_matrix_inverse(self.jg)

    @cached_property
    def jginv1(self) -> List[List[Jet]]:
        """g^{ij}'s order-1 jets, which every other consumer reads: the
        inverse of the metric jets truncated to order 1, whose slots are
        those of ``jginv`` truncated, bit for bit."""
        return jet_matrix_inverse([[e.truncate(1) for e in row]
                                   for row in self.jg])

    @cached_property
    def inverse(self) -> np.ndarray:
        """The values of ``jginv1``, indexed [i, j] ahead of the batch."""
        n = self.space.dim
        out = np.empty((n, n) + self.sqrt_det.shape)
        for i, row in enumerate(self.jginv1):
            for j, e in enumerate(row):
                out[i, j] = e.value
        return out

    @cached_property
    def jgam(self) -> List[List[List[Jet]]]:
        return christoffel_jets(self.jg, self.jginv1)

    @cached_property
    def christoffels(self) -> np.ndarray:
        """The values of ``jgam``, indexed [k, i, j] ahead of the batch."""
        n = self.space.dim
        out = np.empty((n, n, n) + self.sqrt_det.shape)
        for k, i, j in _symmetric_triples(n):
            out[k, i, j] = out[k, j, i] = self.jgam[k][i][j].value
        return out

    @cached_property
    def jV(self) -> Jet:
        return self.space.weight.jet(self.x, 2, self.lines)

    @cached_property
    def jphi(self) -> Jet:
        """phi's jet; EvalError at the first node where phi is not finite,
        which no {phi < 0} or |phi| test could rank."""
        jphi = self.space.defining_fn.jet(self.x, 2, self.lines)
        require_finite(jphi.value, self.x, self.lines, "phi")
        return jphi


FieldOrJet = Union[ScalarField, Jet]


def contract(spec: str, *ops: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *ops)``, where each operand's batch axes (its
    ``...``) broadcast against the others' as numpy's do: a lower-rank
    batch gains leading unit axes, after the index axes, so the ``(m,)``
    geometry meets a ``(k, m)`` stack of fields.  Operands at differing
    batch shapes are first materialised at the common one: einsum may sum
    the terms of a broadcast operand in another order, and the result
    must equal the per-node one bit for bit."""
    heads = [len(term) - 3 for term in spec.split("->")[0].split(",")]
    batches = [op.shape[h:] for h, op in zip(heads, ops)]
    if len(set(batches)) > 1:
        batch = np.broadcast_shapes(*batches)
        ops = tuple(np.ascontiguousarray(np.broadcast_to(
            op.reshape(op.shape[:h] + (1,) * (len(batch) - len(b)) + b),
            op.shape[:h] + batch))
            for h, b, op in zip(heads, batches, ops))
    return np.einsum(spec, *ops)


def _jet(f: FieldOrJet, geom: NodeGeometry) -> Jet:
    """The jet of f at the nodes of ``geom`` (on its lines, if any); f is
    a field or already that jet."""
    return f if isinstance(f, Jet) else f.jet(geom.x, lines=geom.lines)


def ricci(geom: NodeGeometry) -> np.ndarray:
    """Ricci tensor components R_ij at the nodes, symmetrized."""
    n = geom.space.dim
    gam = geom.christoffels
    dgam = np.empty((n,) * 4 + gam.shape[3:])  # [k, i, j, l] = d_l G^k_ij
    for k, i, j in _symmetric_triples(n):
        dgam[k, i, j] = dgam[k, j, i] = geom.jgam[k][i][j].gradient()
    R = np.zeros((n, n) + gam.shape[3:])
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


def hessian_jets(geom: NodeGeometry, df: Sequence[Jet]
                 ) -> Iterator[Tuple[int, int, Jet]]:
    """(i, j, (Hess f)_ij) for every index pair in C order, as jets one
    order below the jets ``df`` of the first partials of f: the one
    formula for the Hessian.  The entries are formed one at a time, so a
    caller that folds each into a sum holds one at once.  Every
    Christoffel and partial factor is truncated to the entries' order
    first, so a product forms no slot above it (Hess V's values take
    order-0 products); the kept slots are the same bits."""
    n = len(df)
    order = df[0].order - 1  # the entries'
    jgam = [[[e.truncate(order) for e in row] for row in gk]
            for gk in geom.jgam]
    dfk = [d.truncate(order) for d in df]
    for i in range(n):
        for j in range(n):
            yield i, j, jet_sum([(df[i].partial(j),)],
                                ((jgam[k][i][j], dfk[k]) for k in range(n)))


def _hessian_values(geom: NodeGeometry, vals: dict) -> np.ndarray:
    """The Hess f entries' values ``vals[i, j]`` as one (n, n, ...) array,
    at their broadcast shape with the geometry's."""
    n = geom.space.dim
    H = np.zeros((n, n) + np.broadcast_shapes(
        geom.sqrt_det.shape, *(v.shape for v in vals.values())))
    for (i, j), v in vals.items():
        H[i, j] = v
    return H


def hessian(geom: NodeGeometry, f: FieldOrJet) -> np.ndarray:
    """Covariant Hessian components (Hess f)_ij at the nodes, the values
    of ``hessian_jets``."""
    jf = _jet(f, geom).truncate(2)  # values are all that is read
    return _hessian_values(geom, {
        (i, j): hij.value for i, j, hij in
        hessian_jets(geom, [jf.partial(i) for i in range(jf.dim)])})


def laplacian_jet(geom: NodeGeometry, df: Sequence[Jet]
                  ) -> Tuple[Jet, np.ndarray]:
    """L f = g^{ij} (Hess_ij f - d_i V d_j f) as a jet one order below the
    jets ``df`` of the first partials of f, the one formula for L, and the
    values of the Hess f it was formed from, (n, n, ...) at their
    broadcast shape with the geometry's.  Each entry of ``hessian_jets``
    is folded into L f as it is formed."""
    n = len(df)
    jginv = geom.jginv1
    dV = [geom.jV.partial(i) for i in range(n)]
    vals = {}

    def terms():
        for i, j, hij in hessian_jets(geom, df):
            vals[i, j] = hij.value
            gij = jginv[i][j]
            # ``jet_sum`` reads only the shape of a term with a zero g^{ij},
            # so its difference is not formed
            diff = hij if gij.is_zero else jet_sum([(hij,)], [(dV[i], df[j])])
            yield gij, diff

    lf = jet_sum(terms())
    return lf, _hessian_values(geom, vals)


def grad(geom: NodeGeometry, f: FieldOrJet) -> np.ndarray:
    """Contravariant gradient components of f at the nodes."""
    return contract("ij...,j...->i...", geom.inverse, _jet(f, geom).gradient())


def gamma1(geom: NodeGeometry, f: FieldOrJet, h: FieldOrJet) -> np.ndarray:
    """Carre du champ Gamma(f,h) = g^{ij} d_i f d_j h at the nodes."""
    return contract("ij...,i...,j...->...", geom.inverse,
                    _jet(f, geom).gradient(), _jet(h, geom).gradient())


def witten_laplacian(geom: NodeGeometry, f: FieldOrJet) -> np.ndarray:
    """L f = trace_g Hess f - Gamma(V, f) at the nodes."""
    jf = _jet(f, geom).truncate(2)  # values are all that is read
    return laplacian_jet(geom, [jf.partial(i) for i in range(jf.dim)]
                         )[0].value


def hs_norm_sq(geom: NodeGeometry, H: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm g^{ik} g^{jl} H_ij H_kl."""
    ginv = geom.inverse
    return contract("ik...,jl...,ij...,kl...->...", ginv, ginv, H, H)


def bakry_emery_ricci(geom: NodeGeometry) -> np.ndarray:
    """Ricci_V = Ricci + Hess V at the nodes, at the broadcast shape of the
    geometry's arrays; each consumer reads it once, so it is not kept."""
    return ricci(geom) + hessian(geom, geom.jV)


@dataclass
class Gamma2Parts:
    """Gamma2(f), the jet of f and the Hess f it was computed from."""

    f_jet: Jet                    # order 3
    gamma2: np.ndarray
    hessian: np.ndarray           # (n, n, ...)


def carre_du_champ_jet(geom: NodeGeometry, df: Sequence[Jet]) -> Jet:
    """Gamma(f,f) = g^{ij} d_i f d_j f as a jet, from the jets of the
    first partials of f; its order is theirs, at most 2, and g^{ij} is
    read to that order."""
    n = len(df)
    jginv = geom.jginv if any(d.order > 1 for d in df) else geom.jginv1
    return jet_sum((jginv[i][j], df[i], df[j]) for i in range(n)
                   for j in range(n))


def gamma2_parts(geom: NodeGeometry, f: FieldOrJet) -> Gamma2Parts:
    """Gamma2(f) via operator composition over jets of one order lower."""
    jf = _jet(f, geom)
    df = [jf.partial(i) for i in range(jf.dim)]
    gamma_ff = carre_du_champ_jet(geom, df)
    lf, H = laplacian_jet(geom, df)
    half_l_gamma = 0.5 * witten_laplacian(geom, gamma_ff)
    dfv = np.stack([d.value for d in df])
    gamma_f_lf = contract("ij...,i...,j...->...", geom.inverse, dfv,
                          lf.gradient())
    return Gamma2Parts(f_jet=jf, gamma2=half_l_gamma - gamma_f_lf, hessian=H)


def gamma2(geom: NodeGeometry, f: FieldOrJet) -> np.ndarray:
    return gamma2_parts(geom, f).gamma2

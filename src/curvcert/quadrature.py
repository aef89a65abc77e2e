"""Gauss-Legendre quadrature against the weighted volume and boundary
measures.

Interior integrals use a tensor-product rule over the chart box with the
density exp(-V) sqrt(det g); nodes with phi >= 0 contribute zero, which
is exact for integrands carrying a compact-support cutoff inside Omega
(all built-in spaces place the boundary on chart-box faces, so the
clipping never cuts through the support).  Boundary integrals run over
parametrized patches with the pullback density exp(-V) sqrt(det Gram).

The interior rule runs in chunks of ``CHUNK`` nodes, one ``NodeGeometry``
per chunk (and one per boundary patch) giving the density and whatever a
``GeometryIntegrand`` reads.  A geometry is computed once per distinct
point of the chart axes its metric and weight read, so where the
geometry ignores an axis (ball3's never reads the azimuth, the polar 2-D
charts' reads only the radius) the tensor-product rule repeats no
geometry along it.  An integrand returns one row or k rows per batch, or
yields its rows one at a time; each row is reduced as it arrives, so no
array longer than one batch is held per row.

Reductions are ordered: each row's batch sum is numpy's pairwise sum over
a fixed node ordering, and the chunk sums are added in chunk order, so
results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

from .fields import ScalarField
from .geometry import NodeGeometry, WeightedSpace

DEFAULT_INTERIOR_NODES = 64
DEFAULT_BOUNDARY_NODES = 256
CHUNK = 16384  # interior nodes per batch
GRAM_FLOOR = 1e-12
PATCH_PHI_TOL = 1e-8

Integrand = Union[Callable[[np.ndarray], np.ndarray], "GeometryIntegrand"]


class QuadratureError(ValueError):
    """Non-finite integrand, degenerate patch, or singular density."""


@dataclass(frozen=True)
class GeometryIntegrand:
    """An integrand of a batch's ``NodeGeometry`` rather than of its nodes,
    so that all its rows, returned or yielded, read the geometry the rule
    built for the batch."""

    fn: Callable[[NodeGeometry], Union[np.ndarray, Iterator[np.ndarray]]]


def _batch_sums(F, geom: NodeGeometry, wts: np.ndarray, dens: np.ndarray,
                mask=None, sqrt_det=None):
    """One ordered sum of wts * row * dens per row of F on one batch, and
    whether F gave a single row.  Each row is checked finite and, with
    ``sqrt_det``, zero wherever sqrt det g is below the floor."""
    out = F.fn(geom) if isinstance(F, GeometryIntegrand) else F(geom.x)
    single = False
    if not isinstance(out, Iterator):
        out = np.asarray(out)
        single = out.ndim <= 1
        out = [out] if single else out.reshape(-1, out.shape[-1])
    sums = []
    for row in out:
        fv = np.asarray(row) if mask is None else row * mask
        if not np.all(np.isfinite(fv)):
            bad = int(np.nonzero(~np.isfinite(fv))[-1][0])
            raise QuadratureError(
                f"non-finite integrand value at node {geom.x[:, bad]}")
        if sqrt_det is not None and np.any((np.abs(fv) > 0)
                                           & (sqrt_det <= GRAM_FLOOR)):
            raise QuadratureError(
                "integrand supported on a chart-singular node "
                "(sqrt det g below floor)")
        sums.append(float(np.sum(wts * fv * dens)))
    return sums, single


@dataclass
class BoundaryPatch:
    """A parametrized piece of the boundary {phi = 0}.

    ``maps[i]`` is a scalar field of the (n-1) patch parameters giving
    the i-th chart coordinate of the boundary point.
    """

    param_box: Sequence[Tuple[float, float]]
    maps: Sequence[ScalarField]
    label: str = ""

    @property
    def param_dim(self) -> int:
        return len(self.param_box)


@lru_cache(maxsize=256)
def gauss_rule(lo: float, hi: float, m: int):
    """m-point Gauss-Legendre nodes/weights on [lo, hi], read-only (cached)."""
    if m < 1:
        raise QuadratureError(f"node count must be >= 1, got {m}")
    t, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (t + 1.0), half * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def tensor_rule(box, counts):
    """Tensor-product nodes (d, M) and weights (M,) over a box."""
    axes = [gauss_rule(lo, hi, m) for (lo, hi), m in zip(box, counts)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids])
    wts = np.prod(np.stack([w.ravel() for w in wgrids]), axis=0)
    return pts, wts


def _counts(counts, d, default):
    if counts is None:
        return (default,) * d
    if isinstance(counts, int):
        return (counts,) * d
    counts = tuple(int(c) for c in counts)
    if len(counts) != d:
        raise QuadratureError(f"expected {d} node counts, got {len(counts)}")
    return counts


def integrate_interior(space: WeightedSpace, F: Integrand, counts=None):
    """Integral of F over Omega = {phi < 0} against exp(-V) dVol_g
    (one integral per row of F; a float for a single row)."""
    counts = _counts(counts, space.dim, DEFAULT_INTERIOR_NODES)
    pts, wts = tensor_rule(space.chart_box, counts)
    total = None
    for start in range(0, pts.shape[1], CHUNK):
        sl = slice(start, start + CHUNK)
        x = pts[:, sl]
        inside = np.asarray(space.defining_fn.value(x)) < 0.0
        geom = NodeGeometry(space, x)
        sqrt_det = geom.frame.sqrt_det
        dens = np.exp(-np.asarray(space.weight.value(x))) * sqrt_det
        sums, single = _batch_sums(F, geom, wts[sl], dens, inside, sqrt_det)
        del geom  # one batch's geometry alive at a time
        total = sums if total is None else \
            [a + b for a, b in zip(total, sums, strict=True)]
    return total[0] if single else total


def _patch_geometry(space: WeightedSpace, patch: BoundaryPatch, s: np.ndarray):
    """Geometry at the image points of a patch, and its Gram density."""
    n = space.dim
    d = patch.param_dim
    if d != n - 1:
        raise QuadratureError(
            f"patch has {d} parameters, expected {n - 1}")
    jmaps = [patch.maps[i].jet(s, 1) for i in range(n)]
    x = np.stack([j.value for j in jmaps])
    phi = np.asarray(space.defining_fn.value(x))
    if np.any(np.abs(phi) > PATCH_PHI_TOL):
        raise QuadratureError(
            f"patch image leaves the boundary: |phi| = "
            f"{np.max(np.abs(phi)):.3e} > {PATCH_PHI_TOL}")
    T = np.stack([j.gradient() for j in jmaps], axis=1)  # (d, n, ...)
    geom = NodeGeometry(space, x)
    gram = np.einsum("ai...,ij...,bj...->ab...", T, geom.frame.metric, T)
    gram_mat = np.moveaxis(gram, (0, 1), (-2, -1))
    det = np.linalg.det(gram_mat)
    if np.any(det <= GRAM_FLOOR):
        raise QuadratureError(
            f"degenerate patch Gram determinant ({np.min(det):.3e})")
    return geom, np.sqrt(det)


def integrate_boundary(space: WeightedSpace, F: Integrand,
                       patch: BoundaryPatch, counts=None):
    """Integral of F over a boundary patch against exp(-V) dH^{n-1}
    (one integral per row of F)."""
    counts = _counts(counts, patch.param_dim, DEFAULT_BOUNDARY_NODES)
    s, wts = tensor_rule(patch.param_box, counts)
    geom, dens_gram = _patch_geometry(space, patch, s)
    dens = np.exp(-np.asarray(space.weight.value(geom.x))) * dens_gram
    sums, single = _batch_sums(F, geom, wts, dens)
    return sums[0] if single else sums


def integrate_boundary_all(space: WeightedSpace, F: Integrand, counts=None):
    """Sum of the patch integrals over every declared boundary patch, added
    in patch order (one sum per row of F; a float for a single row)."""
    if not space.boundary_patches:
        raise QuadratureError("space declares no boundary patches")
    per_patch = [integrate_boundary(space, F, p, counts)
                 for p in space.boundary_patches]
    if isinstance(per_patch[0], list):
        return [float(sum(row)) for row in zip(*per_patch, strict=True)]
    return float(sum(per_patch))


def patch_points(space: WeightedSpace, patch: BoundaryPatch,
                 counts=None) -> NodeGeometry:
    """Geometry at the boundary sample points of a patch: the images of
    the midpoint grid over its parameter box, checked on the boundary and
    non-degenerate.  ``.x`` holds the points in chart coordinates."""
    counts = _counts(counts, patch.param_dim, DEFAULT_BOUNDARY_NODES)
    axes = [lo + (hi - lo) * (np.arange(m) + 0.5) / m
            for (lo, hi), m in zip(patch.param_box, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    s = np.stack([g.ravel() for g in grids])
    return _patch_geometry(space, patch, s)[0]

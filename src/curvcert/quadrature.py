"""Gauss-Legendre quadrature against the weighted volume and boundary
measures.

Interior integrals use a tensor-product rule over the chart box with the
density exp(-V) sqrt(det g); nodes with phi >= 0 contribute zero (phi read
off the chunk geometry's jet, ``NodeGeometry.jphi``), which is exact for
integrands carrying a compact-support cutoff inside Omega (all built-in
spaces place the boundary on chart-box faces, so the clipping never cuts
through the support).  Boundary integrals run over parametrized patches
with the pullback density exp(-V) sqrt(det Gram).
Node counts are always explicit: one count per axis of the chart box or
of the patch's parameter box, as a tuple.  ``DEFAULT_INTERIOR_NODES``
and ``DEFAULT_BOUNDARY_NODES`` are the per-axis counts a space file gets
when it has no ``[quadrature]`` section.

The interior rule runs in chunks (``interior_chunks``) of at most
``CHUNK`` nodes, each a C-order block of whole rows of the rule (a row:
the nodes that share their index on the first axis), or a sub-box of one
row where a row is longer.  So every chunk is itself a tensor grid, and
it comes with its axis lines: the chunk's ``NodeGeometry`` jets the
metric and weight on them, at the broadcast shape of the axes they read
(ball3's never reads the azimuth, the polar 2-D charts' reads only the
radius), and so does any integrand that passes ``geom.lines`` on to its
fields.  A boundary patch's nodes are one batch, jetted at its points.
Each batch's density reads V off that batch's weight jet
(``weighted_density``), and its inside mask or on-boundary check reads
phi off its phi jet, so V and phi are jetted once per batch; a phi or V
that leaves its domain at a node, or a phi that is not finite there, is
an ``EvalError`` naming the node, never a NaN that drops it.
An integrand is a callable of the batch's ``NodeGeometry`` in one of two
forms: it returns one row, at any shape that broadcasts to the batch's
grid (the nodes' shape, a line's, ``geom.jV.value``'s), and the
sweep gives one float; or it yields its rows one at a time, and the sweep
gives one float per row.  Each row is reduced as it arrives, so no array
longer than one batch is held per row.

Importing this module has one process-wide effect: on glibc, up to
``HEAP_TOP_PAD`` (64 MiB) of freed heap stays mapped, so the arrays of one
node batch reuse the pages that the previous batch freed instead of
faulting fresh ones in (``_keep_freed_heap_mapped``).

Reductions are ordered: each row and the density are broadcast to the
batch's nodes and flattened, each row's batch sum is numpy's pairwise
sum over that fixed node ordering, and the chunk sums are added in chunk
order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .boundary import ON_BOUNDARY_TOL
from .fields import ScalarField
from .geometry import NodeGeometry, WeightedSpace

DEFAULT_INTERIOR_NODES = 64
DEFAULT_BOUNDARY_NODES = 256
CHUNK = 16384  # interior nodes per batch
GRAM_FLOOR = 1e-12
# Freed heap that glibc keeps mapped above the top of its arena, above
# the largest live set of one node batch measured, so a batch reuses the
# pages its predecessor freed instead of faulting them in again (with a
# 16 MiB pad a dense_family pass still refaulted 770 to 2 500 pages).
HEAP_TOP_PAD = 64 << 20
_M_TOP_PAD = -2  # glibc's mallopt parameter number

Integrand = Callable[[NodeGeometry], Union[np.ndarray, Iterator[np.ndarray]]]


class QuadratureError(ValueError):
    """Non-finite integrand, degenerate patch, or singular density."""


def _batch_sums(F, geom: NodeGeometry, wts: np.ndarray, dens: np.ndarray,
                mask=None, sqrt_det=None):
    """One ordered sum of wts * row * dens per row of F on one batch, and
    whether F gave a single row: F returns one row or yields several.  A
    row at the shape of the points' batch is taken as it is; any other row
    must broadcast to the nodes' grid (``NodeGeometry.grid``), and is
    broadcast and flattened to the points, so a returned stack of rows is
    refused.  Each row is checked finite and,
    with ``sqrt_det``, zero wherever sqrt det g is below the floor.  Both
    per-row guards are decided per batch: an all-true mask is not applied
    (multiplying by it is exact) and a batch with no node below the floor
    has no row to test."""
    if mask is not None and mask.all():
        mask = None
    if sqrt_det is not None and not np.any(sqrt_det <= GRAM_FLOOR):
        sqrt_det = None
    out = F(geom)
    single = not isinstance(out, Iterator)
    nodes, grid = geom.x.shape[1:], geom.grid
    sums = []
    for row in [out] if single else out:
        fv = np.asarray(row)
        if fv.shape != nodes:
            try:
                fv = geom.at_nodes(np.broadcast_to(fv, grid)).reshape(nodes)
            except ValueError:
                raise QuadratureError(
                    f"integrand row of shape {fv.shape} does not broadcast "
                    f"to the batch's grid {grid}; yield several rows"
                ) from None
        if mask is not None:
            fv = fv * mask
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


def _keep_freed_heap_mapped() -> None:
    """Have glibc keep ``HEAP_TOP_PAD`` bytes of freed heap mapped for the
    whole process, run once at import; no-op where the C library has no
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, HEAP_TOP_PAD)
    except (OSError, AttributeError, TypeError):
        pass  # another allocator keeps its own policy


_keep_freed_heap_mapped()


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


def midpoint_grid(box, counts) -> np.ndarray:
    """The midpoint grid (d, M) over a box, ``counts`` cells per axis."""
    axes = [lo + (hi - lo) * (np.arange(m) + 0.5) / m
            for (lo, hi), m in zip(box, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids])


def weighted_density(geom: NodeGeometry, vol) -> np.ndarray:
    """exp(-V) vol at the nodes of ``geom``, flattened, for the volume
    density vol there: sqrt det g inside, sqrt det Gram on a boundary
    patch.  V is read off the batch's weight jet ``geom.jV``, so a node
    batch jets V once, for its density and Hess V alike."""
    return geom.at_nodes(np.exp(-geom.jV.value)).reshape(-1) * vol


def _counts(counts, d):
    counts = tuple(int(c) for c in counts)
    if len(counts) != d:
        raise QuadratureError(f"expected {d} node counts, got {len(counts)}")
    return counts


def interior_chunks(space: WeightedSpace, counts
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray,
                                        List[np.ndarray]]]:
    """The interior rule's batches in order, as (points (d, m), weights
    (m,), axis lines): C-order blocks of whole rows of at most ``CHUNK``
    nodes, or, where the nodes behind one index of the leading axes
    outnumber ``CHUNK``, blocks of the next axis with those indices fixed.
    Line i holds the chunk's nodes on axis i, shaped to broadcast along
    axis i only, and the points are its grid in C order."""
    counts = _counts(counts, space.dim)
    pts, wts = tensor_rule(space.chart_box, counts)
    d = len(counts)
    pts, wts = pts.reshape((d,) + counts), wts.reshape(counts)
    axis = 0  # the axis whose index ranges over a chunk
    while math.prod(counts[axis + 1:]) > CHUNK:
        axis += 1
    step = CHUNK // math.prod(counts[axis + 1:])
    rest = (slice(None),) * (d - axis - 1)
    for lead in itertools.product(*map(range, counts[:axis])):
        for start in range(0, counts[axis], step):
            box = tuple(slice(i, i + 1) for i in lead) \
                + (slice(start, start + step),) + rest
            chunk = pts[(slice(None),) + box]
            lines = [chunk[(i,) + tuple(slice(None) if k == i else
                                        slice(0, 1) for k in range(d))]
                     for i in range(d)]
            yield chunk.reshape(d, -1), wts[box].reshape(-1), lines


def integrate_interior(space: WeightedSpace, F: Integrand, counts):
    """Integral of F over Omega = {phi < 0} against exp(-V) dVol_g: a
    float for a returned row, a list of one per row for yielded rows."""
    total = None
    for x, wts, lines in interior_chunks(space, counts):
        geom = NodeGeometry(space, x, lines)
        inside = geom.at_nodes(geom.jphi.value).reshape(-1) < 0.0
        sqrt_det = geom.at_nodes(geom.sqrt_det).reshape(-1)
        dens = weighted_density(geom, sqrt_det)
        sums, single = _batch_sums(F, geom, wts, dens, inside, sqrt_det)
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
    geom = NodeGeometry(space, np.stack([j.value for j in jmaps]))
    abs_phi = np.abs(geom.jphi.value)
    if np.any(abs_phi > ON_BOUNDARY_TOL):
        raise QuadratureError(
            f"patch image leaves the boundary: |phi| = "
            f"{np.max(abs_phi):.3e} > {ON_BOUNDARY_TOL}")
    T = np.stack([j.gradient() for j in jmaps], axis=1)  # (d, n, ...)
    gram = np.einsum("ai...,ij...,bj...->ab...", T, geom.metric, T)
    gram_mat = np.moveaxis(gram, (0, 1), (-2, -1))
    det = np.linalg.det(gram_mat)
    if np.any(det <= GRAM_FLOOR):
        raise QuadratureError(
            f"degenerate patch Gram determinant ({np.min(det):.3e})")
    return geom, np.sqrt(det)


def integrate_boundary(space: WeightedSpace, F: Integrand,
                       patch: BoundaryPatch, counts):
    """Integral of F over a boundary patch against exp(-V) dH^{n-1}, in
    the form ``integrate_interior`` gives."""
    counts = _counts(counts, patch.param_dim)
    s, wts = tensor_rule(patch.param_box, counts)
    geom, dens_gram = _patch_geometry(space, patch, s)
    sums, single = _batch_sums(F, geom, wts, weighted_density(geom, dens_gram))
    return sums[0] if single else sums


def patch_points(space: WeightedSpace, patch: BoundaryPatch,
                 counts) -> NodeGeometry:
    """Geometry at the boundary sample points of a patch: the images of
    the midpoint grid over its parameter box, checked on the boundary and
    non-degenerate.  ``.x`` holds the points in chart coordinates."""
    counts = _counts(counts, patch.param_dim)
    return _patch_geometry(space, patch,
                           midpoint_grid(patch.param_box, counts))[0]

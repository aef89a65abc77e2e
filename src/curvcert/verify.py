"""Theorem checkers and the curvature-dimension certifier.

Each proof step of the boundary decomposition of the measure-valued
Ricci tensor is one named, reportable check:

* ``check_bochner``       -- Gamma2 = Ricci_V(grad f, grad f) + |Hess f|^2_HS
* ``check_green``         -- integration by parts with the boundary flux
* ``check_mv_laplacian``  -- weak Laplacian = interior density - boundary flux
* ``check_ii_identity``   -- g(nabla_{grad g} N, grad g) = -1/2 g(N, grad|grad g|^2)
* ``check_ricci_decomposition`` -- the headline interior + boundary identity
* ``check_dimension_term``      -- |Hess f|^2_HS >= (trace_g Hess f)^2 / N
* ``certify`` / ``flatness_report`` -- sampled eigenvalue certificates

The two pointwise checks run their test fields through the operators
as one stacked jet of batch (k, m) and rank one row per field.

Green's formula and the weak Laplacian are one identity read from two
sides.  ``weak_checks`` is the one builder of the weak results: green
and mv_laplacian from one sweep, which builds the geometry and g's terms
once per node batch and streams the rows of each test density from one
jet of it; given boundary frames, also ii_identity and
ricci_decomposition, behind the one Neumann gate (``neumann_gate``,
which also hands the II identity its jets of g).  ``check_green``,
``check_mv_laplacian`` and ``check_ricci_decomposition`` are views of
its entries.  Inside the sweep, every jet and term is taken on the
quadrature chunk's axis lines, at the broadcast shape of the axes it
reads, and the rows are flattened to the nodes only for their sums;
``decomposition_batch`` is the gate plus that sweep over a family of
densities.  A check that reads one sample grid takes its
``NodeGeometry``, or one ``BoundaryFrame`` per patch, and nothing they
hold (``SamplePlan.grids`` builds both); a check that runs a sweep takes
the space.  Each check reads its identity's tolerance constant.
Operators are bound by name from ``geometry`` and ``boundary``.

A ``Target`` is one space under test, as the zoo and the INI loader both
build it: its ``neumann`` and ``h_field`` make every Neumann field and test
density, and ``neumann`` refuses a base whose field is 0 at every sample
point.

Every check that assumes the Neumann hypothesis re-verifies it first and
fails loudly (GateError) if violated: that is a broken hypothesis, not a
broken theorem.  A non-finite value in a pointwise check, in the
interior spectrum of a certificate or of phi at a sample point raises
EvalError.  All verdicts are sampled necessary-condition certificates
over stated grids, never proofs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import (BoundaryFrame, NeumannTestFunction, boundary_frame,
                       make_neumann)
from .exprlang import VAR_NAMES, EvalError
from .fields import (CutoffField, CutoffSpec, ExprField, ScalarField,
                     require_finite)
from .geometry import (FieldOrJet, NodeGeometry, WeightedSpace,
                       bakry_emery_ricci, carre_du_champ_jet, contract,
                       _jet, gamma2_parts, grad, hessian, hs_norm_sq,
                       laplacian_jet)
from .jets import Jet, stack
from .quadrature import (integrate_boundary, integrate_interior,
                         midpoint_grid, patch_points)

POINTWISE_TOL = 1e-8
QUADRATURE_TOL = 1e-5
DIMENSION_TOL = 1e-10
VERDICT_SLACK = 1e-9
NEUMANN_GATE_TOL = 1e-8
# a Neumann field below this share of its base's size is rounding noise
NEUMANN_ZERO_REL = 1e-12


class GateError(RuntimeError):
    """A check's hypothesis (the Neumann gate) is violated."""


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    witness: Dict = field(default_factory=dict)
    metadata: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        # the fields themselves, not copies: a report reads them once
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: residual {self.residual:.3e} "
                f"(tol {self.tolerance:.1e})")


@dataclass
class SamplePlan:
    """Grid resolutions for sampling and quadrature."""

    interior_counts: Tuple[int, ...]
    boundary_counts: Tuple[int, ...]
    quad_interior: Tuple[int, ...]
    quad_boundary: Tuple[int, ...]

    def to_dict(self):
        return {f.name: list(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def grids(self, space: WeightedSpace
              ) -> Tuple[NodeGeometry, List[BoundaryFrame]]:
        """The geometry at the interior sample points, and the boundary
        sample frames."""
        x = interior_grid(space, self.interior_counts)
        return (NodeGeometry(space, x),
                boundary_grid(space, self.boundary_counts))


def interior_grid(space: WeightedSpace, counts) -> np.ndarray:
    """Midpoint grid over the chart box, restricted to {phi < 0};
    EvalError at the first grid point where phi is not finite."""
    pts = midpoint_grid(space.chart_box, counts)
    phi = np.asarray(space.defining_fn.value(pts))
    require_finite(phi, pts, None, "phi")
    x = pts[:, phi < -1e-10]
    if x.shape[1] == 0:
        raise ValueError(f"{space.label}: empty interior sample plan: none "
                         f"of the {pts.shape[1]} grid points has phi < 0")
    return x


def boundary_grid(space: WeightedSpace, counts) -> List[BoundaryFrame]:
    """One frame per patch at its midpoint sample points, built on the
    geometry ``patch_points`` checked them with."""
    return [boundary_frame(patch_points(space, p, counts))
            for p in space.boundary_patches]


@dataclass
class Target:
    """One space under test: the space, its plan, and the cutoff, collars,
    Neumann bases and test-density sources every g and h is built from.
    ``zoo.load`` and ``config.load_config`` both build it from a space
    file with config's one INI loader, ``expected`` and ``provenance``
    included; ``expressions`` keeps the raw expressions of a
    ``config.load_config`` file.  ``run_suite`` reads the rest."""

    name: str
    label: str
    space: WeightedSpace
    plan: SamplePlan
    cutoff: Optional[CutoffSpec]
    neumann_bases: List[str]
    h_sources: List[str] = field(default_factory=list)
    collars: Tuple[CutoffSpec, ...] = ()
    expected: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)
    expressions: Dict[str, str] = field(default_factory=dict)
    # raised for a bad input of the target: ZooError or ConfigError
    error: type = ValueError
    # (base, interior counts) pairs whose Neumann field was checked
    # non-zero: each suite rebuilds its field, and the check reads nothing
    # else
    _nonzero: set = field(default_factory=set, init=False, repr=False,
                          compare=False)

    def require_cutoff(self) -> CutoffSpec:
        """The cutoff of every Neumann field and test density."""
        if self.cutoff is None:
            raise ValueError(
                f"{self.label}: no cutoff available; theorem-grade checks "
                f"need a [cutoff] section or a zoo entry")
        return self.cutoff

    def neumann(self, w_src: Optional[str] = None) -> NeumannTestFunction:
        """The Neumann test function of base ``w_src`` (the first base by
        default).  A base whose Neumann projection is 0 at every interior
        sample point, up to ``NEUMANN_ZERO_REL`` times the base there, is
        refused: every weak identity would read 0 = 0."""
        cutoff = self.require_cutoff()
        src = w_src if w_src is not None else self.neumann_bases[0]
        g = make_neumann(self.space, ExprField(src, self.space.dim),
                         cutoff, self.collars)
        key = (src, self.plan.interior_counts)
        if key in self._nonzero:
            return g
        x = interior_grid(self.space, self.plan.interior_counts)
        g_max = np.max(np.abs(g.field.value(x)))
        w_max = np.max(np.abs(g.base.value(x)))
        # a non-finite field is left to the Neumann gate, which names it
        if np.isfinite(g_max) and g_max <= NEUMANN_ZERO_REL * w_max:
            raise self.error(
                f"{self.label}: the Neumann field of base {src!r} is 0 to "
                f"rounding at all {x.shape[1]} interior sample points "
                f"(max |g| {g_max:.3e}, max |w| {w_max:.3e}), so it "
                f"exercises no identity")
        self._nonzero.add(key)
        return g

    def neumann_family(self) -> List[NeumannTestFunction]:
        return [self.neumann(w) for w in self.neumann_bases]

    def h_field(self, src: Optional[str] = None) -> ScalarField:
        """The cutoff times the density ``src`` (the first of
        ``h_sources`` by default; the cutoff alone when there is none)."""
        chi = CutoffField(self.require_cutoff())
        if src is None and not self.h_sources:
            return chi
        return chi * ExprField(src if src is not None else self.h_sources[0],
                               self.space.dim)

    def h_fields(self) -> List[ScalarField]:
        """The cutoff, then the cutoff times each of ``h_sources``."""
        return [CutoffField(self.require_cutoff())] + [
            self.h_field(src) for src in self.h_sources]

    def random_fields(self, count: int, seed: int) -> List[ScalarField]:
        return random_fields(self.space.dim, count, seed)


def random_fields(dim: int, count: int, seed: int) -> List[ScalarField]:
    """Random bounded polynomial/trig composite test fields: the same
    sources for the same (dim, count, seed), parsed afresh into a new
    list on each call."""
    rng = np.random.default_rng(seed)
    names = VAR_NAMES[:dim]
    fields: List[ScalarField] = []
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            c = round(float(rng.uniform(-1.5, 1.5)), 3) or 0.5
            powers = rng.integers(0, 3, size=dim)
            mono = "*".join(f"{v}^{p}" if p > 1 else v
                            for v, p in zip(names, powers) if p > 0)
            kind = rng.integers(0, 3)
            if kind == 0 and mono:
                terms.append(f"{c}*{mono}")
            elif kind == 1:
                v = names[int(rng.integers(0, dim))]
                a = round(float(rng.uniform(0.3, 1.2)), 3)
                fn = ["sin", "cos"][int(rng.integers(0, 2))]
                inner = f"{fn}({a}*{v})"
                terms.append(f"{c}*{mono}*{inner}" if mono
                             else f"{c}*{inner}")
            else:
                v = names[int(rng.integers(0, dim))]
                terms.append(f"{c}*exp(0.2*{v})")
        fields.append(ExprField(" + ".join(terms), dim))
    return fields


def _witness_point(x: np.ndarray, flat_index: int) -> List[float]:
    if x.ndim == 1:
        return [float(v) for v in x]
    return [float(v) for v in x[:, flat_index]]


def _largest(name: str, rows, worst: float, last: bool = False
             ) -> Tuple[float, Dict]:
    """The largest value over ``rows`` of (witness, values, points), and
    its row's witness with the point: the first maximum, or with ``last``
    the last.  A non-finite value cannot be ranked: EvalError."""
    witness: Dict = {}
    for extra, vals, x in rows:
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise EvalError(f"{name}: non-finite value at point "
                            f"{_witness_point(x, int(bad[0]))}")
        k = int(np.argmax(vals))
        v = float(np.ravel(vals)[k])
        if v > worst or (last and v == worst):
            worst, witness = v, dict(extra, point=_witness_point(x, k))
    return worst, witness


# -- pointwise identity checks ------------------------------------------


def _stacked_jets(fields: Sequence[FieldOrJet], geom: NodeGeometry) -> Jet:
    """The fields' jets at the points of ``geom`` as one jet of batch
    (k,) + the geometry's, row i field i."""
    return stack([_jet(f, geom) for f in fields], len(geom.grid))


def _field_rows(vals: np.ndarray, x: np.ndarray) -> List[Tuple]:
    """``_largest``'s rows, one per field, from values stacked (k, m)."""
    return [({"field_index": fi}, v, x) for fi, v in enumerate(vals)]


def check_bochner(fields: Sequence[FieldOrJet], geom: NodeGeometry
                  ) -> CheckResult:
    """Bochner identity Gamma2(f) = Ricci_V(grad f, grad f) + |Hess f|^2,
    at the points of ``geom``.  The fields go through Gamma2, Hess f and
    the Ricci_V contraction as one stacked jet; the residual is the first
    maximum in field order, its witness that field and point."""
    x = geom.x
    rows = []
    if fields:
        parts = gamma2_parts(geom, _stacked_jets(fields, geom))
        gf = grad(geom, parts.f_jet)
        rhs = contract("ij...,i...,j...->...", bakry_emery_ricci(geom), gf,
                       gf) + hs_norm_sq(geom, parts.hessian)
        rel = np.abs(parts.gamma2 - rhs) / (1.0 + np.abs(parts.gamma2))
        rows = _field_rows(rel, x)
    worst, witness = _largest("bochner", rows, -1.0)
    npts = 1 if x.ndim == 1 else x.shape[1]
    return CheckResult(
        name="bochner", residual=worst, tolerance=POINTWISE_TOL,
        passed=worst <= POINTWISE_TOL, witness=witness,
        metadata={"fields": len(fields), "points": npts})


def _ii_of_gradient(bframe: BoundaryFrame, ju: Jet) -> np.ndarray:
    """II(grad u, grad u), through v_a = g(grad u, e_a) = e_a^i d_i u."""
    du = ju.gradient()
    v = np.einsum("ai...,i...->a...", bframe.tangents, du)
    return np.einsum("ab...,a...,b...->...", bframe.II, v, v)


def _weak_integrals(space: WeightedSpace, g: ScalarField,
                    hs: Sequence[ScalarField], quad_interior,
                    quad_boundary, decomposition: bool = True
                    ) -> List[Dict[str, float]]:
    """One quadrature sweep for the weak identities of g tested against
    each h in ``hs``: int Gamma(h,g), int h Lg and oint h g(N, grad g),
    and, unless ``decomposition`` is false, the decomposition's LHS and
    interior and boundary RHS; one dict per h.  Each batch builds one
    ``NodeGeometry``, jets g once and computes its h-free terms once, then
    yields each h's rows from one jet of that h.  Each field is jetted to
    the order its rows read: h enters only through h and grad h, so it is
    jetted at order 1 inside and read as a value on the boundary; g needs
    order 3 inside (Gamma(g, Lg), |Hess g|^2) and order 1 on the
    boundary.  Gamma(g,g) is formed from the order-1 truncation of g's
    partials, since only its gradient is read.  Without the decomposition
    none of its terms (Gamma(g,g), Gamma(g, Lg), |Hess g|^2,
    Ricci_V(grad g, grad g), II) is formed.

    Inside, g and each h are jetted on the chunk's axis lines
    (``geom.lines``), so the h-free terms (grad g, Lg, |Hess g|^2,
    grad Gamma(g,g), Gamma(g, Lg), Ricci_V(grad g, grad g)) come out at
    the broadcast shape of the axes g and the geometry read: a ball3
    chunk computes them on its 2048 (r, theta) pairs, not its 16384
    nodes.  Lg and |Hess g|^2 read the one Hess g ``laplacian_jet`` forms
    per chunk.  The terms an h row contracts with (g^{ij}, grad g and
    grad Gamma(g,g)) are then materialised at the nodes once per chunk,
    and each h row is formed by broadcasting; the quadrature flattens it
    to the nodes.  Every term is elementwise per node, so the rows equal
    those computed at the points bit for bit."""
    def interior(geom: NodeGeometry) -> Iterator[np.ndarray]:
        x, ginv = geom.x, geom.inverse
        jg = g.jet(x, 3, geom.lines)
        dg = jg.gradient()
        partials = [jg.partial(i) for i in range(space.dim)]
        jlg, H = laplacian_jet(geom, partials)
        hs_sq = hs_norm_sq(geom, H) if decomposition else None
        del H  # not held while Gamma(g,g)'s jet is built
        if decomposition:
            dgam = geom.at_nodes(carre_du_champ_jet(
                geom, [p.truncate(1) for p in partials]).gradient())
            gv = contract("ij...,j...->i...", ginv, dg)  # grad g
            g_f_lf = contract("ij...,i...,j...->...", ginv, dg,
                              jlg.gradient())
            ric = contract("ij...,i...,j...->...", bakry_emery_ricci(geom),
                           gv, gv)
            del gv
        lg, dg, ginv = jlg.value, geom.at_nodes(dg), geom.at_nodes(ginv)
        del jg, partials, jlg  # not held while the h rows are formed
        for h in hs:
            jh = h.jet(x, 1, geom.lines)
            hv = jh.value
            dh = jh.gradient()
            yield contract("ij...,i...,j...->...", ginv, dh, dg)  # Gamma(h,g)
            yield hv * lg
            if decomposition:
                g_h_gam = contract("ij...,i...,j...->...", ginv, dh, dgam)
                yield -0.5 * g_h_gam - hv * g_f_lf - hv * hs_sq
                yield hv * ric

    def boundary(geom: NodeGeometry) -> Iterator[np.ndarray]:
        x = geom.x
        jg = g.jet(x, 1)
        bf = boundary_frame(geom)
        flux = bf.flux(jg.gradient())
        ii = _ii_of_gradient(bf, jg) if decomposition else None
        for h in hs:
            hv = np.asarray(h.value(x))
            yield hv * flux
            if decomposition:
                yield hv * ii

    interior_keys = ("gamma", "laplacian", "lhs", "rhs_interior")
    boundary_keys = ("flux", "rhs_boundary")
    if not decomposition:
        interior_keys, boundary_keys = interior_keys[:2], boundary_keys[:1]
    ints = iter(integrate_interior(space, interior, quad_interior))
    bds = [iter(integrate_boundary(space, boundary, p, quad_boundary))
           for p in space.boundary_patches]
    out = []
    for _ in hs:  # each h's rows in the order its integrands yield them
        w = dict(zip(interior_keys, ints))
        for key in boundary_keys:
            w[key] = sum(next(b) for b in bds)
        out.append(w)
    return out


def neumann_gate(g: NeumannTestFunction, frames: Sequence[BoundaryFrame]
                 ) -> Tuple[List[Jet], float]:
    """The order-2 jets of g at the boundary frames (the gate and the II
    identity read first derivatives of g and of Gamma(g,g)) and the max
    Neumann residual |g(N, grad g)| over them; GateError above
    ``NEUMANN_GATE_TOL``."""
    jets = [g.field.jet(bf.point, 2) for bf in frames]
    rows = [({}, np.abs(bf.flux(jg.gradient())), bf.point)
            for bf, jg in zip(frames, jets)]
    worst, witness = _largest("neumann_gate", rows, 0.0, last=True)
    if worst > NEUMANN_GATE_TOL:
        raise GateError(
            f"Neumann hypothesis violated: |g(N, grad g)| = {worst:.3e} "
            f"> {NEUMANN_GATE_TOL} at boundary point {witness['point']}; "
            f"the theorem's hypothesis fails, the theorem is not being tested")
    return jets, worst


def weak_checks(space: WeightedSpace, g, h: ScalarField,
                frames: Optional[Sequence[BoundaryFrame]],
                quad_interior, quad_boundary) -> List[CheckResult]:
    """The weak checks of g against the test density h, in ``run_suite``'s
    order, from one quadrature sweep.  Green's formula and the weak
    Laplacian are one identity read from its two sides, -int Gamma(h,g)
    against int h Lg - oint h g(N, grad g); negating a difference is exact,
    so green and mv_laplacian have the same residual.  When g is a
    ``NeumannTestFunction`` its boundary term must itself vanish (the
    measure Laplacian is absolutely continuous), or mv_laplacian fails
    with a leak.  Given ``frames``, ii_identity, whose Neumann gate on them
    runs before the sweep, and ricci_decomposition follow."""
    is_neumann = isinstance(g, NeumannTestFunction)
    ii = None if frames is None else check_ii_identity(g, frames)
    ints, = _weak_integrals(space, g.field if is_neumann else g, [h],
                            quad_interior, quad_boundary,
                            decomposition=ii is not None)
    i_gamma, i_lap, i_bd = ints["gamma"], ints["laplacian"], ints["flux"]
    scale = 1.0 + abs(i_gamma) + abs(i_lap) + abs(i_bd)
    res = abs(i_gamma - (-i_lap + i_bd)) / scale
    meta = {"lhs": -i_gamma, "interior_density": i_lap, "boundary_flux": i_bd,
            "neumann": is_neumann}
    leak = is_neumann and abs(i_bd) > NEUMANN_GATE_TOL * (1.0 + abs(i_gamma))
    if leak:
        meta["neumann_boundary_leak"] = abs(i_bd)
    tol = QUADRATURE_TOL
    out = [CheckResult(name="green", residual=res, tolerance=tol,
                       passed=res <= tol,
                       metadata={"interior_gamma": i_gamma,
                                 "interior_laplacian": i_lap,
                                 "boundary_flux": i_bd}),
           CheckResult(name="mv_laplacian", residual=res, tolerance=tol,
                       passed=res <= tol and not leak, metadata=meta)]
    if ii is None:
        return out
    lhs, rhs_i, rhs_b = ints["lhs"], ints["rhs_interior"], ints["rhs_boundary"]
    rhs = rhs_i + rhs_b
    res = abs(lhs - rhs) / (1.0 + abs(rhs))
    return out + [ii, CheckResult(
        name="ricci_decomposition", residual=res, tolerance=tol,
        passed=res <= tol,
        metadata={"lhs": lhs, "rhs_interior": rhs_i, "rhs_boundary": rhs_b,
                  "neumann_gate": ii.metadata["neumann_gate"]})]


def check_green(space: WeightedSpace, f: ScalarField, g,
                quad_interior, quad_boundary) -> CheckResult:
    """Green's formula: int Gamma(f,g) = -int f L g + oint f g(N, grad g)."""
    return weak_checks(space, g, f, None, quad_interior, quad_boundary)[0]


def check_mv_laplacian(space: WeightedSpace, g, h: ScalarField,
                       quad_interior, quad_boundary) -> CheckResult:
    """Weak measure-valued Laplacian formula tested against h:
    -int Gamma(h,g) dm == int h (L g) dm - oint h g(N, grad g) dsigma."""
    return weak_checks(space, g, h, None, quad_interior, quad_boundary)[1]


def check_ricci_decomposition(space: WeightedSpace, g: NeumannTestFunction,
                              h: ScalarField, frames: Sequence[BoundaryFrame],
                              quad_interior, quad_boundary) -> CheckResult:
    """The headline check: weak measure Ricci = Ricci_V dm + II dsigma.

    LHS(h) = -1/2 int Gamma(h, Gamma(g,g)) - int h Gamma(g, Lg)
             - int h |Hess g|^2_HS   (all against exp(-V) dVol_g)
    RHS(h) = int h Ricci_V(grad g, grad g) dm
             + oint h II(grad g, grad g) dsigma.
    """
    return weak_checks(space, g, h, frames, quad_interior, quad_boundary)[3]


def decomposition_batch(space: WeightedSpace, g: NeumannTestFunction,
                        hs: Sequence[ScalarField], quad_interior,
                        quad_boundary, boundary_counts
                        ) -> List[Tuple[float, float]]:
    """(LHS, RHS) of the decomposition for one g and many test h, from the
    Neumann gate and one weak sweep: g's order-3 terms are computed once
    per batch for the whole h family, so checking a family costs little
    more than one pair.  Each pair equals ``weak_checks``' for that h."""
    neumann_gate(g, boundary_grid(space, boundary_counts))
    return [(w["lhs"], w["rhs_interior"] + w["rhs_boundary"])
            for w in _weak_integrals(space, g.field, hs, quad_interior,
                                     quad_boundary)]


def check_ii_identity(g: NeumannTestFunction,
                      frames: Sequence[BoundaryFrame]) -> CheckResult:
    """II(grad g, grad g) = -1/2 g(N, grad |grad g|^2) on the boundary
    frames, on the jets of g that the Neumann gate read."""
    jets, gate = neumann_gate(g, frames)
    rows = []
    for bf, jg in zip(frames, jets):
        lhs = _ii_of_gradient(bf, jg)
        dg = [jg.partial(i) for i in range(jg.dim)]
        rhs = -0.5 * bf.flux(carre_du_champ_jet(bf.geom, dg).gradient())
        rows.append(({}, np.abs(lhs - rhs) / (1.0 + np.abs(lhs)), bf.point))
    worst, witness = _largest("ii_identity", rows, -1.0)
    return CheckResult(name="ii_identity", residual=worst,
                       tolerance=POINTWISE_TOL, passed=worst <= POINTWISE_TOL,
                       witness=witness,
                       metadata={"neumann_gate": gate})


def check_dimension_term(fields: Sequence[FieldOrJet], geom: NodeGeometry,
                         n_dim: float) -> CheckResult:
    """(trace_g Hess f)^2 / N <= |Hess f|^2_HS whenever N >= n, at the
    points of ``geom``.  The fields' Hessians are one stacked batch; the
    residual is the first maximum in field order, its witness that field
    and point."""
    if not n_dim >= geom.space.dim:  # NaN too
        raise ValueError(
            f"dimension parameter N = {n_dim} is not >= the chart dimension "
            f"{geom.space.dim}: the trace inequality is unsatisfiable")
    rows = []
    if fields:
        H = hessian(geom, _stacked_jets(fields, geom))
        lap = contract("ij...,ij...->...", geom.inverse, H)
        rows = _field_rows(lap**2 / n_dim - hs_norm_sq(geom, H), geom.x)
    worst, witness = _largest("dimension_term", rows, -np.inf)
    return CheckResult(name="dimension_term", residual=worst,
                       tolerance=DIMENSION_TOL, passed=worst <= DIMENSION_TOL,
                       witness=witness,
                       metadata={"n_dim": n_dim, "fields": len(fields)})


# -- eigenvalue certificates --------------------------------------------


def eigenvalues_relative(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Eigenvalues of A relative to SPD G (A v = lambda G v), batched.

    Cholesky reduction of the generalized symmetric problem; inputs are
    (n, n, ...) component arrays, output is (..., n) ascending.
    """
    Am = np.moveaxis(A, (0, 1), (-2, -1))
    Gm = np.moveaxis(G, (0, 1), (-2, -1))
    L = np.linalg.cholesky(Gm)
    Y = np.linalg.solve(L, Am)
    M = np.linalg.solve(L, np.swapaxes(Y, -2, -1))
    M = 0.5 * (M + np.swapaxes(M, -2, -1))
    return np.linalg.eigvalsh(M)


@dataclass
class CurvatureReport:
    """Sampled necessary-condition certificate, never a proof."""

    k_interior: float
    lambda_min_ii: float
    lambda_max_ii: float
    tr_ii_range: Tuple[float, float]
    rcd_infinity: Dict[float, bool]
    rcd_star: Dict[Tuple[float, float], bool]
    interior_samples: int
    boundary_samples: int
    interior_witness: List[float]
    boundary_witness: List[float]
    max_abs_ricci_v: float  # read by flatness(), not serialized

    def to_dict(self) -> Dict:
        return {
            "k_interior": self.k_interior,
            "lambda_min_ii": self.lambda_min_ii,
            "lambda_max_ii": self.lambda_max_ii,
            "tr_ii_range": list(self.tr_ii_range),
            "rcd_infinity": {str(k): v for k, v in self.rcd_infinity.items()},
            "rcd_star": {f"{k},{n}": v for (k, n), v in self.rcd_star.items()},
            "interior_samples": self.interior_samples,
            "boundary_samples": self.boundary_samples,
            "interior_witness": self.interior_witness,
            "boundary_witness": self.boundary_witness,
            "certificate": "sampled necessary-condition certificate",
        }

    def flatness(self) -> CheckResult:
        """Measure-Ricci-flatness on these samples: Ricci_V = 0 inside,
        II (or tr II) = 0 on the boundary, each to ``VERDICT_SLACK``.  Both
        the strong (full II) and trace-only readings are reported."""
        tol = VERDICT_SLACK
        max_ricci = self.max_abs_ricci_v
        max_ii = max(abs(self.lambda_min_ii), abs(self.lambda_max_ii))
        max_tr = max(abs(self.tr_ii_range[0]), abs(self.tr_ii_range[1]))
        strong = max_ricci <= tol and max_ii <= tol
        return CheckResult(
            name="flatness", residual=max(max_ricci, max_ii), tolerance=tol,
            passed=strong,
            metadata={"max_abs_ricci_v": max_ricci, "max_abs_tr_ii": max_tr,
                      "max_abs_ii": max_ii, "strong_flat": strong,
                      "minimal_trace": max_tr <= tol,
                      "interior_flat": max_ricci <= tol})


def interior_spectrum(geom: NodeGeometry) -> np.ndarray:
    """The eigenvalues of Ricci_V relative to g at the interior sample
    points of ``geom``, (m, n) ascending.  A non-finite eigenvalue cannot
    be ranked: EvalError at its point."""
    eigs = eigenvalues_relative(bakry_emery_ricci(geom), geom.metric)
    _largest("ricci_v", [({}, np.max(np.abs(eigs), axis=-1), geom.x)], 0.0)
    return eigs


def boundary_spectrum(frames: Sequence[BoundaryFrame]) -> Tuple:
    """The points of the boundary frames in order, the eigenvalues of II
    there, (m, n-1) ascending, and tr II.  A non-finite II cannot be
    ranked: EvalError at its point."""
    II = np.concatenate([bf.II for bf in frames], axis=-1)
    xb = np.concatenate([bf.point for bf in frames], axis=-1)
    _largest("ii", [({}, np.max(np.abs(II), axis=(0, 1)), xb)], 0.0)
    return (xb, np.linalg.eigvalsh(np.moveaxis(II, (0, 1), (-2, -1))),
            np.einsum("aa...->...", II))


def certify(geom: NodeGeometry, frames: Sequence[BoundaryFrame],
            k_list: Sequence[float], n_list: Sequence[float] = ()
            ) -> CurvatureReport:
    """Sampled RCD verdicts from relative eigenvalues of Ricci_V at the
    interior sample points of ``geom`` and of II on the boundary sample
    frames."""
    x = geom.x
    if x.shape[1] == 0:
        raise ValueError("empty interior sample plan")
    if not frames:
        raise ValueError("empty boundary sample plan")
    eigs = interior_spectrum(geom)
    ki = int(np.argmin(eigs[:, 0]))
    k_interior = float(eigs[ki, 0])
    xb, eig, tr = boundary_spectrum(frames)
    bi = int(np.argmin(eig[:, 0]))
    lam_ii_min = float(eig[bi, 0])
    convex = lam_ii_min >= -VERDICT_SLACK
    rcd_inf = {float(k): bool(convex and k_interior >= k - VERDICT_SLACK)
               for k in k_list}
    rcd_star = {}
    for k in k_list:
        for nn in n_list:
            rcd_star[(float(k), float(nn))] = bool(
                rcd_inf[float(k)] and nn >= geom.space.dim)
    return CurvatureReport(
        k_interior=k_interior, lambda_min_ii=lam_ii_min,
        lambda_max_ii=float(np.max(eig[:, -1])),
        tr_ii_range=(float(np.min(tr)), float(np.max(tr))),
        rcd_infinity=rcd_inf, rcd_star=rcd_star,
        interior_samples=x.shape[1], boundary_samples=xb.shape[1],
        interior_witness=_witness_point(x, ki),
        boundary_witness=_witness_point(xb, bi),
        max_abs_ricci_v=float(np.max(np.abs(eigs))))


def flatness_report(space: WeightedSpace, plan: SamplePlan) -> CheckResult:
    """Measure-Ricci-flatness at the plan's sampling: the certificate's
    spectra read by ``CurvatureReport.flatness``."""
    return certify(*plan.grids(space), ()).flatness()

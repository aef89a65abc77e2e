"""Built-in reference spaces with analytic ground truth.

Every entry uses a chart in which the boundary lies on chart-box faces
(half-space and polar/spherical charts), so interior quadrature never
clips a Gauss rule across a curved boundary and keeps its spectral
accuracy.  Expected values are intrinsic and chart-independent.

Entries (parameters in brackets):

* ``half_space``          -- flat R^2, y > 0, V = 0
* ``gaussian_half_space`` -- flat R^2, y > 0, V = (x^2 + y^2)/2
* ``ball(R)``             -- Euclidean disk of radius R (polar chart)
* ``annulus(r, R)``       -- r < rho < R, inner boundary non-convex
* ``hemisphere(r)``       -- round sphere chart, theta < pi/2
* ``poincare_cap(rho)``   -- hyperbolic disk (conformal factor
                             4/(1-rho^2)^2), rho < cap radius
* ``ball3(R)``            -- Euclidean 3-ball (spherical chart)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .boundary import NeumannTestFunction, make_neumann
from .fields import ConstField, CutoffField, CutoffSpec, ExprField, ScalarField
from .geometry import NodeGeometry, WeightedSpace
from .quadrature import BoundaryPatch
from .verify import SamplePlan, interior_grid

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

# On periodic charts the angle axis carries no cutoff at all: every
# base/test field is chosen 2*pi-periodic, so the integrands are
# analytic in the angle and Gauss quadrature converges spectrally
# there.  Only the radial axis carries the (deliberately wide) bump
# taper, whose high derivatives scale like (taper width)^-k.
_FULL_ANGLE = (0.0, TWO_PI)


class ZooError(ValueError):
    """Unknown entry name or invalid parameters."""


@dataclass
class ZooEntry:
    name: str
    space: WeightedSpace
    expected: Dict[str, float]
    provenance: Dict[str, str]
    plan: SamplePlan
    cutoff: CutoffSpec
    neumann_bases: List[str]
    neumann_collars: Tuple[CutoffSpec, ...] = ()
    h_sources: List[str] = field(default_factory=list)

    def neumann(self, w_src: str) -> NeumannTestFunction:
        return make_neumann(self.space, ExprField(w_src, self.space.dim),
                            self.cutoff, self.neumann_collars, label=w_src)

    def neumann_family(self) -> List[NeumannTestFunction]:
        return [self.neumann(w) for w in self.neumann_bases]

    def h_fields(self) -> List[ScalarField]:
        chi = CutoffField(self.cutoff)
        out: List[ScalarField] = [chi]
        for src in self.h_sources:
            out.append(chi * ExprField(src, self.space.dim))
        return out

    def random_fields(self, count: int, seed: int) -> List[ScalarField]:
        return random_fields(self.space.dim, count, seed)

    def interior_points(self, counts=None) -> np.ndarray:
        return interior_grid(self.space,
                             counts or self.plan.interior_counts)


def random_fields(dim: int, count: int, seed: int) -> List[ScalarField]:
    """Random bounded polynomial/trig composite test fields: the same
    sources for the same (dim, count, seed), parsed afresh into a new
    list on each call."""
    rng = np.random.default_rng(seed)
    names = ["x", "y", "z", "w"][:dim]
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


def _euclidean_metric(dim: int):
    return [[ConstField(dim, 1.0 if i == j else 0.0) for j in range(dim)]
            for i in range(dim)]


def _diag_metric(dim: int, exprs: Sequence[str]):
    m = [[ConstField(dim, 0.0) for _ in range(dim)] for _ in range(dim)]
    for i, e in enumerate(exprs):
        m[i][i] = ExprField(e, dim)
    return m


def _spec(inner, outer) -> CutoffSpec:
    return CutoffSpec(tuple(inner), tuple(outer))


def _require(cond: bool, msg: str):
    if not cond:
        raise ZooError(msg)


def _half_space(weighted: bool) -> ZooEntry:
    dim = 2
    V = ExprField("(x^2 + y^2)/2", dim) if weighted else ConstField(dim, 0.0)
    space = WeightedSpace(
        dim=dim, metric=_euclidean_metric(dim), weight=V,
        defining_fn=ExprField("-y", dim),
        chart_box=[(-2.7, 2.7), (0.0, 2.7)],
        boundary_patches=[BoundaryPatch(
            param_box=[(-2.7, 2.7)],
            maps=[ExprField("x", 1), ExprField("0", 1)], label="y=0")],
        label="gaussian_half_space" if weighted else "half_space")
    cutoff = _spec(inner=((-0.8, 0.8), (0.0, 0.8)),
                   outer=((-2.6, 2.6), (0.0, 2.6)))
    expected = {
        "k_interior": 1.0 if weighted else 0.0,
        "lambda_min_ii": 0.0,
        "tr_ii": 0.0,
        "strong_flat": not weighted,
        "minimal_trace": True,
    }
    provenance = {
        "k_interior": ("TRIVIAL: Hessian of the quadratic weight is the "
                       "identity" if weighted else "TRIVIAL: flat metric, "
                       "zero weight"),
        "lambda_min_ii": "TRIVIAL: constant normal on a flat boundary",
        "tr_ii": "TRIVIAL: flat boundary",
    }
    return ZooEntry(
        name=space.label, space=space, expected=expected,
        provenance=provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(192, 192), quad_boundary=(256,)),
        cutoff=cutoff,
        neumann_bases=["0.08*x", "0.06*x*y^2", "0.08*sin(x)",
                       "0.06*x + 0.06*y^2", "0.05*x^2"],
        h_sources=["1 + 0.3*sin(x)", "1 + 0.2*x*y", "x^2/4 + 1",
                   "1 + 0.1*y", "cos(0.5*x)"])


def _ball(R: float) -> ZooEntry:
    _require(R > 0, f"ball radius must be positive, got {R}")
    dim = 2
    space = WeightedSpace(
        dim=dim, metric=_diag_metric(dim, ["1", "x^2"]),
        weight=ConstField(dim, 0.0),
        defining_fn=ExprField(f"x - {R!r}", dim),
        chart_box=[(0.1 * R, R), (0.0, TWO_PI)],
        boundary_patches=[BoundaryPatch(
            param_box=[(0.0, TWO_PI)],
            maps=[ExprField(f"{R!r}", 1), ExprField("x", 1)],
            label="rho=R")],
        label=f"ball(R={R})")
    cutoff = _spec(inner=((0.6 * R, R), _FULL_ANGLE),
                   outer=((0.15 * R, R), _FULL_ANGLE))
    expected = {
        "k_interior": 0.0,
        "lambda_min_ii": 1.0 / R,
        "tr_ii": 1.0 / R,
        "strong_flat": False,
        "minimal_trace": False,
    }
    provenance = {
        "k_interior": "TRIVIAL: flat metric in polar coordinates",
        "lambda_min_ii": "DERIVED: finite-difference normal oracle; "
                         "classical circle curvature 1/R",
        "tr_ii": "DERIVED: same oracle",
    }
    return ZooEntry(
        name="ball", space=space, expected=expected, provenance=provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(224, 32), quad_boundary=(256,)),
        cutoff=cutoff,
        neumann_bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2",
                       "0.3*x*sin(y)", "0.25*x^2*cos(y)"],
        h_sources=["1 + 0.3*sin(y)", "1 + 0.2*x", "x^2",
                   "1 + 0.1*x*cos(y)", "1 + 0.2*sin(2*y)"])


def _annulus(r: float, R: float) -> ZooEntry:
    _require(0 < r < R, f"annulus needs 0 < r < R, got r={r}, R={R}")
    dim = 2
    space = WeightedSpace(
        dim=dim, metric=_diag_metric(dim, ["1", "x^2"]),
        weight=ConstField(dim, 0.0),
        defining_fn=ExprField(f"(x - {r!r})*(x - {R!r})", dim),
        chart_box=[(r, R), (0.0, TWO_PI)],
        boundary_patches=[
            BoundaryPatch(param_box=[(0.0, TWO_PI)],
                          maps=[ExprField(f"{r!r}", 1), ExprField("x", 1)],
                          label="inner"),
            BoundaryPatch(param_box=[(0.0, TWO_PI)],
                          maps=[ExprField(f"{R!r}", 1), ExprField("x", 1)],
                          label="outer"),
        ],
        label=f"annulus(r={r},R={R})")
    w = R - r
    cutoff = _spec(inner=((r, R), _FULL_ANGLE),
                   outer=((r, R), _FULL_ANGLE))
    # correction collars hug each boundary circle, away from the
    # mid-annulus critical point of phi where Gamma(phi,phi) = 0
    collars = (
        _spec(inner=((r, r + 0.15 * w), (0.0, TWO_PI)),
              outer=((r, r + 0.44 * w), (0.0, TWO_PI))),
        _spec(inner=((R - 0.15 * w, R), (0.0, TWO_PI)),
              outer=((R - 0.44 * w, R), (0.0, TWO_PI))),
    )
    expected = {
        "k_interior": 0.0,
        "lambda_min_ii": -1.0 / r,
        "tr_ii": -1.0 / r,
        "strong_flat": False,
        "minimal_trace": False,
    }
    provenance = {
        "k_interior": "TRIVIAL: flat metric",
        "lambda_min_ii": "DERIVED: finite-difference normal oracle on the "
                         "inner circle; sign fixed by the outward convention",
        "tr_ii": "DERIVED: same oracle",
    }
    return ZooEntry(
        name="annulus", space=space, expected=expected,
        provenance=provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(224, 32), quad_boundary=(256,)),
        cutoff=cutoff, neumann_collars=collars,
        neumann_bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2",
                       "0.3*x*sin(y)", "0.3*x"],
        h_sources=["1 + 0.3*sin(y)", "1 + 0.2*x", "x^2",
                   "1 + 0.1*x*cos(y)", "1 + 0.2*sin(2*y)"])


def _hemisphere(r: float) -> ZooEntry:
    _require(r > 0, f"hemisphere radius must be positive, got {r}")
    dim = 2
    space = WeightedSpace(
        dim=dim,
        metric=_diag_metric(dim, [f"{r * r!r}", f"{r * r!r}*sin(x)^2"]),
        weight=ConstField(dim, 0.0),
        defining_fn=ExprField(f"x - {HALF_PI!r}", dim),
        chart_box=[(0.2, HALF_PI), (0.0, TWO_PI)],
        boundary_patches=[BoundaryPatch(
            param_box=[(0.0, TWO_PI)],
            maps=[ExprField(f"{HALF_PI!r}", 1), ExprField("x", 1)],
            label="equator")],
        label=f"hemisphere(r={r})")
    # supports stay away from the chart singularity at the pole theta=0
    cutoff = _spec(inner=((0.9, HALF_PI), _FULL_ANGLE),
                   outer=((0.35, HALF_PI), _FULL_ANGLE))
    expected = {
        "k_interior": 1.0 / (r * r),
        "lambda_min_ii": 0.0,
        "tr_ii": 0.0,
        "strong_flat": False,
        "minimal_trace": True,
    }
    provenance = {
        "k_interior": "DERIVED: finite-difference Christoffel oracle; "
                      "round-sphere Ricci = (1/r^2) g",
        "lambda_min_ii": "DERIVED: equator is totally geodesic",
        "tr_ii": "DERIVED: same oracle",
    }
    return ZooEntry(
        name="hemisphere", space=space, expected=expected,
        provenance=provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(256, 32), quad_boundary=(256,)),
        cutoff=cutoff,
        neumann_bases=["0.4*sin(x)*sin(y)", "0.4*sin(x)*cos(y)",
                       "0.5*cos(x)", "0.3*x*sin(y)", "0.25*x^2"],
        h_sources=["1 + 0.3*sin(y)", "1 + 0.2*x", "x^2",
                   "1 + 0.1*x*cos(y)", "1 + 0.2*sin(2*y)"])


def _poincare_cap(rho: float) -> ZooEntry:
    _require(0 < rho < 1, f"poincare_cap needs 0 < rho < 1, got {rho}")
    dim = 2
    space = WeightedSpace(
        dim=dim,
        metric=_diag_metric(dim, ["4/(1 - x^2)^2", "4*x^2/(1 - x^2)^2"]),
        weight=ConstField(dim, 0.0),
        defining_fn=ExprField(f"x - {rho!r}", dim),
        chart_box=[(0.1 * rho, rho), (0.0, TWO_PI)],
        boundary_patches=[BoundaryPatch(
            param_box=[(0.0, TWO_PI)],
            maps=[ExprField(f"{rho!r}", 1), ExprField("x", 1)],
            label="cap")],
        label=f"poincare_cap(rho={rho})")
    cutoff = _spec(inner=((0.6 * rho, rho), _FULL_ANGLE),
                   outer=((0.15 * rho, rho), _FULL_ANGLE))
    expected = {
        "k_interior": -1.0,
        # geodesic curvature of the hyperbolic circle of Euclidean
        # radius rho in the disk model
        "lambda_min_ii": (1.0 + rho * rho) / (2.0 * rho),
        "tr_ii": (1.0 + rho * rho) / (2.0 * rho),
        "strong_flat": False,
        "minimal_trace": False,
    }
    provenance = {
        "k_interior": "DERIVED: finite-difference curvature oracle; "
                      "hyperbolic plane Ricci = -g",
        "lambda_min_ii": "DERIVED: finite-difference normal oracle; "
                         "coth of the hyperbolic radius",
        "tr_ii": "DERIVED: same oracle",
    }
    return ZooEntry(
        name="poincare_cap", space=space, expected=expected,
        provenance=provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(224, 32), quad_boundary=(256,)),
        cutoff=cutoff,
        neumann_bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2",
                       "0.3*x*sin(y)", "0.25*x^2*cos(y)"],
        h_sources=["1 + 0.3*sin(y)", "1 + 0.2*x", "x^2",
                   "1 + 0.1*x*cos(y)", "1 + 0.2*sin(2*y)"])


def _ball3(R: float) -> ZooEntry:
    _require(R > 0, f"ball3 radius must be positive, got {R}")
    dim = 3
    space = WeightedSpace(
        dim=dim, metric=_diag_metric(dim, ["1", "x^2", "x^2*sin(y)^2"]),
        weight=ConstField(dim, 0.0),
        defining_fn=ExprField(f"x - {R!r}", dim),
        chart_box=[(0.1 * R, R), (0.35, math.pi - 0.35), (0.0, TWO_PI)],
        boundary_patches=[BoundaryPatch(
            param_box=[(0.35, math.pi - 0.35), (0.0, TWO_PI)],
            maps=[ExprField(f"{R!r}", 2), ExprField("x", 2),
                  ExprField("y", 2)],
            label="rho=R")],
        label=f"ball3(R={R})")
    # The Neumann bases are radial, so Gamma(g, g) is independent of the
    # polar angle and the truncated-cone faces of the chart carry no flux:
    # no polar taper is needed and every integrand stays analytic in both
    # angles (only the radial axis carries the bump).
    theta_range = (0.35, math.pi - 0.35)
    cutoff = _spec(
        inner=((0.6 * R, R), theta_range, _FULL_ANGLE),
        outer=((0.2 * R, R), theta_range, _FULL_ANGLE))
    expected = {
        "k_interior": 0.0,
        "lambda_min_ii": 1.0 / R,
        "tr_ii": 2.0 / R,
        "strong_flat": False,
        "minimal_trace": False,
    }
    provenance = {
        "k_interior": "TRIVIAL: flat metric in spherical coordinates",
        "lambda_min_ii": "DERIVED: finite-difference normal oracle; both "
                         "principal curvatures 1/R",
        "tr_ii": "DERIVED: same oracle",
    }
    return ZooEntry(
        name="ball3", space=space, expected=expected, provenance=provenance,
        plan=SamplePlan(interior_counts=(10, 10, 10),
                        boundary_counts=(20, 20),
                        quad_interior=(256, 16, 8), quad_boundary=(16, 16)),
        cutoff=cutoff,
        neumann_bases=["0.4*x", "0.3*x^2", "0.25*x^3"],
        h_sources=["1 + 0.3*sin(z)", "1 + 0.2*x", "1 + 0.2*cos(y)"])


_BUILDERS = {
    "half_space": (lambda: _half_space(False), {}),
    "gaussian_half_space": (lambda: _half_space(True), {}),
    "ball": (_ball, {"R": 1.0}),
    "annulus": (_annulus, {"r": 0.5, "R": 1.0}),
    "hemisphere": (_hemisphere, {"r": 1.0}),
    "poincare_cap": (_poincare_cap, {"rho": 0.7}),
    "ball3": (_ball3, {"R": 1.0}),
}


def list_entries() -> List[str]:
    return sorted(_BUILDERS)


def load(name: str, **params) -> ZooEntry:
    """Load a zoo entry by name; unknown params are rejected."""
    if name not in _BUILDERS:
        raise ZooError(f"unknown zoo entry {name!r}; "
                       f"known: {', '.join(list_entries())}")
    builder, defaults = _BUILDERS[name]
    bad = set(params) - set(defaults)
    if bad:
        raise ZooError(f"unknown parameter(s) {sorted(bad)} for {name!r}")
    kwargs = {**defaults, **{k: float(v) for k, v in params.items()}}
    entry = builder(**kwargs) if kwargs else builder()
    _light_validate(entry)
    return entry


def _light_validate(entry: ZooEntry):
    """SPD metric on a coarse interior grid; patches reachable."""
    x = interior_grid(entry.space, (6,) * entry.space.dim)
    NodeGeometry(entry.space, x)  # raises on non-SPD
    for patch in entry.space.boundary_patches:
        from .quadrature import patch_points
        patch_points(entry.space, patch, (4,) * patch.param_dim)


def parse_ref(ref: str) -> ZooEntry:
    """Parse a CLI reference like ``annulus,r=0.5,R=1``."""
    parts = [p.strip() for p in ref.split(",") if p.strip()]
    if not parts:
        raise ZooError("empty zoo reference")
    name, params = parts[0], {}
    for p in parts[1:]:
        if "=" not in p:
            raise ZooError(f"bad zoo parameter {p!r} (expected key=value)")
        k, v = p.split("=", 1)
        try:
            params[k.strip()] = float(v)
        except ValueError:
            raise ZooError(f"bad numeric value {v!r} for parameter "
                           f"{k.strip()!r}") from None
    return load(name, **params)

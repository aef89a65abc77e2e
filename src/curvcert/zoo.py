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

``load`` and ``parse_ref`` return each entry as a ``verify.Target``
carrying its expected values and their provenance.  The four polar
entries (ball, annulus, hemisphere, poincare_cap) are parameter sets of
one builder, ``_polar``, on one chart skeleton.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .fields import ConstField, CutoffSpec, ExprField
from .geometry import NodeGeometry, WeightedSpace
from .quadrature import BoundaryPatch, patch_points
from .verify import SamplePlan, Target, interior_grid

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0
Range = Tuple[float, float]  # an interval of one chart axis

# On periodic charts the angle axis carries no cutoff at all: every
# base/test field is chosen 2*pi-periodic, so the integrands are
# analytic in the angle and Gauss quadrature converges spectrally
# there.  Only the radial axis carries the (deliberately wide) bump
# taper, whose high derivatives scale like (taper width)^-k.
_FULL_ANGLE = (0.0, TWO_PI)


class ZooError(ValueError):
    """Unknown entry name or invalid parameters."""


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


def _entry(name: str, space: WeightedSpace, expected: Dict[str, float],
           provenance: Dict[str, str], plan: SamplePlan, cutoff: CutoffSpec,
           bases: List[str], h_sources: Sequence[str],
           collars: Tuple[CutoffSpec, ...] = ()) -> Target:
    """An entry as the ``Target`` every run reads, labelled as its space."""
    return Target(name=name, label=space.label, space=space, plan=plan,
                  cutoff=cutoff, neumann_bases=bases,
                  h_sources=list(h_sources), collars=collars,
                  expected=expected, provenance=provenance, error=ZooError)


def _half_space(weighted: bool) -> Target:
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
    return _entry(
        space.label, space, expected, provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(192, 192), quad_boundary=(256,)),
        cutoff=cutoff,
        bases=["0.08*x", "0.06*x*y^2", "0.08*sin(x)", "0.06*x + 0.06*y^2",
               "0.05*x^2"],
        h_sources=["1 + 0.3*sin(x)", "1 + 0.2*x*y", "x^2/4 + 1",
                   "1 + 0.1*y", "cos(0.5*x)"])


def _radial_spec(inner: Range, outer: Range) -> CutoffSpec:
    return _spec(inner=(inner, _FULL_ANGLE), outer=(outer, _FULL_ANGLE))


# the test densities' factors on every polar entry: 2*pi-periodic in the
# angle, so the integrands stay analytic there (see ``_FULL_ANGLE``)
_POLAR_H_SOURCES = ("1 + 0.3*sin(y)", "1 + 0.2*x", "x^2", "1 + 0.1*x*cos(y)",
                    "1 + 0.2*sin(2*y)")


def _polar(name: str, label: str, metric: Tuple[str, str], phi: str,
           radial: Range, circles: Sequence[Tuple[float, str]],
           cutoff: Tuple[Range, Range], curvature: Tuple[float, str],
           geodesic_curvature: Tuple[float, str], bases: List[str],
           collars: Sequence[Tuple[Range, Range]] = (),
           quad_radial: int = 224) -> Target:
    """An unweighted 2-D entry on the polar chart ``radial`` x (0, 2*pi)
    in (x, y) = (radius, angle), with the diagonal metric
    ``metric`` = (g_xx, g_yy) and the defining function ``phi``.

    Each ``(radius, label)`` of ``circles`` is a boundary circle, and
    ``cutoff`` and each of ``collars`` an (inner, outer) pair of radial
    ranges: they taper in the radius only.  ``curvature`` is the Gauss
    curvature K (Ricci = K g) and ``geodesic_curvature`` the boundary's
    II, each a (value, provenance) pair; a boundary curve's II has one
    eigenvalue, which is also its trace."""
    space = WeightedSpace(
        dim=2, metric=_diag_metric(2, metric), weight=ConstField(2, 0.0),
        defining_fn=ExprField(phi, 2), chart_box=[radial, (0.0, TWO_PI)],
        boundary_patches=[BoundaryPatch(
            param_box=[(0.0, TWO_PI)],
            maps=[ExprField(f"{rho!r}", 1), ExprField("x", 1)], label=where)
            for rho, where in circles],
        label=label)
    (k, k_source), (kappa, kappa_source) = curvature, geodesic_curvature
    expected = {
        "k_interior": k,
        "lambda_min_ii": kappa,
        "tr_ii": kappa,
        "strong_flat": k == 0.0 and kappa == 0.0,
        "minimal_trace": kappa == 0.0,
    }
    provenance = {"k_interior": k_source, "lambda_min_ii": kappa_source,
                  "tr_ii": "DERIVED: same oracle"}
    return _entry(
        name, space, expected, provenance,
        plan=SamplePlan(interior_counts=(24, 24), boundary_counts=(96,),
                        quad_interior=(quad_radial, 32),
                        quad_boundary=(256,)),
        cutoff=_radial_spec(*cutoff), bases=bases,
        h_sources=_POLAR_H_SOURCES,
        collars=tuple(_radial_spec(*c) for c in collars))


def _ball(R: float) -> Target:
    _require(R > 0, f"ball radius must be positive, got {R}")
    return _polar(
        "ball", f"ball(R={R})", metric=("1", "x^2"), phi=f"x - {R!r}",
        radial=(0.1 * R, R), circles=[(R, "rho=R")],
        cutoff=((0.6 * R, R), (0.15 * R, R)),
        curvature=(0.0, "TRIVIAL: flat metric in polar coordinates"),
        geodesic_curvature=(1.0 / R, "DERIVED: finite-difference normal "
                            "oracle; classical circle curvature 1/R"),
        bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2", "0.3*x*sin(y)",
               "0.25*x^2*cos(y)"])


def _annulus(r: float, R: float) -> Target:
    _require(0 < r < R, f"annulus needs 0 < r < R, got r={r}, R={R}")
    w = R - r
    return _polar(
        "annulus", f"annulus(r={r},R={R})", metric=("1", "x^2"),
        phi=f"(x - {r!r})*(x - {R!r})", radial=(r, R),
        circles=[(r, "inner"), (R, "outer")], cutoff=((r, R), (r, R)),
        # correction collars hug each boundary circle, away from the
        # mid-annulus critical point of phi where Gamma(phi,phi) = 0
        collars=(((r, r + 0.15 * w), (r, r + 0.44 * w)),
                 ((R - 0.15 * w, R), (R - 0.44 * w, R))),
        curvature=(0.0, "TRIVIAL: flat metric"),
        geodesic_curvature=(-1.0 / r, "DERIVED: finite-difference normal "
                            "oracle on the inner circle; sign fixed by the "
                            "outward convention"),
        bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2", "0.3*x*sin(y)",
               "0.3*x"])


def _hemisphere(r: float) -> Target:
    _require(r > 0, f"hemisphere radius must be positive, got {r}")
    return _polar(
        "hemisphere", f"hemisphere(r={r})",
        metric=(f"{r * r!r}", f"{r * r!r}*sin(x)^2"),
        phi=f"x - {HALF_PI!r}", radial=(0.2, HALF_PI),
        circles=[(HALF_PI, "equator")],
        # supports stay away from the chart singularity at the pole theta=0
        cutoff=((0.9, HALF_PI), (0.35, HALF_PI)),
        curvature=(1.0 / (r * r), "DERIVED: finite-difference Christoffel "
                   "oracle; round-sphere Ricci = (1/r^2) g"),
        geodesic_curvature=(0.0, "DERIVED: equator is totally geodesic"),
        bases=["0.4*sin(x)*sin(y)", "0.4*sin(x)*cos(y)", "0.5*cos(x)",
               "0.3*x*sin(y)", "0.25*x^2"],
        quad_radial=256)


def _poincare_cap(rho: float) -> Target:
    _require(0 < rho < 1, f"poincare_cap needs 0 < rho < 1, got {rho}")
    return _polar(
        "poincare_cap", f"poincare_cap(rho={rho})",
        metric=("4/(1 - x^2)^2", "4*x^2/(1 - x^2)^2"), phi=f"x - {rho!r}",
        radial=(0.1 * rho, rho), circles=[(rho, "cap")],
        cutoff=((0.6 * rho, rho), (0.15 * rho, rho)),
        curvature=(-1.0, "DERIVED: finite-difference curvature oracle; "
                   "hyperbolic plane Ricci = -g"),
        # geodesic curvature of the hyperbolic circle of Euclidean
        # radius rho in the disk model
        geodesic_curvature=((1.0 + rho * rho) / (2.0 * rho),
                            "DERIVED: finite-difference normal oracle; "
                            "coth of the hyperbolic radius"),
        bases=["0.4*sin(y)", "0.4*x*cos(y)", "0.3*x^2", "0.3*x*sin(y)",
               "0.25*x^2*cos(y)"])


def _ball3(R: float) -> Target:
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
    return _entry(
        "ball3", space, expected, provenance,
        plan=SamplePlan(interior_counts=(10, 10, 10),
                        boundary_counts=(20, 20),
                        quad_interior=(256, 16, 8), quad_boundary=(16, 16)),
        cutoff=cutoff, bases=["0.4*x", "0.3*x^2", "0.25*x^3"],
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


def load(name: str, **params) -> Target:
    """Load a zoo entry by name; unknown params are rejected."""
    if name not in _BUILDERS:
        raise ZooError(f"unknown zoo entry {name!r}; "
                       f"known: {', '.join(list_entries())}")
    builder, defaults = _BUILDERS[name]
    bad = set(params) - set(defaults)
    if bad:
        raise ZooError(f"unknown parameter(s) {sorted(bad)} for {name!r}")
    kwargs = {**defaults, **{k: float(v) for k, v in params.items()}}
    for k in params:
        if not math.isfinite(kwargs[k]):
            raise ZooError(f"parameter {k}={kwargs[k]} for {name!r} must be "
                           f"finite")
    entry = builder(**kwargs) if kwargs else builder()
    _light_validate(entry)
    return entry


def _light_validate(entry: Target):
    """SPD metric on a coarse interior grid; patches reachable."""
    x = interior_grid(entry.space, (6,) * entry.space.dim)
    NodeGeometry(entry.space, x)  # raises on non-SPD
    for patch in entry.space.boundary_patches:
        patch_points(entry.space, patch, (4,) * patch.param_dim)


def parse_ref(ref: str) -> Target:
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

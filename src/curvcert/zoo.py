"""Built-in reference spaces with analytic ground truth.

Each entry is a space file, ``spaces/<name>.ini`` in this package, read
by the one INI loader of ``config``; the files are worked examples of
every section, their parameters' included.  Every entry uses a chart in
which the boundary lies on chart-box faces (half-space and
polar/spherical charts), so interior quadrature never clips a Gauss
rule across a curved boundary and keeps its spectral accuracy.
Expected values are intrinsic and chart-independent.

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
carrying its expected values and their provenance.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List

from . import config
from .geometry import NodeGeometry
from .quadrature import patch_points
from .verify import Target, interior_grid

SPACES = Path(__file__).resolve().parent / "spaces"


class ZooError(ValueError):
    """Unknown entry name or invalid parameters."""


def list_entries() -> List[str]:
    return sorted(p.stem for p in SPACES.iterdir() if p.suffix == ".ini")


def load(name: str, **params) -> Target:
    """Load a zoo entry by name at ``params`` over its file's defaults;
    unknown, non-finite or out-of-domain params are rejected."""
    if name not in list_entries():
        raise ZooError(f"unknown zoo entry {name!r}; "
                       f"known: {', '.join(list_entries())}")
    try:
        entry = config._load(str(SPACES / f"{name}.ini"),
                             {k: float(v) for k, v in params.items()})
    except config.ConfigError as exc:
        raise ZooError(f"{name}: {exc}") from None
    # the describe output prints no expr.* line for an entry
    entry = dataclasses.replace(entry, name=name, expressions={},
                                error=ZooError)
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

"""Assemble and serialize check suites for one space.

A ``Target`` bundles everything a run needs: the space, sampling plan,
cutoff, Neumann base expressions, and test-density expressions.  Targets
come from the zoo or from an INI space file.  ``run_suite`` executes the
full check battery, building each sample grid once; the render functions
emit deterministic text, JSON, or CSV (ordered reductions, fixed field
order, no wall clock except the explicitly labeled timing field).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import NeumannTestFunction
from .config import ConfigError, SpaceConfig
from .fields import CutoffField, CutoffSpec, ExprField, ScalarField
from .geometry import NodeGeometry, WeightedSpace
from .verify import (CheckResult, CurvatureReport, SamplePlan,
                     boundary_spectrum, certify, check_bochner,
                     check_dimension_term, interior_grid, interior_spectrum,
                     weak_checks)
from .zoo import ZooError

_VAR_NAMES = ("x", "y", "z", "w")
# a Neumann field below this share of its base's size is rounding noise
NEUMANN_ZERO_REL = 1e-12


@dataclass
class Target:
    label: str
    space: WeightedSpace
    plan: SamplePlan
    cutoff: Optional[CutoffSpec]
    neumann_bases: List[str]
    h_sources: List[str]
    collars: Tuple[CutoffSpec, ...] = ()
    expected: Dict[str, float] = field(default_factory=dict)
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
        from .boundary import make_neumann
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

    def h_field(self, src: Optional[str] = None) -> ScalarField:
        chi = CutoffField(self.require_cutoff())
        if src is None and not self.h_sources:
            return chi
        return chi * ExprField(src if src is not None else self.h_sources[0],
                               self.space.dim)

    def random_fields(self, count: int, seed: int) -> List[ScalarField]:
        from .zoo import random_fields
        return random_fields(self.space.dim, count, seed)


def target_from_zoo(entry) -> Target:
    return Target(label=entry.space.label, space=entry.space,
                  plan=entry.plan, cutoff=entry.cutoff,
                  neumann_bases=list(entry.neumann_bases),
                  h_sources=list(entry.h_sources),
                  collars=entry.neumann_collars,
                  expected=dict(entry.expected), error=ZooError)


def target_from_config(cfg: SpaceConfig) -> Target:
    dim = cfg.space.dim
    bases = [f"0.3*{_VAR_NAMES[i]}" for i in range(dim)]
    return Target(label=cfg.source_path, space=cfg.space, plan=cfg.plan,
                  cutoff=cfg.cutoff, neumann_bases=bases, h_sources=[],
                  expressions=dict(cfg.expressions), error=ConfigError)


def bochner_geometry(sample: NodeGeometry, limit: int = 100) -> NodeGeometry:
    """The pointwise checks' grid: the geometry at at most ``limit`` of the
    interior sample points of ``sample``, evenly spread through them;
    ``sample`` itself when it holds no more."""
    x = sample.x
    if x.shape[1] <= limit:
        return sample
    idx = np.linspace(0, x.shape[1] - 1, limit).astype(int)
    return NodeGeometry(sample.space, x[:, idx])


def run_suite(target: Target, k_list: Sequence[float] = (0.0,),
              n_list: Sequence[float] = ()) -> Dict:
    """Full battery: pointwise checks, weak identities, certificates, each
    grid built once and read by every check that samples it."""
    space, plan = target.space, target.plan
    sample, frames = plan.grids(space)
    geom = bochner_geometry(sample)
    jets = [f.jet(geom.x) for f in target.random_fields(10, seed=11)]
    results: List[CheckResult] = [
        check_bochner(jets, geom),
        check_dimension_term(jets, geom, float(space.dim))]
    cert = certify(sample, frames, k_list, n_list)
    del jets, geom, sample  # not held through the weak sweep
    results += weak_checks(space, target.neumann(), target.h_field(), frames,
                           plan.quad_interior, plan.quad_boundary)
    return {
        "label": target.label,
        "checks": results,
        "certificate": cert,
        "flatness": cert.flatness(),
        "passed": all(r.passed for r in results),
    }


def suite_to_dict(suite: Dict, timing: Optional[float] = None) -> Dict:
    out = {
        "label": suite["label"],
        "checks": [r.to_dict() for r in suite["checks"]],
        "certificate": suite["certificate"].to_dict(),
        "flatness": suite["flatness"].to_dict(),
        "passed": suite["passed"],
    }
    if timing is not None:
        out["timing_seconds"] = timing
    return out


def render_text(suite: Dict, timing: Optional[float] = None) -> str:
    lines = [f"space: {suite['label']}", ""]
    for r in suite["checks"]:
        lines.append(str(r))
    lines.append("")
    cert: CurvatureReport = suite["certificate"]
    lines.append("curvature certificate (sampled necessary conditions):")
    lines.append(f"  K_interior    = {cert.k_interior:.12g}")
    lines.append(f"  lambda_min_II = {cert.lambda_min_ii:.12g}")
    lines.append(f"  lambda_max_II = {cert.lambda_max_ii:.12g}")
    lines.append(f"  tr II range   = [{cert.tr_ii_range[0]:.12g}, "
                 f"{cert.tr_ii_range[1]:.12g}]")
    for k, ok in cert.rcd_infinity.items():
        lines.append(f"  RCD({k:g}, inf): {'holds on samples' if ok else 'FAILS'}")
    for (k, n), ok in cert.rcd_star.items():
        lines.append(f"  RCD*({k:g}, {n:g}): "
                     f"{'holds on samples' if ok else 'FAILS'}")
    flat = suite["flatness"]
    lines.append("")
    lines.append(f"flatness: strong={flat.metadata['strong_flat']} "
                 f"interior={flat.metadata['interior_flat']} "
                 f"minimal_boundary={flat.metadata['minimal_trace']}")
    lines.append("")
    lines.append(f"overall: {'PASS' if suite['passed'] else 'FAIL'}")
    if timing is not None:
        lines.append(f"timing_seconds: {timing:.3f}")
    return "\n".join(lines) + "\n"


def render_json(suite: Dict, timing: Optional[float] = None) -> str:
    return json.dumps(suite_to_dict(suite, timing), indent=2) + "\n"


def render_csv(target: Target) -> str:
    """Per-sample eigenvalue dump for external plotting."""
    space, plan = target.space, target.plan
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["kind", "index", "x1", "x2", "x3", "x4",
                 "value_a", "value_b"])
    sample, frames = plan.grids(space)
    x, eigs = sample.x, interior_spectrum(sample)
    xb, eig, tr = boundary_spectrum(frames)
    pad = [""] * (4 - space.dim)
    for kind, pts, a, b in (("interior", x, eigs[:, 0], eigs[:, -1]),
                            ("boundary", xb, eig[:, 0], tr)):
        for k in range(pts.shape[1]):
            wr.writerow([kind, k] + [f"{v:.17g}" for v in pts[:, k]] + pad
                        + [f"{a[k]:.17g}", f"{b[k]:.17g}"])
    return buf.getvalue()


def timed_suite(target: Target, k_list=(0.0,), n_list=()):
    t0 = time.perf_counter()
    suite = run_suite(target, k_list, n_list)
    return suite, time.perf_counter() - t0

"""Assemble and serialize check suites for one space.

``run_suite`` executes the full check battery on a ``verify.Target``, the
one record of a space under test that ``zoo.load`` and
``config.load_config`` both return, building each sample grid once; the
render functions emit deterministic text, JSON, or CSV (ordered
reductions, fixed field order, no wall clock except the explicitly
labeled timing field).
"""

from __future__ import annotations

import csv
import io
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import NodeGeometry
from .jets import Jet
from .verify import (CheckResult, CurvatureReport, Target, boundary_spectrum,
                     certify, check_bochner, check_dimension_term,
                     interior_spectrum, weak_checks)


BOCHNER_POINTS = 100  # sample points the pointwise checks read at most

# ``zoo.load`` and ``config.load_config`` return the ``Target`` that
# config's one INI loader builds; perfbench/workloads.py still calls these
# two names
def target_from_zoo(target: Target) -> Target:
    return target


def target_from_config(target: Target) -> Target:
    return target


def bochner_geometry(sample: NodeGeometry) -> NodeGeometry:
    """The pointwise checks' grid: the geometry at at most
    ``BOCHNER_POINTS`` of the interior sample points of ``sample``, evenly
    spread through them; ``sample`` itself when it holds no more."""
    x = sample.x
    if x.shape[1] <= BOCHNER_POINTS:
        return sample
    idx = np.linspace(0, x.shape[1] - 1, BOCHNER_POINTS).astype(int)
    return NodeGeometry(sample.space, x[:, idx])


def pointwise_inputs(target: Target, sample: NodeGeometry
                     ) -> Tuple[List[Jet], NodeGeometry]:
    """What the pointwise checks read: the ten seed-11 test fields of
    ``target``, jetted once on ``bochner_geometry(sample)``, and that
    grid."""
    geom = bochner_geometry(sample)
    return [f.jet(geom.x) for f in target.random_fields(10, seed=11)], geom


def verdict_lines(cert: CurvatureReport) -> List[str]:
    """One line per sampled RCD verdict of ``cert``."""
    verdicts = [(f"RCD({k:g}, inf)", ok)
                for k, ok in cert.rcd_infinity.items()]
    verdicts += [(f"RCD*({k:g}, {n:g})", ok)
                 for (k, n), ok in cert.rcd_star.items()]
    return [f"{name}: {'holds on samples' if ok else 'FAILS'}"
            for name, ok in verdicts]


def run_suite(target: Target, k_list: Sequence[float] = (0.0,),
              n_list: Sequence[float] = ()) -> Dict:
    """Full battery: pointwise checks, weak identities, certificates, each
    grid built once and read by every check that samples it."""
    space, plan = target.space, target.plan
    sample, frames = plan.grids(space)
    jets, geom = pointwise_inputs(target, sample)
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
    lines += ["  " + line for line in verdict_lines(cert)]
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

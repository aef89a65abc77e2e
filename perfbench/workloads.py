"""The benchmark's workloads, their passes and the checks on their outputs.

* ``zoo2d``: ``run_suite`` plus ``render_json`` (the ``curvcert report
  --format json --no-timing`` path) over the six 2-D zoo entries.
* ``ball3``: the same path on ``ball3``, the dim-3 worst case.
* ``dense_family``: ``decomposition_batch`` for one seeded Neumann field
  and a seeded family of test densities on the INI space in
  ``dense_family.ini`` (full metric, non-zero weight), at the file's
  quadrature counts and again at doubled counts.

A pass is one closed-loop call sequence; the next pass starts when the
previous one ends.  The zoo workloads use the zoo's fixed inputs; the
seed picks only the dense_family base field and densities.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

# Called through their modules, so the tracer's rebinding reaches them.
from curvcert import config, report, verify, zoo
from curvcert.report import target_from_config, target_from_zoo

HERE = os.path.dirname(os.path.abspath(__file__))
DENSE_INI = os.path.join(HERE, "dense_family.ini")
DIGESTS = os.path.join(HERE, "digests.json")

ZOO2D = ("half_space", "gaussian_half_space", "ball", "annulus",
         "hemisphere", "poincare_cap")
# Acceptance criterion 2's bounds for the decomposition.
RESIDUAL_TOL = 1e-5
DOUBLING_TOL = 1e-6
# |LHS| floor: ten times the residual tolerance, so a PASS carries at
# least one significant digit of the identity.  A vacuous configuration
# (every integral ~1e-16) sits twelve orders below it.
LHS_FLOOR = 1e-4
EXPECTED_TOL = 1e-6  # certify vs ZooEntry.expected, as in the zoo tests
DENSITY_COUNT = 8
# Warm-up passes divide every quadrature count by this, so they touch
# every code path at a fraction of a pass's cost.
WARMUP_SHRINK = 4


class Outcome:
    """Output checks of one pass: attempted, failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.json_identical = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def raised(self, count: int, what: str, exc: Exception):
        self.attempted += count
        self.failed += count
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _shrunk(plan: verify.SamplePlan) -> verify.SamplePlan:
    def s(counts):
        return tuple(max(2, c // WARMUP_SHRINK) for c in counts)
    return dataclasses.replace(plan, quad_interior=s(plan.quad_interior),
                               quad_boundary=s(plan.quad_boundary))


def _sweep_nodes(space, quad_interior, quad_boundary) -> int:
    """Interior plus boundary nodes of one weak-identity evaluation."""
    return math.prod(quad_interior) + len(space.boundary_patches) * \
        math.prod(quad_boundary)


class ZooWorkload:
    """``run_suite`` + ``render_json`` over a fixed list of zoo entries."""

    # weak identities per suite: green, mv_laplacian, ricci_decomposition
    WEAK_CHECKS = 3
    CHECKS_PER_SPACE = 11

    def __init__(self, names):
        self.entries = [zoo.load(n) for n in names]
        self.targets = [target_from_zoo(e) for e in self.entries]
        # the Neumann field and test density every suite builds
        self.fields = [(t.neumann(), t.h_field()) for t in self.targets]
        with open(DIGESTS) as fh:
            self.digests = json.load(fh)["sha256"]

    @property
    def nodes_per_pass(self) -> int:
        return sum(self.WEAK_CHECKS * _sweep_nodes(
            t.space, t.plan.quad_interior, t.plan.quad_boundary)
            for t in self.targets)

    def warmup(self):
        for t in self.targets:
            report.run_suite(dataclasses.replace(t, plan=_shrunk(t.plan)))

    def run_pass(self):
        out = []
        for t in self.targets:
            try:
                suite = report.run_suite(t)
                out.append((suite, report.render_json(suite)))
            except Exception as exc:  # counted as failed checks, not fatal
                out.append(exc)
        return out

    def check(self, results) -> Outcome:
        oc = Outcome()
        for e, res in zip(self.entries, results):
            if isinstance(res, Exception):
                oc.raised(self.CHECKS_PER_SPACE, e.name, res)
                continue
            suite, text = res
            for r in suite["checks"]:
                oc.check(r.passed, f"{e.name}: {r}")
            cert, flat = suite["certificate"], suite["flatness"]
            want = e.expected
            oc.check(abs(cert.k_interior - want["k_interior"])
                     <= EXPECTED_TOL, f"{e.name}: k_interior "
                     f"{cert.k_interior!r} != {want['k_interior']!r}")
            oc.check(abs(cert.lambda_min_ii - want["lambda_min_ii"])
                     <= EXPECTED_TOL, f"{e.name}: lambda_min_ii "
                     f"{cert.lambda_min_ii!r} != {want['lambda_min_ii']!r}")
            oc.check(min(abs(v - want["tr_ii"]) for v in cert.tr_ii_range)
                     <= EXPECTED_TOL, f"{e.name}: tr_ii range "
                     f"{cert.tr_ii_range!r} misses {want['tr_ii']!r}")
            for key in ("strong_flat", "minimal_trace"):
                oc.check(flat.metadata[key] == want[key],
                         f"{e.name}: flatness {key} {flat.metadata[key]}")
            digest = hashlib.sha256(text.encode()).hexdigest()
            oc.json_identical += digest == self.digests.get(e.name)
        return oc


def _coeff(rng, lo: float, hi: float) -> str:
    """A signed coefficient with lo <= |c| <= hi, as expression text."""
    c = round(float(rng.uniform(lo, hi)), 3)
    return f"{c}" if rng.random() < 0.5 else f"(-{c})"


class DenseFamilyWorkload:
    """Node-doubling Cauchy pattern of ``decomposition_batch`` on an INI
    space with a full metric; the seed picks g's base and the densities.
    Every seed gives expressions of the same shape, so the work per pass
    does not depend on the seed."""

    CHECKS_PER_DENSITY = 5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        cfg = config.load_config(DENSE_INI)
        self.target = target_from_config(cfg)
        self.plan = cfg.plan
        c = lambda: _coeff(rng, 0.15, 0.4)  # noqa: E731
        # not symmetric in the angle, so no integral vanishes by symmetry
        self.base = (f"{c()}*x + {c()}*x^2*cos(y) + {c()}*x*sin(y) "
                     f"+ {c()}*x^2*sin(2*y)")
        d = lambda: _coeff(rng, 0.1, 0.3)  # noqa: E731
        self.densities = [f"1 + {d()}*x^2*cos(y) + {d()}*sin(2*y) + {d()}*x"
                          for _ in range(DENSITY_COUNT)]
        self.g = self.target.neumann(self.base)
        self.hs = [self.target.h_field(src) for src in self.densities]

    def _counts(self, factor: float):
        def scale(counts):
            return tuple(max(2, int(c * factor)) for c in counts)
        return scale(self.plan.quad_interior), scale(self.plan.quad_boundary)

    @property
    def nodes_per_pass(self) -> int:
        space = self.target.space
        return sum(_sweep_nodes(space, *self._counts(f)) for f in (1, 2))

    def _batch(self, factor: float):
        qi, qb = self._counts(factor)
        return verify.decomposition_batch(self.target.space, self.g, self.hs,
                                          qi, qb, self.plan.boundary_counts)

    def warmup(self):
        self._batch(1.0 / WARMUP_SHRINK)

    def run_pass(self):
        try:
            return self._batch(1), self._batch(2)
        except Exception as exc:  # counted as failed checks, not fatal
            return exc

    def check(self, results) -> Outcome:
        oc = Outcome()
        if isinstance(results, Exception):
            oc.raised(self.CHECKS_PER_DENSITY * len(self.hs), "dense_family",
                      results)
            return oc
        coarse, fine = results
        for k, ((l1, r1), (l2, r2)) in enumerate(zip(coarse, fine)):
            what = f"dense_family h[{k}] = {self.densities[k]!r}"
            for label, lhs, rhs in (("coarse", l1, r1), ("doubled", l2, r2)):
                res = abs(lhs - rhs) / (1.0 + abs(rhs))
                oc.check(res <= RESIDUAL_TOL,
                         f"{what}: {label} residual {res:.3e}")
            dl = abs(l2 - l1) / (1.0 + abs(l2))
            dr = abs(r2 - r1) / (1.0 + abs(r2))
            oc.check(dl < DOUBLING_TOL, f"{what}: LHS doubling delta {dl:.3e}")
            oc.check(dr < DOUBLING_TOL, f"{what}: RHS doubling delta {dr:.3e}")
            oc.check(abs(l1) > LHS_FLOOR,
                     f"{what}: |LHS| {abs(l1):.3e} <= floor {LHS_FLOOR}")
        return oc


def build(name: str, seed: int):
    if name == "zoo2d":
        return ZooWorkload(ZOO2D)
    if name == "ball3":
        return ZooWorkload(("ball3",))
    if name == "dense_family":
        return DenseFamilyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

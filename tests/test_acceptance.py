"""Acceptance suite: eight numbered criteria, one pass/fail line each."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from curvcert import zoo
from curvcert.fields import CutoffField, ExprField
from curvcert.jets import extract, multi_indices
from curvcert.exprlang import ParseError, parse, to_source
from curvcert.geometry import NodeGeometry
from curvcert.verify import (boundary_grid, certify, check_bochner,
                             check_dimension_term, check_green,
                             check_ii_identity, check_mv_laplacian,
                             decomposition_batch, interior_grid,
                             random_fields)
from oracles import Poly, richardson_partial
from test_exprlang import MALFORMED, _corpus
from test_jets import poly_jet

THEOREM_SPACES = ["ball", "gaussian_half_space", "hemisphere", "annulus",
                  "poincare_cap"]

_ENTRIES = {}


def entry(name):
    if name not in _ENTRIES:
        _ENTRIES[name] = zoo.load(name)
    return _ENTRIES[name]


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"acceptance criterion {num}: {detail}"


def sample_interior(e, count, rng):
    box = np.array(e.space.chart_box, dtype=float)
    pts = np.empty((e.space.dim, 0))
    while pts.shape[1] < count:
        cand = rng.uniform(box[:, 0], box[:, 1],
                           size=(4 * count, e.space.dim)).T
        phi = np.asarray(e.space.defining_fn.value(cand))
        keep = cand[:, phi < -1e-6]
        pts = np.concatenate([pts, keep], axis=1)
    return pts[:, :count]


def test_criterion_1_bochner():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = -1.0
    for name in zoo.list_entries():
        e = entry(name)
        pts = sample_interior(e, 100, rng)
        fields = e.random_fields(10, seed=11)
        r = check_bochner(fields, NodeGeometry(e.space, pts))
        assert r.tolerance == 1e-8
        worst = max(worst, r.residual)
        assert r.passed, f"{name}: {r}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(1, ok, f"Bochner on all {len(zoo.list_entries())} zoo entries, "
            f"100 pts x 10 fields: worst residual {worst:.2e} <= 1e-8, "
            f"runtime {elapsed:.1f}s < 10s")


def test_criterion_2_decomposition():
    t0 = time.perf_counter()
    worst_res = -1.0
    worst_delta = -1.0
    for name in THEOREM_SPACES:
        e = entry(name)
        g = e.neumann_family()[0]
        hs = e.h_fields()[:5]
        assert len(hs) >= 5, name
        qi, qb = e.plan.quad_interior, e.plan.quad_boundary
        coarse = decomposition_batch(e.space, g, hs, qi, qb,
                                     e.plan.boundary_counts)
        fine = decomposition_batch(e.space, g, hs,
                                   tuple(2 * c for c in qi),
                                   tuple(2 * c for c in qb),
                                   e.plan.boundary_counts)
        for (l1, r1), (l2, r2) in zip(coarse, fine):
            res = abs(l1 - r1) / (1.0 + abs(r1))
            assert res <= 1e-5, (name, res)
            worst_res = max(worst_res, res)
            dl = abs(l2 - l1) / (1.0 + abs(l2))
            dr = abs(r2 - r1) / (1.0 + abs(r2))
            assert dl < 1e-6 and dr < 1e-6, (name, dl, dr)
            worst_delta = max(worst_delta, dl, dr)
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-5 and worst_delta < 1e-6 and elapsed < 60.0
    verdict(2, ok, f"decomposition on {len(THEOREM_SPACES)} spaces x 5 "
            f"(g,h) pairs: worst residual {worst_res:.2e} <= 1e-5, worst "
            f"node-doubling delta {worst_delta:.2e} < 1e-6, runtime "
            f"{elapsed:.1f}s < 60s")


def test_criterion_3_proof_steps():
    worst = {"green": -1.0, "mv_laplacian": -1.0, "ii_identity": -1.0}
    for name in THEOREM_SPACES:
        e = entry(name)
        g = e.neumann_family()[0]
        h = e.h_fields()[1]
        r = check_green(e.space, h, g.field, e.plan.quad_interior,
                        e.plan.quad_boundary)
        assert r.tolerance == 1e-5
        assert r.passed, (name, str(r))
        worst["green"] = max(worst["green"], r.residual)
        r = check_mv_laplacian(e.space, g, h, e.plan.quad_interior,
                               e.plan.quad_boundary)
        assert r.tolerance == 1e-5
        assert r.passed, (name, str(r))
        worst["mv_laplacian"] = max(worst["mv_laplacian"], r.residual)
        r = check_ii_identity(
            g, boundary_grid(e.space, e.plan.boundary_counts))
        assert r.tolerance == 1e-8
        assert r.passed, (name, str(r))
        worst["ii_identity"] = max(worst["ii_identity"], r.residual)
    # deliberately non-Neumann field: the boundary flux term of the weak
    # Laplacian formula is essential and nonzero
    e = entry("ball")
    raw = CutoffField(e.cutoff) * ExprField("0.3*x^2", 2)
    r = check_mv_laplacian(e.space, raw, e.h_fields()[1],
                           e.plan.quad_interior, e.plan.quad_boundary)
    assert r.tolerance == 1e-5
    assert r.passed and abs(r.metadata["boundary_flux"]) > 1e-3
    ok = (worst["green"] <= 1e-5 and worst["mv_laplacian"] <= 1e-5
          and worst["ii_identity"] <= 1e-8)
    verdict(3, ok, "proof steps on all theorem spaces: green "
            f"{worst['green']:.2e} <= 1e-5, mv_laplacian "
            f"{worst['mv_laplacian']:.2e} <= 1e-5, ii_identity "
            f"{worst['ii_identity']:.2e} <= 1e-8, plus non-Neumann "
            f"boundary-term witness (flux {r.metadata['boundary_flux']:.3f})")


def test_criterion_4_certifier_ground_truth():
    ghs = entry("gaussian_half_space")
    rep = certify(*ghs.plan.grids(ghs.space), [1.0, 1.0 + 1e-3])
    assert rep.rcd_infinity[1.0] is True
    assert rep.rcd_infinity[1.0 + 1e-3] is False

    ball = entry("ball")
    rb = certify(*ball.plan.grids(ball.space), [0.0])
    assert rb.rcd_infinity[0.0] is True
    assert abs(rb.lambda_min_ii - 1.0) <= 1e-6

    ann = entry("annulus")
    ra = certify(*ann.plan.grids(ann.space), [0.0])
    assert ra.rcd_infinity[0.0] is False
    assert abs(ra.lambda_min_ii - (-2.0)) <= 1e-6

    hemi = entry("hemisphere")
    rh = certify(*hemi.plan.grids(hemi.space), [1.0])
    assert rh.rcd_infinity[1.0] is True
    assert abs(rh.k_interior - 1.0) <= 1e-6
    assert max(abs(t) for t in rh.tr_ii_range) <= 1e-9

    cap = entry("poincare_cap")
    rc = certify(*cap.plan.grids(cap.space), [-1.0])
    assert abs(rc.k_interior - (-1.0)) <= 1e-6

    verdict(4, True, "certifier ground truth: gaussian_half_space "
            "RCD(1.0)=true / RCD(1.001)=false; ball RCD(0)=true with "
            f"lambda_min_II={rb.lambda_min_ii:.9f}; annulus non-convex "
            f"with lambda_min_II={ra.lambda_min_ii:.9f}; hemisphere "
            f"K={rh.k_interior:.9f} with |tr II|<=1e-9; poincare_cap "
            f"K_interior={rc.k_interior:.9f}")


def test_criterion_5_dimension_term():
    worst = -np.inf
    for name in zoo.list_entries():
        e = entry(name)
        fields = e.random_fields(100, seed=55)
        geom = NodeGeometry(e.space,
                            interior_grid(e.space, e.plan.interior_counts))
        for n_dim in (float(e.space.dim), float(e.space.dim) + 2.0):
            r = check_dimension_term(fields, geom, n_dim)
            assert r.tolerance == 1e-10
            assert r.passed, (name, n_dim, str(r))
            worst = max(worst, r.residual)
    # conformal Hessian: Hess f = g, the trace bound is an equality
    hs = entry("half_space")
    f = ExprField("(x^2 + y^2)/2", 2)
    r_eq = check_dimension_term(
        [f], NodeGeometry(hs.space,
                          interior_grid(hs.space, hs.plan.interior_counts)),
        float(hs.space.dim))
    assert r_eq.tolerance == 1e-10
    assert abs(r_eq.residual) <= 1e-12
    ok = worst <= 1e-10
    verdict(5, ok, "dimension term on 100 random fields per space at "
            f"N=n and N=n+2: worst gap {worst:.2e} <= 1e-10; conformal "
            f"Hessian equality witnessed (gap {r_eq.residual:.1e})")


def batched_oracle(f, oracle):
    """``oracle(scalar)`` with every point it asks ``scalar`` for evaluated
    in one ``f.value`` call: a first run records the points (its answers
    are discarded), a second reads their values back in the same order.
    Field values are elementwise, so each equals the one-point value bit
    for bit."""
    points = []
    oracle(lambda p: points.append(p) or 0.0)
    values = iter(f.value(np.stack(points, axis=1)).tolist())
    return oracle(lambda p: next(values))


def test_criterion_6_autodiff_oracle():
    rng = np.random.default_rng(606)
    # 1000 random composite fields across dims 1..4 against Richardson FD
    plan = [(1, 250), (2, 350), (3, 250), (4, 150)]
    steps = [(1, 1e-4), (2, 1e-3), (3, 1e-2)]
    worst = -1.0
    for dim, count in plan:
        fields = random_fields(dim, count, seed=600 + dim)
        for f in fields:
            x = rng.uniform(-0.8, 0.8, size=dim)
            j = f.jet(x)

            def oracle(scalar):
                # the pure partials of orders 1..3 along each axis, then
                # the order-3 ones again for ``extract``
                return [float(richardson_partial(scalar, x, axis, order, h))
                        for axis in range(dim) for order, h in steps] + \
                    [float(richardson_partial(scalar, x, axis, 3, 1e-2))
                     for axis in range(dim)]

            wants = iter(batched_oracle(f, oracle))
            for axis in range(dim):
                part = j
                for order, h in steps:
                    part = part.partial(axis)
                    want = next(wants)
                    got = float(np.asarray(part.value))
                    rel = abs(got - want) / (1.0 + abs(want))
                    worst = max(worst, rel)
                    assert rel <= 1e-6, (to_source(f.ast), axis, order)
            # the same order-3 pure partials via extract
            for axis in range(dim):
                alpha = tuple(3 if i == axis else 0 for i in range(dim))
                want = next(wants)
                got = float(np.asarray(extract(j, alpha)))
                assert abs(got - want) / (1.0 + abs(want)) <= 1e-6
    # polynomial fields match the symbolic expansion to 1e-12
    worst_poly = -1.0
    for dim in (1, 2, 3, 4):
        prng = np.random.default_rng(60 + dim)
        for _ in range(50):
            p = Poly.random(dim, prng)
            x = prng.uniform(-1.2, 1.2, size=dim)
            j = poly_jet(p, x[:, None])
            for alpha in multi_indices(dim):
                want = float(np.asarray(p.diff_multi(
                    [i for i, a in enumerate(alpha)
                     for _ in range(a)])(x[:, None])).ravel()[0])
                got = float(np.asarray(extract(j, alpha)).ravel()[0])
                err = abs(got - want) / (1.0 + abs(want))
                worst_poly = max(worst_poly, err)
                assert err <= 1e-12, (p.to_source(), alpha)
    verdict(6, True, "autodiff oracle: 1000 composite fields match "
            f"Richardson FD (worst rel {worst:.2e} <= 1e-6); 200 random "
            f"polynomials match symbolic expansion (worst "
            f"{worst_poly:.2e} <= 1e-12)")


def test_criterion_7_parser():
    corpus = _corpus()
    assert len(corpus) >= 200
    for src in corpus:
        printed = to_source(parse(src, 2))
        assert to_source(parse(printed, 2)) == printed
    rng = np.random.default_rng(707)
    alphabet = np.array(list("xy123+-*/^()sincoexplogqrt. "))
    for _ in range(100_000):
        n = int(rng.integers(1, 12))
        src = "".join(rng.choice(alphabet, size=n))
        try:
            parse(src, 2)
        except ParseError:
            pass
    assert len(MALFORMED) >= 20
    for src in MALFORMED:
        with pytest.raises(ParseError) as exc_info:
            parse(src, 2)
        assert isinstance(exc_info.value.offset, int)
        assert 0 <= exc_info.value.offset <= len(src)
    verdict(7, True, f"parser: fixed-point pretty-print on "
            f"{len(corpus)}-expression corpus, 1e5-input fuzz without "
            f"crash, positioned errors on {len(MALFORMED)} malformed cases")


def test_criterion_8_determinism():
    cmd = [sys.executable, "-m", "curvcert", "report", "--zoo", "ball",
           "--format", "json", "--no-timing"]
    outputs = []
    for threads in ("1", "1", "4", "4"):
        env = dict(os.environ)
        env["CURVCERT_THREADS"] = threads
        env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = all(o == outputs[0] for o in outputs)
    assert ok
    doc = json.loads(outputs[0])
    assert doc["passed"] is True
    verdict(8, ok, "report --format json --no-timing byte-identical "
            "across two runs and thread counts {1,4} "
            f"({len(outputs[0])} bytes)")

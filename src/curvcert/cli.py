"""Command-line front end.

Exit codes: 0 all checks pass / verdict computed and true; 1 a check
failed or a requested certification is false; 2 usage, config, or
expression errors (expression errors carry the offending position).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from . import zoo
from .boundary import BoundaryError
from .config import ConfigError, load_config
from .exprlang import EvalError, ParseError
from .fields import ExprField
from .geometry import GeometryError
from .quadrature import QuadratureError
from .report import (Target, render_csv, render_json, render_text,
                     target_from_config, target_from_zoo, timed_suite,
                     bochner_points, run_suite)
from .verify import (GateError, certify, check_bochner,
                     check_dimension_term, check_green, check_ii_identity,
                     check_mv_laplacian, check_ricci_decomposition,
                     flatness_report)

CHECK_NAMES = ("bochner", "green", "laplacian", "theorem", "ii",
               "dimension")


class UsageError(ValueError):
    pass


def _add_space_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--zoo", metavar="NAME[,key=val,...]",
                     help="built-in space, e.g. 'annulus,r=0.5,R=1'")
    src.add_argument("--config", metavar="PATH", help="INI space file")


def _target(args) -> Target:
    if args.zoo is not None:
        return target_from_zoo(zoo.parse_ref(args.zoo))
    return target_from_config(load_config(args.config))


def _parse_floats(raw: str, what: str) -> List[float]:
    try:
        return [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvcert",
        description="Numerical certifier for Bakry-Emery curvature "
                    "identities on weighted spaces with boundary.")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list-zoo", help="list built-in spaces")

    p = sub.add_parser("describe", help="show a space's data and plan")
    _add_space_args(p)

    p = sub.add_parser("check", help="run one named check")
    p.add_argument("name", choices=CHECK_NAMES)
    _add_space_args(p)
    p.add_argument("--w", help="Neumann base expression (default: first "
                               "of the space's family)")
    p.add_argument("--h", help="test density expression (multiplied by "
                               "the cutoff)")
    p.add_argument("--n-dim", type=float, default=None,
                   help="dimension parameter N for 'dimension'")
    p.add_argument("--raw-field", action="store_true",
                   help="use the uncorrected base field (deliberately "
                        "non-Neumann) where applicable")

    p = sub.add_parser("certify", help="sampled RCD verdicts")
    _add_space_args(p)
    p.add_argument("--K", required=True, help="comma-separated K values")
    p.add_argument("--N", default="", help="comma-separated N values "
                                           "for RCD*(K,N)")

    p = sub.add_parser("flatness", help="measure-Ricci-flatness report")
    _add_space_args(p)

    p = sub.add_parser("report", help="full suite, serialized")
    _add_space_args(p)
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the timing field (for byte comparisons)")
    p.add_argument("--K", default="0", help="comma-separated K values")
    p.add_argument("--N", default="", help="comma-separated N values")
    return ap


def _cmd_list_zoo() -> int:
    for name in zoo.list_entries():
        print(name)
    return 0


def _cmd_describe(args) -> int:
    t = _target(args)
    print(f"label: {t.label}")
    print(f"dim: {t.space.dim}")
    print(f"chart_box: {[tuple(b) for b in t.space.chart_box]}")
    print(f"boundary_patches: "
          f"{[p.label or i for i, p in enumerate(t.space.boundary_patches)]}")
    print(f"plan: {t.plan.to_dict()}")
    print(f"neumann_bases: {t.neumann_bases}")
    for key in sorted(t.expected):
        print(f"expected.{key}: {t.expected[key]}")
    for key in sorted(t.expressions):
        print(f"expr.{key}: {t.expressions[key]}")
    return 0


def _cmd_check(args) -> int:
    t = _target(args)
    space, plan = t.space, t.plan
    if args.name == "bochner":
        res = check_bochner(space, t.random_fields(10, seed=11),
                            bochner_points(t))
    elif args.name == "dimension":
        n_dim = args.n_dim if args.n_dim is not None else float(space.dim)
        res = check_dimension_term(space, t.random_fields(10, seed=11),
                                   bochner_points(t), n_dim)
    else:
        h = t.h_field(args.h)
        if args.raw_field:
            src = args.w if args.w is not None else t.neumann_bases[0]
            from .boundary import NeumannTestFunction
            from .fields import CutoffField
            base = ExprField(src, space.dim)
            g = NeumannTestFunction(
                base=base, field=CutoffField(t.cutoff) * base,
                cutoff=t.cutoff, label=f"raw:{src}")
        else:
            g = t.neumann(args.w)
        if args.name == "green":
            res = check_green(space, h, g, plan.quad_interior,
                              plan.quad_boundary)
        elif args.name == "laplacian":
            res = check_mv_laplacian(space, g, h, plan.quad_interior,
                                     plan.quad_boundary)
        elif args.name == "ii":
            res = check_ii_identity(space, g,
                                    boundary_counts=plan.boundary_counts)
        else:
            res = check_ricci_decomposition(
                space, g, h, plan.quad_interior, plan.quad_boundary,
                plan.boundary_counts)
    print(res)
    return 0 if res.passed else 1


def _cmd_certify(args) -> int:
    t = _target(args)
    ks = _parse_floats(args.K, "K")
    ns = _parse_floats(args.N, "N") if args.N else []
    if not ks:
        raise UsageError("--K needs at least one value")
    rep = certify(t.space, ks, ns, plan=t.plan)
    print(f"space: {t.label}")
    print(f"K_interior    = {rep.k_interior:.12g}")
    print(f"lambda_min_II = {rep.lambda_min_ii:.12g}")
    print(f"tr II range   = [{rep.tr_ii_range[0]:.12g}, "
          f"{rep.tr_ii_range[1]:.12g}]")
    ok = True
    for k, verdict in rep.rcd_infinity.items():
        print(f"RCD({k:g}, inf): "
              f"{'holds on samples' if verdict else 'FAILS'}")
        ok = ok and verdict
    for (k, n), verdict in rep.rcd_star.items():
        print(f"RCD*({k:g}, {n:g}): "
              f"{'holds on samples' if verdict else 'FAILS'}")
        ok = ok and verdict
    print("note: sampled necessary-condition certificate, not a proof")
    return 0 if ok else 1


def _cmd_flatness(args) -> int:
    t = _target(args)
    res = flatness_report(t.space, plan=t.plan)
    print(f"space: {t.label}")
    for key in ("max_abs_ricci_v", "max_abs_ii", "max_abs_tr_ii"):
        print(f"{key} = {res.metadata[key]:.12g}")
    print(f"strong (Ricci_V=0 and II=0):   {res.metadata['strong_flat']}")
    print(f"interior (Ricci_V=0):          {res.metadata['interior_flat']}")
    print(f"minimal boundary (tr II = 0):  {res.metadata['minimal_trace']}")
    return 0


def _cmd_report(args) -> int:
    t = _target(args)
    ks = _parse_floats(args.K, "K")
    ns = _parse_floats(args.N, "N") if args.N else []
    if args.format == "csv":
        payload = render_csv(t)
        passed = True
    else:
        suite, elapsed = timed_suite(t, ks, ns)
        timing = None if args.no_timing else elapsed
        render = render_json if args.format == "json" else render_text
        payload = render(suite, timing)
        passed = suite["passed"]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list-zoo":
            return _cmd_list_zoo()
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "flatness":
            return _cmd_flatness(args)
        if args.command == "report":
            return _cmd_report(args)
        raise UsageError(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: expression parse failure at offset {exc.offset}: "
              f"{exc}", file=sys.stderr)
        return 2
    except (UsageError, ConfigError, zoo.ZooError, ValueError,
            TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GateError, EvalError, BoundaryError, GeometryError,
            QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

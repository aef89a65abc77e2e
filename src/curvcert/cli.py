"""Command-line front end.

Exit codes: 0 all checks pass / verdict computed and true; 1 a check
failed or a requested certification is false; 2 usage, config, or
expression errors (expression errors carry the offending position).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional, Tuple

from . import zoo
from .boundary import NeumannTestFunction
from .config import load_config
from .exprlang import ParseError
from .fields import CutoffField, ExprField
from .geometry import NodeGeometry
from .report import (bochner_geometry, render_csv, render_json, render_text,
                     timed_suite)
from .verify import (GateError, Target, boundary_grid, certify, check_bochner,
                     check_dimension_term, check_green, check_ii_identity,
                     check_mv_laplacian, check_ricci_decomposition,
                     flatness_report, interior_grid)

# the options of ``check`` that each check reads; it refuses the others
_WEAK = ("w", "h", "raw_field")
CHECK_FLAGS = {"bochner": (), "green": _WEAK, "laplacian": _WEAK,
               "theorem": _WEAK, "ii": ("w", "raw_field"),
               "dimension": ("n_dim",)}


class UsageError(ValueError):
    pass


def _add_space_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--zoo", metavar="NAME[,key=val,...]",
                     help="built-in space, e.g. 'annulus,r=0.5,R=1'")
    src.add_argument("--config", metavar="PATH", help="INI space file")


def _target(args) -> Target:
    if args.zoo is not None:
        return zoo.parse_ref(args.zoo)
    return load_config(args.config)


def _parse_floats(raw: str, what: str,
                  ok: Callable[[float], bool]) -> List[float]:
    try:
        vals = [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        vals = None
    if vals is None or not all(map(ok, vals)):
        raise UsageError(f"bad {what} list {raw!r}")
    return vals


def _parse_kn(args) -> Tuple[List[float], List[float]]:
    """The --K and --N lists: each K finite, each N a number (N = inf
    asks for RCD*(K, inf))."""
    return (_parse_floats(args.K, "K", math.isfinite),
            _parse_floats(args.N, "N", lambda n: not math.isnan(n)))


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
    p.add_argument("name", choices=CHECK_FLAGS)
    _add_space_args(p)
    p.add_argument("--w", help="Neumann base expression (default: first "
                               "of the space's family)")
    p.add_argument("--h", help="test density expression (multiplied by "
                               "the cutoff)")
    p.add_argument("--n-dim", type=float, default=None,
                   help="dimension parameter N for 'dimension'")
    p.add_argument("--raw-field", action="store_true", default=None,
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
    for flag in ("w", "h", "n_dim", "raw_field"):  # None: not given
        if getattr(args, flag) is not None \
                and flag not in CHECK_FLAGS[args.name]:
            raise UsageError(f"check {args.name} does not read "
                             f"--{flag.replace('_', '-')}")
    t = _target(args)
    space, plan = t.space, t.plan
    if args.name in ("bochner", "dimension"):
        fields = t.random_fields(10, seed=11)
        geom = bochner_geometry(NodeGeometry(
            space, interior_grid(space, plan.interior_counts)))
        n_dim = args.n_dim if args.n_dim is not None else float(space.dim)
        res = (check_bochner(fields, geom) if args.name == "bochner"
               else check_dimension_term(fields, geom, n_dim))
    else:
        if args.raw_field:
            src = args.w if args.w is not None else t.neumann_bases[0]
            base = ExprField(src, space.dim)
            g = CutoffField(t.require_cutoff()) * base
            # green and laplacian take chi * w as it is, flux and all; ii
            # and theorem put it through the Neumann gate, which refuses
            # a field with a boundary flux
            if args.name in ("ii", "theorem"):
                g = NeumannTestFunction(base=base, field=g)
        else:
            g = t.neumann(args.w)
        if args.name == "ii":
            res = check_ii_identity(
                g, boundary_grid(space, plan.boundary_counts))
        else:  # the weak identities, against a test density
            h = t.h_field(args.h)
            if args.name == "green":
                res = check_green(space, h, g, plan.quad_interior,
                                  plan.quad_boundary)
            elif args.name == "laplacian":
                res = check_mv_laplacian(space, g, h, plan.quad_interior,
                                         plan.quad_boundary)
            else:
                res = check_ricci_decomposition(
                    space, g, h, boundary_grid(space, plan.boundary_counts),
                    plan.quad_interior, plan.quad_boundary)
    print(res)
    return 0 if res.passed else 1


def _cmd_certify(args) -> int:
    t = _target(args)
    ks, ns = _parse_kn(args)
    if not ks:
        raise UsageError("--K needs at least one value")
    rep = certify(*t.plan.grids(t.space), ks, ns)
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
    ks, ns = _parse_kn(args)
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
    # every error class of the package but GateError is a ValueError
    except (ValueError, GateError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""INI space-file loader.

A space file describes a weighted space in the expression language::

    [space]
    dim = 2

    [metric]                ; missing entries default to the Kronecker delta
    g11 = "1"
    g22 = "x^2"

    [weight]                ; missing V defaults to "0"
    V = "0"

    [domain]
    phi = "x - 1"

    [chart]                 ; bounds per axis, "lo,hi"
    axis1 = "0.1,1"
    axis2 = "0,6.2832"

    [boundary.1]            ; one section per boundary patch
    bounds1 = "0,6.2832"    ; parameter bounds
    map1 = "1"              ; chart coordinates of the boundary point,
    map2 = "x"              ; expressions in the patch parameters

    [cutoff]                ; inner/outer plateau boxes, axes ";"-separated
    inner = "0.6,1;0,6.2832"
    outer = "0.15,1;0,6.2832"

    [samples]               ; optional; sampling grid counts
    interior = 24,24
    boundary = 96

    [quadrature]            ; optional; quadrature node counts, by default
    interior = 224,64       ; quadrature.DEFAULT_INTERIOR_NODES and
    boundary = 256          ; DEFAULT_BOUNDARY_NODES per axis

``load_config`` returns the space as a ``verify.Target`` whose Neumann
bases are ``0.3*x, 0.3*y, ...`` (one per chart variable) and whose
``expressions`` keep every raw expression string, so reports can re-echo
exactly what was configured.
"""

from __future__ import annotations

import configparser
from typing import Dict, List, Tuple

from .exprlang import VAR_NAMES, ParseError
from .fields import ConstField, CutoffSpec, ExprField, ScalarField
from .geometry import WeightedSpace
from .quadrature import (DEFAULT_BOUNDARY_NODES, DEFAULT_INTERIOR_NODES,
                         BoundaryPatch)
from .verify import SamplePlan, Target


class ConfigError(ValueError):
    """Malformed space file; message carries section/key context."""


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def _expr_field(src: str, dim: int, where: str) -> ExprField:
    try:
        return ExprField(src, dim)
    except ParseError as exc:
        raise ConfigError(f"{where}: bad expression {src!r}: {exc}") from exc


def _pair(raw: str, where: str) -> Tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'lo,hi', got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{where}: non-numeric bound in {raw!r}") from None
    if not lo < hi:
        raise ConfigError(f"{where}: need lo < hi, got {raw!r}")
    return lo, hi


def _counts(raw: str, n: int, where: str) -> Tuple[int, ...]:
    try:
        counts = tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise ConfigError(f"{where}: non-integer count in {raw!r}") from None
    if len(counts) == 1:
        counts = counts * n
    if len(counts) != n or any(c < 1 for c in counts):
        raise ConfigError(f"{where}: expected {n} positive counts, "
                          f"got {raw!r}")
    return counts


def _box(raw: str, dim: int, where: str) -> Tuple[Tuple[float, float], ...]:
    axes = [a for a in raw.split(";") if a.strip()]
    if len(axes) != dim:
        raise ConfigError(f"{where}: expected {dim} ';'-separated axis "
                          f"ranges, got {raw!r}")
    out = []
    for a in axes:
        parts = a.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: expected 'lo,hi' per axis "
                              f"in {raw!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{where}: non-numeric bound in {raw!r}") \
                from None
        if lo > hi:
            raise ConfigError(f"{where}: need lo <= hi in {raw!r}")
        out.append((lo, hi))
    return tuple(out)


def load_config(path: str) -> Target:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read space file {path!r}")

    if not cp.has_section("space") or not cp.has_option("space", "dim"):
        raise ConfigError("[space] section with 'dim' is required")
    try:
        dim = int(_unquote(cp.get("space", "dim")))
    except ValueError:
        raise ConfigError("[space] dim must be an integer") from None
    if not 2 <= dim <= 4:
        raise ConfigError(f"[space] dim must be 2..4, got {dim}")

    expressions: Dict[str, str] = {}

    metric: List[List[ScalarField]] = [
        [ConstField(dim, 1.0 if i == j else 0.0) for j in range(dim)]
        for i in range(dim)]
    if cp.has_section("metric"):
        given: Dict[Tuple[int, int], str] = {}  # entry -> the key that set it
        for key, raw in cp.items("metric"):
            if not (len(key) == 3 and key.startswith("g")
                    and key[1:].isdigit()):
                raise ConfigError(f"[metric] unknown key {key!r} "
                                  f"(expected gIJ)")
            i, j = int(key[1]) - 1, int(key[2]) - 1
            if not (0 <= i < dim and 0 <= j < dim):
                raise ConfigError(f"[metric] {key}: index out of range "
                                  f"for dim {dim}")
            entry = (min(i, j), max(i, j))
            if entry in given:
                raise ConfigError(
                    f"[metric] {given[entry]} and {key} both give the "
                    f"symmetric entry g{entry[0] + 1}{entry[1] + 1}; "
                    f"give it once")
            given[entry] = key
            src = _unquote(raw)
            f = _expr_field(src, dim, f"[metric] {key}")
            metric[i][j] = f
            metric[j][i] = f
            expressions[f"metric.{key}"] = src

    v_src = "0"
    if cp.has_section("weight") and cp.has_option("weight", "v"):
        v_src = _unquote(cp.get("weight", "v"))
    weight = _expr_field(v_src, dim, "[weight] V")
    expressions["weight.V"] = v_src

    if not cp.has_section("domain") or not cp.has_option("domain", "phi"):
        raise ConfigError("[domain] section with 'phi' is required")
    phi_src = _unquote(cp.get("domain", "phi"))
    phi = _expr_field(phi_src, dim, "[domain] phi")
    expressions["domain.phi"] = phi_src

    if not cp.has_section("chart"):
        raise ConfigError("[chart] section is required")
    chart_box = []
    for ax in range(1, dim + 1):
        key = f"axis{ax}"
        if not cp.has_option("chart", key):
            raise ConfigError(f"[chart] missing {key}")
        chart_box.append(_pair(_unquote(cp.get("chart", key)),
                               f"[chart] {key}"))

    patches: List[BoundaryPatch] = []
    for section in sorted(s for s in cp.sections()
                          if s.startswith("boundary.")):
        pdim = dim - 1
        param_box = []
        for ax in range(1, pdim + 1):
            key = f"bounds{ax}"
            if not cp.has_option(section, key):
                raise ConfigError(f"[{section}] missing {key}")
            param_box.append(_pair(_unquote(cp.get(section, key)),
                                   f"[{section}] {key}"))
        maps = []
        for ci in range(1, dim + 1):
            key = f"map{ci}"
            if not cp.has_option(section, key):
                raise ConfigError(f"[{section}] missing {key}")
            src = _unquote(cp.get(section, key))
            maps.append(_expr_field(src, max(pdim, 1),
                                    f"[{section}] {key}"))
            expressions[f"{section}.{key}"] = src
        patches.append(BoundaryPatch(param_box=param_box, maps=maps,
                                     label=section))
    if not patches:
        raise ConfigError("at least one [boundary.k] section is required")

    cutoff = None
    if cp.has_section("cutoff"):
        for key in ("inner", "outer"):
            if not cp.has_option("cutoff", key):
                raise ConfigError(f"[cutoff] missing {key}")
        cutoff = CutoffSpec(
            _box(_unquote(cp.get("cutoff", "inner")), dim, "[cutoff] inner"),
            _box(_unquote(cp.get("cutoff", "outer")), dim, "[cutoff] outer"))

    def counts_opt(section, key, n, default):
        if cp.has_section(section) and cp.has_option(section, key):
            return _counts(_unquote(cp.get(section, key)), n,
                           f"[{section}] {key}")
        return default

    plan = SamplePlan(
        interior_counts=counts_opt("samples", "interior", dim, (16,) * dim),
        boundary_counts=counts_opt("samples", "boundary", dim - 1,
                                   (64,) * (dim - 1)),
        quad_interior=counts_opt("quadrature", "interior", dim,
                                 (DEFAULT_INTERIOR_NODES,) * dim),
        quad_boundary=counts_opt("quadrature", "boundary", dim - 1,
                                 (DEFAULT_BOUNDARY_NODES,) * (dim - 1)))

    space = WeightedSpace(dim=dim, metric=metric, weight=weight,
                          defining_fn=phi, chart_box=chart_box,
                          boundary_patches=patches, label=path)
    return Target(name=path, label=path, space=space, plan=plan,
                  cutoff=cutoff,
                  neumann_bases=[f"0.3*{v}" for v in VAR_NAMES[:dim]],
                  expressions=expressions, error=ConfigError)

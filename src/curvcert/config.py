"""INI space-file loader.

A space file describes a weighted space in the expression language::

    [space]
    dim = 2
    label = "disk(R={R})"   ; optional; the file's path by default

    [metric]                ; missing entries default to the Kronecker delta
    g11 = "1"
    g22 = "x^2"

    [weight]                ; missing V defaults to the constant 0
    V = "0"

    [domain]
    phi = "x - {R}"

    [chart]                 ; bounds per axis, "lo,hi"
    axis1 = "{0.1*R},{R}"
    axis2 = "0,6.283185307179586"

    [boundary.1]            ; one section per boundary patch
    label = "rho=R"         ; optional; the section name by default
    bounds1 = "0,6.283185307179586"  ; parameter bounds
    map1 = "{R}"            ; chart coordinates of the boundary point,
    map2 = "x"              ; expressions in the patch parameters

    [cutoff]                ; inner/outer plateau boxes, axes ";"-separated
    inner = "{0.6*R},{R};0,6.283185307179586"
    outer = "{0.15*R},{R};0,6.283185307179586"

    [collar.1]              ; optional; one section per correction collar
    inner = "{0.6*R},{R};0,6.283185307179586"  ; boxes as in [cutoff]
    outer = "{0.3*R},{R};0,6.283185307179586"

    [samples]               ; optional; sampling grid counts
    interior = 24,24
    boundary = 96

    [quadrature]            ; optional; quadrature node counts, by default
    interior = 224,64       ; quadrature.DEFAULT_INTERIOR_NODES and
    boundary = 256          ; DEFAULT_BOUNDARY_NODES per axis

    [test]                  ; optional; one expression per line
    bases =
        0.4*sin(y)
        0.3*x^2
    densities =
        1 + 0.3*sin(y)

    [expected]              ; optional; a number, or true/false
    k_interior = 0.0
    lambda_min_ii = {1/R}
    strong_flat = false

    [provenance]            ; optional; text, kept as written
    k_interior = TRIVIAL: flat metric

    [params]                ; optional; parameters and their defaults,
    R = 1.0                 ; and under "positive" constant expressions
    positive = R            ; in them that must be > 0, one per line

Substitution: outside ``[params]``, every ``{...}`` block of a value is a
constant expression in the parameters (``exprlang.parse_constant``),
folded in IEEE double arithmetic in the order written with ``/`` as
true division, and replaced by the ``repr`` of its value before the
value is read.  So ``"{0.1*R},{R}"`` reads ``"0.1,1.0"`` at R = 1.

``[test] bases`` are the Neumann bases (``0.3*x, 0.3*y, ...``, one per
chart variable, without the section) and ``densities`` the factors of
the test densities (none without it: the cutoff alone); one expression
per line, so the commas of ``pow(a, b)`` split nothing.  ``[expected]``
and ``[provenance]`` take the keys ``EXPECTED_KEYS``.  Parameter names
are case-sensitive; every other option name is not.  An inline comment
starts at a ``;`` or ``#`` after whitespace, so a provenance's
``oracle; classical ...`` stays whole.  A section or option the loader
does not read is refused, so a misspelling is not silently a default.

``load_config`` returns the space as a ``verify.Target`` whose
``expressions`` keep every raw metric, weight, domain and map string,
so reports can re-echo exactly what was configured.
"""

from __future__ import annotations

import configparser
import math
import re
from typing import Dict, Iterator, List, Optional, Tuple

from .exprlang import VAR_NAMES, ParseError, evaluate_float, parse_constant
from .fields import ConstField, CutoffSpec, ExprField, ScalarField
from .geometry import WeightedSpace
from .quadrature import (DEFAULT_BOUNDARY_NODES, DEFAULT_INTERIOR_NODES,
                         BoundaryPatch)
from .verify import SamplePlan, Target

SECTIONS = ("space", "metric", "weight", "domain", "chart", "boundary.k",
            "cutoff", "collar.k", "samples", "quadrature", "test",
            "expected", "provenance", "params")
EXPECTED_KEYS = ("k_interior", "lambda_min_ii", "tr_ii", "strong_flat",
                 "minimal_trace")
_BLOCK = re.compile(r"\{([^{}]*)\}")


class ConfigError(ValueError):
    """Malformed space file; message carries section/key context."""


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def _lines(raw: str) -> List[str]:
    return [_unquote(line) for line in raw.splitlines() if line.strip()]


def _constant(src: str, params: Dict[str, float], where: str) -> float:
    try:
        value = evaluate_float(parse_constant(src, tuple(params)),
                               tuple(params.values()))
    except (ParseError, ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{where}: bad constant {src!r}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: constant {src!r} is {value!r}")
    return value


def _params(cp: configparser.ConfigParser,
            given: Dict[str, float]) -> Dict[str, float]:
    """The file's parameters, ``given`` over its defaults, each finite and
    inside the declared domain."""
    declared = dict(cp.items("params")) if cp.has_section("params") else {}
    positive = _lines(declared.pop("positive", ""))
    values: Dict[str, float] = {}
    for name, raw in declared.items():
        if not name.isidentifier():
            raise ConfigError(f"[params] {name!r} is not a name")
        try:
            values[name] = float(_unquote(raw))
        except ValueError:
            raise ConfigError(f"[params] {name}: non-numeric default "
                              f"{raw!r}") from None
    unknown = sorted(set(given) - set(values))
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown}; the file "
                          f"declares {sorted(values)}")
    values.update(given)
    for name, v in values.items():
        if not math.isfinite(v):
            raise ConfigError(f"parameter {name}={v} must be finite")
    for src in positive:
        v = _constant(src, values, "[params] positive")
        if not v > 0:
            shown = ", ".join(f"{k}={x!r}" for k, x in values.items())
            raise ConfigError(f"[params] positive: {src} = {v!r} is not "
                              f"positive at {shown}")
    return values


class _File:
    """A space file's sections outside ``[params]``: option names
    lowercased, and every ``{...}`` block substituted.  It notes each
    option the loader reads; ``unread`` lists the rest."""

    def __init__(self, cp: configparser.ConfigParser,
                 params: Dict[str, float]):
        self.sections: Dict[str, Dict[str, str]] = {}
        for section in cp.sections():
            if section == "params":
                continue
            options: Dict[str, str] = {}
            for key, raw in cp.items(section):
                if key.lower() in options:
                    raise ConfigError(f"[{section}] {key} is given twice")
                options[key.lower()] = _BLOCK.sub(
                    lambda m: repr(_constant(m.group(1), params,
                                             f"[{section}] {key}")), raw)
            self.sections[section] = options
        self.read = set()

    def get(self, section: str, key: str) -> Optional[str]:
        """The unquoted value, or None where it is not given."""
        raw = self.sections.get(section, {}).get(key)
        if raw is None:
            return None
        self.read.add((section, key))
        return _unquote(raw)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"[{section}] missing {key}")
        return value

    def items(self, section: str) -> Iterator[Tuple[str, str]]:
        for key in self.sections.get(section, {}):
            yield key, self.require(section, key)

    def numbered(self, prefix: str) -> List[str]:
        """The ``prefix.k`` sections, sorted by name."""
        return sorted(s for s in self.sections if s.startswith(prefix + "."))

    def unread(self) -> List[str]:
        return [f"[{section}] {key}"
                for section, options in self.sections.items()
                for key in options if (section, key) not in self.read]


def _known_section(name: str) -> bool:
    head, dot, tail = name.partition(".")
    if dot:
        return bool(tail) and f"{head}.k" in SECTIONS
    return name in SECTIONS


def _expr_field(src: str, dim: int, where: str) -> ExprField:
    try:
        return ExprField(src, dim)
    except ParseError as exc:
        raise ConfigError(f"{where}: bad expression {src!r}: {exc}") from exc


def _bounds(raw: str, where: str) -> Tuple[float, float]:
    """One axis's ``lo,hi``."""
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'lo,hi', got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{where}: non-numeric bound in {raw!r}") from None


def _pair(raw: str, where: str) -> Tuple[float, float]:
    lo, hi = _bounds(raw, where)
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
    box = tuple(_bounds(a, where) for a in axes)
    if any(lo > hi for lo, hi in box):
        raise ConfigError(f"{where}: need lo <= hi in {raw!r}")
    return box


def _spec(f: _File, section: str, dim: int) -> CutoffSpec:
    """The cutoff boxes of ``section``, inner and outer."""
    inner, outer = (_box(f.require(section, key), dim, f"[{section}] {key}")
                    for key in ("inner", "outer"))
    try:
        return CutoffSpec(inner, outer)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _expected(raw: str, where: str):
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        if math.isfinite(float(raw)):
            return float(raw)
    except ValueError:
        pass
    raise ConfigError(f"{where}: expected a number or true/false, got "
                      f"{raw!r}")


def load_config(path: str) -> Target:
    """The space file at ``path``, at its parameters' defaults."""
    return _load(path, {})


def _load(path: str, params: Dict[str, float]) -> Target:
    """The space file at ``path`` with ``params`` over its defaults: the
    one loader of every space, the zoo's included."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    cp.optionxform = str  # parameter names are case-sensitive
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read space file {path!r}")
    unknown = [s for s in cp.sections() if not _known_section(s)]
    if unknown:
        raise ConfigError(
            f"unknown section(s) {', '.join(f'[{s}]' for s in unknown)}; "
            f"known: {', '.join(f'[{s}]' for s in SECTIONS)}")
    f = _File(cp, _params(cp, params))

    try:
        dim = int(f.require("space", "dim"))
    except ValueError:
        raise ConfigError("[space] dim must be an integer") from None
    if not 2 <= dim <= 4:
        raise ConfigError(f"[space] dim must be 2..4, got {dim}")
    label = f.get("space", "label") or path

    expressions: Dict[str, str] = {}

    metric: List[List[ScalarField]] = [
        [ConstField(dim, 1.0 if i == j else 0.0) for j in range(dim)]
        for i in range(dim)]
    given: Dict[Tuple[int, int], str] = {}  # entry -> the key that set it
    for key, src in f.items("metric"):
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
        metric[i][j] = metric[j][i] = _expr_field(src, dim, f"[metric] {key}")
        expressions[f"metric.{key}"] = src

    v_src = f.get("weight", "v")
    weight = (ConstField(dim, 0.0) if v_src is None
              else _expr_field(v_src, dim, "[weight] V"))
    expressions["weight.V"] = "0" if v_src is None else v_src

    phi_src = f.require("domain", "phi")
    phi = _expr_field(phi_src, dim, "[domain] phi")
    expressions["domain.phi"] = phi_src

    chart_box = [_pair(f.require("chart", f"axis{ax}"), f"[chart] axis{ax}")
                 for ax in range(1, dim + 1)]

    patches: List[BoundaryPatch] = []
    for section in f.numbered("boundary"):
        pdim = dim - 1
        param_box = [_pair(f.require(section, f"bounds{ax}"),
                           f"[{section}] bounds{ax}")
                     for ax in range(1, pdim + 1)]
        maps = []
        for ci in range(1, dim + 1):
            key = f"map{ci}"
            src = f.require(section, key)
            maps.append(_expr_field(src, max(pdim, 1), f"[{section}] {key}"))
            expressions[f"{section}.{key}"] = src
        patches.append(BoundaryPatch(
            param_box=param_box, maps=maps,
            label=f.get(section, "label") or section))
    if not patches:
        raise ConfigError("at least one [boundary.k] section is required")

    cutoff = _spec(f, "cutoff", dim) if "cutoff" in f.sections else None
    collars = tuple(_spec(f, s, dim) for s in f.numbered("collar"))

    def counts_opt(section, key, n, default):
        raw = f.get(section, key)
        return default if raw is None else \
            _counts(raw, n, f"[{section}] {key}")

    plan = SamplePlan(
        interior_counts=counts_opt("samples", "interior", dim, (16,) * dim),
        boundary_counts=counts_opt("samples", "boundary", dim - 1,
                                   (64,) * (dim - 1)),
        quad_interior=counts_opt("quadrature", "interior", dim,
                                 (DEFAULT_INTERIOR_NODES,) * dim),
        quad_boundary=counts_opt("quadrature", "boundary", dim - 1,
                                 (DEFAULT_BOUNDARY_NODES,) * (dim - 1)))

    def expression_lines(key, default):
        raw = f.get("test", key)
        if raw is None:
            return default
        srcs = _lines(raw)
        if not srcs:
            raise ConfigError(f"[test] {key}: expected one expression "
                              f"per line")
        for src in srcs:
            _expr_field(src, dim, f"[test] {key}")
        return srcs

    bases = expression_lines("bases", [f"0.3*{v}" for v in VAR_NAMES[:dim]])
    h_sources = expression_lines("densities", [])
    expected = {key: _expected(raw, f"[expected] {key}")
                for key in EXPECTED_KEYS
                if (raw := f.get("expected", key)) is not None}
    provenance = {key: raw for key in EXPECTED_KEYS
                  if (raw := f.get("provenance", key)) is not None}

    unread = f.unread()
    if unread:
        raise ConfigError(f"unknown key(s) {', '.join(unread)}")
    space = WeightedSpace(dim=dim, metric=metric, weight=weight,
                          defining_fn=phi, chart_box=chart_box,
                          boundary_patches=patches, label=label)
    return Target(name=path, label=label, space=space, plan=plan,
                  cutoff=cutoff, neumann_bases=bases, h_sources=h_sources,
                  collars=collars, expected=expected, provenance=provenance,
                  expressions=expressions, error=ConfigError)

"""Scalar-field expression language: parser, jet evaluator, printer, d/dx.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := number | ident | ident '(' args ')' | '(' expr ')'

'^' binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.
Variables are x, y, z, w (or x1..x4) and must be in range for the
declared chart dimension.  Functions: sin, cos, exp, log, sqrt, tanh
(one argument) and pow (two).  No abs/min/max/conditionals: every field
must be C^3 on its chart.

A field's expression is evaluated only over jet arithmetic
(:func:`evaluate_jet`, fed whatever seeds the field is given); its
values are those of its order-0 jet, so a domain error anywhere is a
``JetDomainError`` that ``ScalarField.jet`` reports as an
:class:`EvalError` naming the point.  A constant in named parameters
(:func:`parse_constant`, the ``{...}`` blocks of a space file) is
folded over Python floats instead (:func:`evaluate_float`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .jets import Jet, apply_univariate, jet_pow

VAR_NAMES = ("x", "y", "z", "w")
FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "tanh": 1,
             "pow": 2}


class ParseError(ValueError):
    """Positioned parse failure."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"parse error at offset {offset}: expected "
                         f"{expected}, found {found}")


class EvalError(ValueError):
    """Evaluation failure (domain error etc.) annotated with the point."""


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple


# -- tokenizer ----------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(src: str):
    """Yield (kind, text, offset); kind in num/ident/op/end."""
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(i, "a number", repr(text)) from None
            if not np.isfinite(value):  # the literal overflows
                raise ParseError(i, "a finite number", repr(text))
            toks.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(i, "a token", repr(c))
    toks.append(("end", "", n))
    return toks


def _var_index(name: str):
    if name in VAR_NAMES:
        return VAR_NAMES.index(name)
    if len(name) == 2 and name[0] == "x" and name[1] in "1234":
        return int(name[1]) - 1
    return None


class _Parser:
    def __init__(self, src: str, dim: int, names=None):
        self.toks = _tokenize(src)
        self.dim = dim
        self.names = names  # a constant's parameters, for x, y, z, w
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, repr(op), repr(text) if text else "end of input")
        return self.next()

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                if text not in FUNCTIONS:
                    raise ParseError(off, "a known function",
                                     f"unknown function {text!r}")
                self.next()
                args = [self.expr()]
                while True:
                    k3, t3, o3 = self.peek()
                    if k3 == "op" and t3 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        off, f"{FUNCTIONS[text]} argument(s) to {text}",
                        f"{len(args)}")
                return Call(text, tuple(args))
            idx = (_var_index(text) if self.names is None else
                   self.names.index(text) if text in self.names else None)
            if idx is None:
                raise ParseError(off, "a variable or function",
                                 f"unknown identifier {text!r}")
            if idx >= self.dim:
                raise ParseError(off, f"a variable in range for dim {self.dim}",
                                 f"variable {text!r}")
            return Var(idx, text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(off, "an expression",
                         repr(text) if text else "end of input")


def parse(src: str, dim: int):
    """Parse ``src`` into an AST; raises :class:`ParseError` on failure."""
    if not 1 <= dim <= 4:
        raise ValueError(f"dim must be 1..4, got {dim}")
    return _parse_all(_Parser(src, dim))


def parse_constant(src: str, names: Sequence[str]):
    """Parse ``src``, a constant expression in the parameters ``names``:
    each is a ``Var`` indexing ``names``, and x, y, z, w are not
    variables.  Raises :class:`ParseError` on failure."""
    return _parse_all(_Parser(src, len(names), tuple(names)))


def _parse_all(p: _Parser):
    node = p.expr()
    kind, text, off = p.peek()
    if kind != "end":
        raise ParseError(off, "end of input", repr(text))
    return node


# -- evaluation ---------------------------------------------------------


def evaluate_jet(ast, seeds) -> Jet:
    """Fold the AST over jet arithmetic given seed jets; the result has
    at most the seeds' order.

    The seeds are either jets at the same points (the coordinates there,
    or a chart map's components), or the line seeds of a tensor grid,
    seed i holding axis i's line shaped to broadcast along that axis only
    (``(n0, 1)`` and ``(1, n1)``).  A constant takes the batch every seed
    broadcasts against, the seeds' elementwise smallest batch: the points
    themselves for node seeds, all ones for line seeds, so that a
    subexpression costs the size of the axes it reads.

    A nonzero literal operand of ``+``, ``-`` or ``*`` whose other operand
    is not a literal enters as a Python float, through Jet's scalar
    operations: ``c - e`` is ``(-e) + c``, and each slot gets the bits the
    constant jet would give.  A literal 0 is the zero jet, with its order
    and the constant's batch, and ``e / c`` stays ``e * (1/c)``, the
    product with the constant jet's reciprocal, which rounds differently
    from ``e / c``.  A literal exponent, negated or not, is handed to
    ``jet_pow`` as a number."""
    if isinstance(ast, Num):
        batch = tuple(map(min, zip(*(s.batch_shape for s in seeds))))
        return Jet.constant(seeds[0].dim, ast.value,
                            batch).truncate(seeds[0].order)
    if isinstance(ast, Var):
        return seeds[ast.index]
    if isinstance(ast, Neg):
        return -evaluate_jet(ast.operand, seeds)
    if isinstance(ast, Bin):
        if ast.op in "+-*" and isinstance(ast.left, Num) != \
                isinstance(ast.right, Num):
            literal_left = isinstance(ast.left, Num)
            c = (ast.left if literal_left else ast.right).value
            if c != 0.0:
                e = evaluate_jet(ast.right if literal_left else ast.left,
                                 seeds)
                if ast.op == "+":
                    return e + c
                if ast.op == "*":
                    return e * c
                return (-e) + c if literal_left else e - c
        a = evaluate_jet(ast.left, seeds)
        p = _literal(ast.right) if ast.op == "^" else None
        if p is not None:
            return jet_pow(a, p)
        b = evaluate_jet(ast.right, seeds)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            return a / b
        return jet_pow(a, b)
    if isinstance(ast, Call):
        if ast.fn == "pow":
            a = evaluate_jet(ast.args[0], seeds)
            p = _literal(ast.args[1])
            return jet_pow(a, evaluate_jet(ast.args[1], seeds)
                           if p is None else p)
        return apply_univariate(ast.fn, evaluate_jet(ast.args[0], seeds))
    raise TypeError(f"not an AST node: {ast!r}")


def _literal(node):
    """The number a literal or a negated literal (``-17`` in ``x^-17``)
    denotes, else None: an exponent that is one is handed to ``jet_pow``
    as a number, so an integer power takes any base, as in
    ``evaluate_float``."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        v = _literal(node.operand)
        return None if v is None else -v
    return None


_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": math.pow}
_FLOAT_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                    "log": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
                    "pow": math.pow}


def evaluate_float(ast, values: Sequence[float]) -> float:
    """Fold the AST of a constant over Python floats, ``Var`` i being
    ``values[i]``: each operation is one IEEE double operation, in the
    order written, and ``/`` is true division (the jet ``/`` multiplies
    by the reciprocal).  A domain error raises ``ArithmeticError`` or
    ``ValueError``."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return float(values[ast.index])
    if isinstance(ast, Neg):
        return -evaluate_float(ast.operand, values)
    if isinstance(ast, Bin):
        return _FLOAT_OPS[ast.op](evaluate_float(ast.left, values),
                                  evaluate_float(ast.right, values))
    if isinstance(ast, Call):
        return _FLOAT_FUNCTIONS[ast.fn](
            *(evaluate_float(a, values) for a in ast.args))
    raise TypeError(f"not an AST node: {ast!r}")


# -- pretty printer -----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 4}


def _prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 5


def to_source(node) -> str:
    """Render an AST back to grammar-conformant text.

    Printing then re-parsing then printing again is a fixed point on
    strings (parenthesization is conservative where associativity or
    precedence could differ).
    """
    if isinstance(node, Num):
        v = node.value
        if not np.isfinite(v):
            raise ValueError(f"constant {v!r} is not finite: no source form")
        if v < 0 or (v == 0 and np.signbit(v)):
            return to_source(Neg(Num(-v)))
        return repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        p = _PREC[node.op]
        lhs = to_source(node.left)
        rhs = to_source(node.right)
        if node.op == "^":
            # base must be an atom; exponent re-parses as a factor
            if _prec(node.left) <= _PREC["^"]:
                lhs = f"({lhs})"
            if isinstance(node.right, Bin):
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        if _prec(node.left) < p:
            lhs = f"({lhs})"
        if _prec(node.right) <= p:
            rhs = f"({rhs})"
        if p == 1:
            return f"{lhs} {node.op} {rhs}"
        return f"{lhs}{node.op}{rhs}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- symbolic construction and differentiation --------------------------

ZERO = Num(0.0)
ONE = Num(1.0)


def _is_num(node, v=None):
    return isinstance(node, Num) and (v is None or node.value == v)


def simplify(node):
    """Bottom-up constant folding and unit/zero elimination."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        a = simplify(node.operand)
        if _is_num(a):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.operand
        return Neg(a)
    if isinstance(node, Call):
        return Call(node.fn, tuple(simplify(a) for a in node.args))
    a = simplify(node.left)
    b = simplify(node.right)
    op = node.op
    if _is_num(a) and _is_num(b) and op != "/":
        if op == "+":
            return Num(a.value + b.value)
        if op == "-":
            return Num(a.value - b.value)
        if op == "*":
            return Num(a.value * b.value)
        if op == "^" and (a.value > 0 or b.value == int(b.value)):
            return Num(a.value ** b.value)
    if op == "+":
        if _is_num(a, 0):
            return b
        if _is_num(b, 0):
            return a
    elif op == "-":
        if _is_num(b, 0):
            return a
        if _is_num(a, 0):
            return simplify(Neg(b))
    elif op == "*":
        if _is_num(a, 0) or _is_num(b, 0):
            return ZERO
        if _is_num(a, 1):
            return b
        if _is_num(b, 1):
            return a
    elif op == "/":
        if _is_num(a, 0) and not _is_num(b, 0):
            return ZERO
        if _is_num(b, 1):
            return a
    elif op == "^":
        if _is_num(b, 1):
            return a
        if _is_num(b, 0):
            return ONE
    return Bin(op, a, b)


def add(a, b):
    return simplify(Bin("+", a, b))


def sub(a, b):
    return simplify(Bin("-", a, b))


def mul(a, b):
    return simplify(Bin("*", a, b))


def div(a, b):
    return simplify(Bin("/", a, b))


def differentiate(node, axis: int):
    """Exact symbolic partial derivative d/dx_axis, simplified."""
    if isinstance(node, Num):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.index == axis else ZERO
    if isinstance(node, Neg):
        return simplify(Neg(differentiate(node.operand, axis)))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        da = differentiate(a, axis)
        if node.op in "+-":
            return simplify(Bin(node.op, da, differentiate(b, axis)))
        db = differentiate(b, axis)
        if node.op == "*":
            return add(mul(da, b), mul(a, db))
        if node.op == "/":
            return sub(div(da, b), div(mul(a, db), mul(b, b)))
        return _d_pow(a, b, da, db)
    if isinstance(node, Call):
        u = node.args[0]
        du = differentiate(u, axis)
        if node.fn == "pow":
            return _d_pow(u, node.args[1], du,
                          differentiate(node.args[1], axis))
        if node.fn == "sin":
            return mul(Call("cos", (u,)), du)
        if node.fn == "cos":
            return simplify(Neg(mul(Call("sin", (u,)), du)))
        if node.fn == "exp":
            return mul(node, du)
        if node.fn == "log":
            return div(du, u)
        if node.fn == "sqrt":
            return div(du, mul(Num(2.0), node))
        if node.fn == "tanh":
            return mul(sub(ONE, Bin("^", node, Num(2.0))), du)
    raise TypeError(f"not an AST node: {node!r}")


def _d_pow(base, expo, dbase, dexpo):
    if _is_num(dexpo, 0) and _is_num(expo):
        p = expo.value
        return mul(mul(expo, simplify(Bin("^", base, Num(p - 1.0)))), dbase)
    # u^v with varying exponent: (u^v)' = u^v (v' log u + v u'/u)
    return mul(simplify(Bin("^", base, expo)),
               add(mul(dexpo, Call("log", (base,))),
                   mul(expo, div(dbase, base))))

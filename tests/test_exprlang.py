import gc
import itertools
import operator
import weakref

import numpy as np
import pytest

from curvcert.exprlang import (Bin, EvalError, Num, ParseError,
                               differentiate, evaluate_float, evaluate_jet,
                               parse, parse_constant, simplify, to_source)
from curvcert.fields import ExprField
from curvcert.jets import Jet, JetDomainError, seed_variable
from oracles import richardson_partial
from test_jets import assert_same_jet

# a corpus of 200 expressions covering every operator, function,
# precedence corner and variable name the grammar admits
_ATOMS = ["x", "y", "1", "2.5", "0.125", "x^2", "sin(x)", "cos(y)",
          "exp(x/4)", "log(x + 3)", "sqrt(x^2 + 1)", "tanh(x*y)",
          "(x + y)", "-x", "x1", "x2"]
_OPS = ["+", "-", "*", "/"]


def _corpus():
    out = [
        "x", "-x", "-x^2", "(-x)^2", "x^2^3", "2*x + 3*y", "x*y/2",
        "x - -y", "x^-2 + 1" if False else "x + y",
        "sin(cos(x))", "exp(-x^2/2)", "1/(1 + x^2)",
        "sqrt(x^2 + y^2 + 1)", "tanh(x) * tanh(y)",
        "x^2*y - y^2*x", "((x))", "3", "3.5e-2", "x/4 + y/8",
    ]
    i = 0
    while len(out) < 200:
        a = _ATOMS[i % len(_ATOMS)]
        b = _ATOMS[(i * 7 + 3) % len(_ATOMS)]
        op = _OPS[i % 4]
        out.append(f"{a} {op} {b}")
        i += 1
    return out


MALFORMED = [
    "", "   ", "x +", "* x", "x ^ ", "sin", "sin(", "sin()", "sin(x",
    "x + (y", "x)", "2..5", "x ** y", "foo(x)", "q", "x @ y",
    "1 + + ", "x^(", "(", "x y",
]


class TestParse:
    def test_basic_value(self):
        ast = parse("x^2 + 3*x*y", 2)
        assert ExprField(ast, 2).value(np.array([2.0, 1.0])) == pytest.approx(
            10.0)

    def test_unary_minus_precedence(self):
        # '-x^2' reads as -(x^2)
        assert ExprField(parse("-x^2", 1), 1).value(
            np.array([2.0])) == pytest.approx(-4.0)
        assert ExprField(parse("(-x)^2", 1), 1).value(
            np.array([2.0])) == pytest.approx(4.0)

    def test_power_right_associative(self):
        assert ExprField(parse("2*x^2^3", 1), 1).value(
            np.array([1.2])) == pytest.approx(2 * 1.2 ** 8)

    def test_numbered_variables(self):
        ast = parse("x1 + 2*x3", 3)
        assert ExprField(ast, 3).value(np.array([1.0, 10.0, 5.0])) == 11.0

    def test_var_out_of_dim(self):
        with pytest.raises(ParseError):
            parse("x + z", 2)

    @pytest.mark.parametrize("src", MALFORMED)
    def test_malformed_positioned(self, src):
        with pytest.raises(ParseError) as exc_info:
            parse(src, 2)
        err = exc_info.value
        assert isinstance(err.offset, int)
        assert 0 <= err.offset <= len(src)
        assert err.expected
        assert str(err.offset) in str(err) or "offset" in str(err)

    @pytest.mark.parametrize("src, offset", [("1e999", 0), ("x + 2e308", 4),
                                             ("x*(1E+400 - 1)", 3)])
    def test_overflowing_literal_positioned(self, src, offset):
        with pytest.raises(ParseError, match="a finite number") as exc_info:
            parse(src, 2)
        assert exc_info.value.offset == offset

    def test_whitespace_insensitive(self):
        a = parse("x ^ 2+ y", 2)
        b = parse("x^2 + y", 2)
        assert to_source(a) == to_source(b)


class TestPrettyPrint:
    @pytest.mark.parametrize("v", [np.inf, -np.inf, np.nan])
    def test_non_finite_constant_named(self, v):
        # simplify folds 1e300*1e300 to inf: the printer names it
        with pytest.raises(ValueError, match="is not finite"):
            to_source(Num(v))

    @pytest.mark.parametrize("src", _corpus())
    def test_fixed_point(self, src):
        ast = parse(src, 2)
        printed = to_source(ast)
        reprinted = to_source(parse(printed, 2))
        assert printed == reprinted

    @pytest.mark.parametrize("src", _corpus())
    def test_reparse_same_value(self, src):
        ast = parse(src, 2)
        x = np.array([0.37, 0.81])
        v1 = ExprField(ast, 2).value(x)
        v2 = ExprField(parse(to_source(ast), 2), 2).value(x)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


class TestFuzz:
    def test_fuzz_no_crash(self):
        # 1e5 random strings: parser either parses or raises ParseError,
        # never anything else
        rng = np.random.default_rng(2024)
        alphabet = np.array(list("xy123+-*/^()sincoexplogqrt. "))
        n_parsed = 0
        for _ in range(100_000):
            n = int(rng.integers(1, 12))
            src = "".join(rng.choice(alphabet, size=n))
            try:
                parse(src, 2)
                n_parsed += 1
            except ParseError:
                pass
        assert n_parsed > 0

    def test_fuzz_structured_roundtrip(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            src = _random_expr(rng, depth=3)
            ast = parse(src, 2)
            assert to_source(parse(to_source(ast), 2)) == to_source(ast)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.choice(["x", "y", "1", "2.5", "0.5"]))
    kind = rng.integers(0, 4)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} {rng.choice(['+', '-', '*', '/'])} {b})"
    if kind == 1:
        return f"{rng.choice(['sin', 'cos', 'exp', 'tanh'])}({a})"
    if kind == 2:
        return f"-({a})"
    return f"({a})^2"


class TestEvaluate:
    def test_jet_matches_value(self):
        ast = parse("sin(x)*exp(y/2) + x^3", 2)
        x = np.array([[0.3, 1.1], [0.2, -0.4]])
        j = ExprField(ast, 2).jet(x)
        np.testing.assert_allclose(
            j.value, np.sin(x[0]) * np.exp(x[1] / 2) + x[0] ** 3, atol=1e-14)

    def test_value_frees_nodes_without_collector(self):
        # no reference cycle may keep the node array alive after the call
        ast = parse("x*sin(y) + pow(x, 2) - 1.5", 2)
        x = np.linspace(0.1, 1.0, 8).reshape(2, 4)
        alive = weakref.ref(x)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ExprField(ast, 2).value(x)
            del x
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_domain_error_carries_point(self):
        ast = parse("log(x)", 1)
        with pytest.raises(EvalError) as exc_info:
            ExprField(ast, 1).jet(np.array([-1.0]))
        assert "log" in str(exc_info.value)

    def test_division_by_zero(self):
        ast = parse("1/x", 1)
        with pytest.raises(EvalError):
            ExprField(ast, 1).jet(np.array([0.0]))


class TestEvaluateOrder:
    """An order-k jet holds the order-3 jet's slots up to k, and its
    order never exceeds k."""

    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    def test_fuzz_truncated_fold_matches(self, batch):
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.5, 1.5, (2,) + batch)
        checked = 0
        for _ in range(200):
            f = ExprField(_random_expr(rng, depth=3), 2)
            with np.errstate(all="ignore"):
                try:
                    full = f.jet(x)
                except EvalError:
                    continue
                if not np.all(np.isfinite(full.stored)):
                    continue
                for k in range(3):
                    jk = f.jet(x, k)
                    assert jk.order <= k
                    want = full.truncate(k)  # a prefix on one support
                    assert jk.support == want.support
                    assert np.array_equal(jk.stored, want.stored)
            checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("src", ["2.5", "0", "x^0", "pow(y, 0)",
                                     "(x - x)*3", "sin(1) + 0*y"])
    def test_constant_subtrees_respect_order(self, src):
        f = ExprField(src, 2)
        x = np.array([[0.4, 1.2], [0.3, -0.8]])
        for k in range(4):
            jk = f.jet(x, k)
            assert jk.order <= k
            assert np.array_equal(jk.value, f.jet(x).value)


_JET_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}


def _seeds(kind, order):
    """Coordinate seeds at five points, at one point, or on the lines of
    a 3 x 4 grid, truncated to ``order``."""
    if kind == "lines":
        lines = [np.array([[-0.7], [0.4], [1.3]]),
                 np.array([[0.6, -1.1, 0.25, 2.0]])]
        seeds = [seed_variable(i, np.repeat(line[None], 2, 0))
                 for i, line in enumerate(lines)]
    else:
        x = np.array([[0.3, -1.2, 2.5, -0.0, 0.8], [0.7, 0.4, -1.1, 1.5, 0.0]])
        x = x[:, 0] if kind == "point" else x
        seeds = [seed_variable(i, x) for i in range(2)]
    return [s.truncate(order) for s in seeds]


def _outcome(run):
    """``run()``'s jet, or the type and message of the domain error it
    raises."""
    try:
        return run()
    except JetDomainError as exc:
        return type(exc), str(exc)


class TestLiteralOperands:
    """A literal operand of ``+``, ``-`` or ``*`` enters as a scalar, and
    ``/`` keeps its route: every result has the bits, degree, support,
    order and batch of the constant jet's route, and a domain error reads
    the same."""

    LITERALS = [2.5, -3.0, 1.0, 0.0, -0.0, 1e-8]
    OPERANDS = ["x", "x*y + sin(y)", "0*x", "-y", "exp(0.5)", "x^2 - 1"]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["nodes", "point", "lines"])
    def test_equals_the_constant_jet_route(self, kind, order):
        seeds = _seeds(kind, order)
        batch = tuple(map(min, zip(*(s.batch_shape for s in seeds))))
        for src in self.OPERANDS:
            e = parse(src, 2)
            for c, (op, fn) in itertools.product(self.LITERALS,
                                                 _JET_OPS.items()):
                k = Jet.constant(2, c, batch).truncate(order)
                for ast, want in (
                        (Bin(op, Num(c), e),
                         lambda: fn(k, evaluate_jet(e, seeds))),
                        (Bin(op, e, Num(c)),
                         lambda: fn(evaluate_jet(e, seeds), k))):
                    got = _outcome(lambda: evaluate_jet(ast, seeds))
                    ref = _outcome(want)
                    if isinstance(ref, tuple):
                        assert got == ref, (src, op, c)
                    else:
                        assert got.order == ref.order
                        assert_same_jet(got, ref)

    def test_literals_build_no_constant_jet(self, monkeypatch):
        calls = []
        constant = Jet.constant

        def counted(*args, **kwargs):
            calls.append(args)
            return constant(*args, **kwargs)

        monkeypatch.setattr(Jet, "constant", staticmethod(counted))
        j = ExprField("0.3*x + 2", 2).jet(np.array([[0.5, 1.5], [0.1, 0.2]]))
        assert calls == []
        assert (j.degree, j.support) == (1, frozenset({0}))
        assert np.array_equal(j.value, 0.3 * np.array([0.5, 1.5]) + 2)


class TestConstant:
    """A space file's ``{...}`` constants: IEEE float operations in the
    order written, ``/`` true division."""

    @pytest.mark.parametrize("src, values, want", [
        ("3/10", {}, 3 / 10),  # 3*(1/10) is 0.30000000000000004
        ("0.1*R", {"R": 3.0}, 0.1 * 3.0),
        ("r + 0.15*(R - r)", {"r": 0.25, "R": 2.0}, 0.25 + 0.15 * 1.75),
        ("(1 + rho*rho)/(2*rho)", {"rho": 0.7}, (1 + 0.7 * 0.7) / (2 * 0.7)),
        ("-1/r", {"r": 0.5}, -2.0),
        ("r^2 + sqrt(r) + pow(r, 3)", {"r": 2.0},
         2.0 ** 2 + 2.0 ** 0.5 + 2.0 ** 3),
    ])
    def test_value(self, src, values, want):
        ast = parse_constant(src, tuple(values))
        assert evaluate_float(ast, tuple(values.values())) == want

    def test_parameter_names_are_the_variables(self):
        # x is not a variable of a constant; a parameter may be any name
        with pytest.raises(ParseError, match="unknown identifier 'x'"):
            parse_constant("2*x", ("R",))
        ast = parse_constant("R - r", ("r", "R"))
        assert (ast.left.index, ast.right.index) == (1, 0)

    @pytest.mark.parametrize("src", ["1/0", "log(0 - 1)", "exp(1000)",
                                     "pow(0 - 8, 0.5)"])
    def test_domain_error(self, src):
        with pytest.raises((ArithmeticError, ValueError)):
            evaluate_float(parse_constant(src, ()), ())


class TestDifferentiate:
    @pytest.mark.parametrize("src", [
        "x^2*y", "sin(x*y)", "exp(x/3)*cos(y)", "sqrt(x^2 + y^2 + 1)",
        "tanh(x) + log(y + 2)", "x/(y + 3)", "(x + y)^3", "x^y",
    ])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_against_richardson(self, src, axis):
        ast = parse(src, 2)
        d = differentiate(ast, axis)
        x = np.array([0.7, 0.9])
        want = richardson_partial(
            lambda p: ExprField(ast, 2).value(p), x, axis, 1, 1e-4)
        got = ExprField(d, 2).value(x)
        assert got == pytest.approx(float(want), rel=1e-8, abs=1e-8)

    def test_simplify_preserves_value(self):
        ast = parse("0*x + 1*(y + 0) + x^1", 2)
        s = simplify(ast)
        x = np.array([1.3, -0.2])
        assert ExprField(s, 2).value(x) == pytest.approx(
            ExprField(ast, 2).value(x))

    def test_derivative_of_constant(self):
        d = differentiate(parse("3.5", 2), 0)
        assert ExprField(d, 2).value(np.array([1.0, 2.0])) == 0.0

import ast
import csv
import hashlib
import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import curvcert
from curvcert import report, zoo
from curvcert.cli import main
from curvcert.verify import certify
from curvcert.zoo import list_entries


PACKAGE = Path(curvcert.__file__).parent


def _package_reads() -> set:
    """The names the package's modules (``__init__`` aside) read: loaded
    as a name, imported by a relative import, or loaded as an attribute
    of one of its modules (``exprlang.ONE``).  A store, a keyword or an
    attribute of anything else (``parts.gamma2``) is not a read."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level:
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_list_zoo(self, capsys):
        code, out, err = run(capsys, "list-zoo")
        assert code == 0
        assert out.split() == list_entries()

    def test_describe_zoo(self, capsys):
        code, out, err = run(capsys, "describe", "--zoo", "ball")
        assert code == 0
        assert "dim: 2" in out
        assert "expected.lambda_min_ii: 1.0" in out

    def test_describe_config(self, capsys, tmp_path):
        from test_config import BALL_INI
        p = tmp_path / "ball.ini"
        p.write_text(BALL_INI)
        code, out, err = run(capsys, "describe", "--config", str(p))
        assert code == 0
        assert "expr.domain.phi: x - 1" in out

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_all_names_resolve(self):
        assert [n for n in curvcert.__all__ if not hasattr(curvcert, n)] \
            == []

    def test_no_export_takes_tol(self):
        # each check reads its identity's tolerance constant; a ``tol``
        # knob on a public callable would be a second, unpinned bound
        takes_tol = []
        for name in curvcert.__all__:
            obj = getattr(curvcert, name)
            fns = ([(f"{name}.{k}", getattr(obj, k)) for k, v in
                    vars(obj).items() if inspect.isfunction(v)
                    or isinstance(v, (staticmethod, classmethod))]
                   if isinstance(obj, type) else [(name, obj)])
            takes_tol += [n for n, fn in fns if callable(fn)
                          and "tol" in inspect.signature(fn).parameters]
        assert takes_tol == []

    def test_every_export_is_read_in_the_package(self):
        # a public name that no module of the package reads is surface
        # the certifier never uses; each exception says who reads it
        unread_ok = {
            # wrapped by name by perfbench/layers.py (ROADMAP item 17)
            "check_green", "check_mv_laplacian", "check_ricci_decomposition",
            # public operators, read by the convention tests
            "gamma1", "gamma2",
            # the decomposition of a non-Neumann f reads it (item 15)
            "mean_curvature",
        }
        read = _package_reads()
        assert sorted(set(curvcert.__all__) - read) == sorted(unread_ok)

    def test_every_module_constant_is_read_in_the_package(self):
        # an upper-case name assigned at the top of a module is a constant
        # of the package; one that no module reads is dead
        read, unread = _package_reads(), []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                targets = node.targets if isinstance(node, ast.Assign) else \
                    [node.target] if isinstance(node, ast.AnnAssign) else []
                unread += [f"{path.stem}.{t.id}" for t in targets
                           if isinstance(t, ast.Name)
                           and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                           and t.id not in read]
        assert unread == []

    @pytest.mark.parametrize("ref, name", [
        ("ball,R=inf", "R"), ("annulus,R=inf", "R"),
        ("hemisphere,r=inf", "r"), ("ball,R=nan", "R")])
    def test_non_finite_zoo_parameter(self, capsys, ref, name):
        code, out, err = run(capsys, "describe", "--zoo", ref)
        assert code == 2 and out == ""
        assert f"parameter {name}=" in err and "must be finite" in err
        assert "expression" not in err

    @pytest.mark.parametrize("ref, message", [
        ("ball,R=1,R=2", "zoo parameter 'R' is given twice"),
        ("annulus,r=0.25,R=2,r=0.5", "zoo parameter 'r' is given twice"),
        ("annulus,r", "bad zoo parameter 'r'"),
        ("ball,R=abc", "bad numeric value 'abc' for parameter 'R'"),
        ("", "empty zoo reference")])
    def test_bad_zoo_reference(self, capsys, ref, message):
        code, out, err = run(capsys, "describe", "--zoo", ref)
        assert (code, out) == (2, "") and message in err

    def test_unknown_zoo(self, capsys):
        code, out, err = run(capsys, "describe", "--zoo", "torus")
        assert code == 2
        assert "unknown zoo entry" in err

    def test_bad_config_path(self, capsys):
        code, out, err = run(capsys, "describe", "--config", "/nope.ini")
        assert code == 2
        assert "error" in err


DENSE_INI = Path(__file__).resolve().parents[1] / "perfbench" / \
    "dense_family.ini"
# sha256 of ``describe``'s output for each zoo entry and for
# dense_family.ini, whose label (its path) is replaced by its file name
DESCRIBE_SHA256 = {
    "half_space":
        "3a3d29ed4990df336c5036b23a0485616719d2f9a13eb1919a2196915bda4350",
    "gaussian_half_space":
        "a603a74b1378ad8223d60cf76ce784d77f1adb0ab6f4e26e2636227906e625da",
    "ball": "6f29a3d69d87b8a43b303081f12fb18b1b25e0ae8414c8d36e6c09530d765f77",
    "annulus":
        "2887f9a6d7f582b61ee97c8ec970431829d9d9d5a78d38a3ccd0ab36db48c8a9",
    "hemisphere":
        "ea0d457bafb67425c0f4afcaa23ae70c1c9a13c3504bd0600163880786a8877f",
    "poincare_cap":
        "a6fb7af0bc285979fc16e2ac9fbd80170e0f99bb51dac80af4a5b8b469de0b72",
    "ball3":
        "373fa470ef1602ff356011a51a82786315ed1e36f41dd544b9a09cb1ff9f7aef",
    DENSE_INI.name:
        "46b162f4e318939bf2196f3fed2f6eee912d3c5f0e060aecf0254f9738dac3a8",
}


@pytest.mark.parametrize("name", sorted(DESCRIBE_SHA256))
def test_describe_bytes_are_pinned(capsys, name):
    if name == DENSE_INI.name:
        code, out, _ = run(capsys, "describe", "--config", str(DENSE_INI))
        out = re.sub(r"^label: .*$", f"label: {name}", out, count=1,
                     flags=re.M)
    else:
        code, out, _ = run(capsys, "describe", "--zoo", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DESCRIBE_SHA256[name]


# sha256 of ``describe`` and of ``report --format json --no-timing`` at
# parameters other than the defaults: they pin the numbers an entry
# derives from its parameters (0.1*R, r + 0.15*(R - r), r^2,
# (1 + rho^2)/(2*rho), 2/R)
NON_DEFAULT_SHA256 = {
    ("describe", "ball,R=2"):
        "5e26eef9b978113ddd62d7cd0e30f854f762ff5676eacb36fc0df66222d31aa5",
    ("describe", "annulus,r=0.25,R=2"):
        "8e09080da2e27e344a96b3b1628acd3932fd6be1a9314f185c293b0d8fb133ef",
    ("describe", "hemisphere,r=2"):
        "a92a975599f9c251b6137400aeda4be2970c1f53b95138c7daaa4e0546a0dc31",
    ("describe", "poincare_cap,rho=0.5"):
        "6c5287beacd526c346acbaeca8c81485b7727ca7e7c23ba2153049583da99c26",
    ("describe", "ball3,R=2"):
        "6bef8e36c544b239dcc3b0f6caefeea2a84e8322e397baa501a5ba1723320efb",
    ("report", "annulus,r=0.25,R=2"):
        "68b3ecef9d4ac9c41e35a55640325013d9d912cdf198661a39a88023991c055b",
    ("report", "poincare_cap,rho=0.5"):
        "b95926e6daa4adb3c429b51b08919d375d60ef2a7e5f28dc298993fc942b5ad9",
}


@pytest.mark.parametrize("command, ref", sorted(NON_DEFAULT_SHA256))
def test_non_default_parameter_bytes_are_pinned(capsys, command, ref):
    extra = ["--format", "json", "--no-timing"] if command == "report" \
        else []
    code, out, _ = run(capsys, command, "--zoo", ref, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        NON_DEFAULT_SHA256[command, ref]


class TestCheck:
    def test_bochner_pass(self, capsys):
        code, out, err = run(capsys, "check", "bochner", "--zoo", "ball")
        assert code == 0
        assert "[PASS] bochner" in out

    def test_theorem_pass(self, capsys):
        code, out, err = run(capsys, "check", "theorem", "--zoo", "ball")
        assert code == 0
        assert "[PASS]" in out

    def test_theorem_raw_field_gate(self, capsys):
        code, out, err = run(capsys, "check", "theorem", "--zoo", "ball",
                             "--w", "x*cos(y)", "--raw-field")
        assert code == 2
        assert "hypothesis" in err

    def test_green_raw_field_boundary_term(self, capsys):
        # non-Neumann field: Green's formula still closes because the
        # boundary flux term is integrated explicitly
        code, out, err = run(capsys, "check", "green", "--zoo", "ball",
                             "--w", "x*cos(y)", "--raw-field")
        assert code == 0

    def test_laplacian_raw_field_boundary_term(self, capsys):
        # the raw field's flux is a term of the weak Laplacian formula, as
        # of Green's, not a Neumann leak: both read the same residual
        args = ("--zoo", "ball", "--w", "x*cos(y)", "--raw-field",
                "--h", "1+0.2*cos(y)")
        code, out, err = run(capsys, "check", "laplacian", *args)
        assert (code, err) == (0, "")
        assert out.startswith("[PASS] mv_laplacian: residual ")
        assert run(capsys, "check", "green", *args) == (
            0, out.replace("mv_laplacian", "green"), "")

    def test_ii_raw_field_gate(self, capsys):
        code, out, err = run(capsys, "check", "ii", "--zoo", "ball",
                             "--w", "x*cos(y)", "--raw-field")
        assert (code, out) == (2, "")
        assert "hypothesis" in err

    def test_bad_expression_offset(self, capsys):
        code, out, err = run(capsys, "check", "green", "--zoo", "ball",
                             "--h", "1 + (x")
        assert code == 2
        assert "offset" in err

    def test_dimension_bad_n(self, capsys):
        code, out, err = run(capsys, "check", "dimension", "--zoo", "ball",
                             "--n-dim", "1.0")
        assert code == 2
        assert "unsatisfiable" in err

    def test_dimension_nan_n(self, capsys):
        # NaN >= n is false, so NaN gets the N error, not a non-finite
        # value at some sample point
        code, out, err = run(capsys, "check", "dimension", "--zoo", "ball",
                             "--n-dim", "nan")
        assert code == 2
        assert "N = nan is not >= the chart dimension 2" in err
        assert "unsatisfiable" in err

    @pytest.mark.parametrize("name, flag", [
        ("bochner", "--n-dim=1"), ("bochner", "--n-dim=0"),
        ("bochner", "--w=x"), ("bochner", "--h=1"), ("bochner", "--raw-field"),
        ("dimension", "--w=x"), ("dimension", "--h=1"),
        ("dimension", "--raw-field"), ("ii", "--h=1"), ("green", "--n-dim=2")])
    def test_unread_flag_refused(self, capsys, name, flag):
        code, out, err = run(capsys, "check", name, "--zoo", "ball", flag)
        assert code == 2
        assert out == ""
        assert f"check {name} does not read {flag.split('=')[0]}" in err

    def test_zero_neumann_field_zoo(self, capsys):
        # phi = -y on half_space, so w - phi*Gamma(phi,w)/Gamma(phi,phi)
        # maps x*y to 0: every weak identity would read 0 = 0
        code, out, err = run(capsys, "check", "green", "--zoo", "half_space",
                             "--w", "0.06*x*y")
        assert code == 2
        assert "is 0 to rounding at all 576 interior sample points" in err
        code, out, err = run(capsys, "check", "green", "--zoo", "half_space",
                             "--w", "0.06*x*y^2")
        assert code == 0

    def test_zero_neumann_field_config(self, capsys, tmp_path):
        # on the INI disk (r = x, phi = x - 1) the base x - 1 projects to 0
        from test_config import BALL_INI
        p = tmp_path / "ball.ini"
        p.write_text(BALL_INI)
        code, out, err = run(capsys, "check", "laplacian", "--config", str(p),
                             "--w", "x - 1")
        assert code == 2
        assert "is 0 to rounding at all 576 interior sample points" in err

    def test_zero_neumann_field_error_types(self, tmp_path):
        from test_config import BALL_INI
        from curvcert import config, zoo
        target = zoo.load("half_space")
        for _ in range(2):  # a refused base is refused on every call
            with pytest.raises(zoo.ZooError, match="base '0.06\\*x\\*y'"):
                target.neumann("0.06*x*y")
        p = tmp_path / "ball.ini"
        p.write_text(BALL_INI)
        target = config.load_config(str(p))
        with pytest.raises(config.ConfigError):
            target.neumann("x - 1")
        assert target.neumann().base.source == "0.3*x"


    @pytest.mark.parametrize("raw", [(), ("--raw-field",)])
    def test_ii_without_cutoff(self, capsys, tmp_path, raw):
        # the II identity reads no test density: with no [cutoff] it is
        # refused for its Neumann field's missing cutoff
        from test_config import BALL_INI
        cut = BALL_INI.index("[cutoff]")
        p = tmp_path / "no_cutoff.ini"
        p.write_text(BALL_INI[:cut] + BALL_INI[BALL_INI.index("[samples]"):])
        code, out, err = run(capsys, "check", "ii", "--config", str(p), *raw)
        assert code == 2
        assert out == ""
        assert err == (f"error: {p}: no cutoff available; theorem-grade "
                       f"checks need a [cutoff] section or a zoo entry\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ii_non_finite_gate(self, capsys):
        # exp(800) overflows on the boundary: the gate cannot rank a NaN
        code, out, err = run(capsys, "check", "ii", "--zoo", "ball",
                             "--w", "exp(800*x)")
        assert code == 2
        assert "neumann_gate: non-finite value at point [1.0," in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bochner_non_finite(self, capsys, tmp_path):
        from test_config import BALL_INI
        p = tmp_path / "hot.ini"
        p.write_text(BALL_INI + '[weight]\nV = "exp(900*x)"\n')
        code, out, err = run(capsys, "check", "bochner", "--config", str(p))
        assert code == 2
        assert "bochner: non-finite value at point" in err

    @pytest.mark.parametrize("zoo,h,fn,argument", [
        ("ball", "log(x-0.5)", "log", lambda p: p[0] - 0.5),
        ("ball3", "sqrt(y-1)", "sqrt", lambda p: p[1] - 1.0)])
    def test_domain_error_names_a_failing_point(self, capsys, zoo, h, fn,
                                                argument):
        # the density leaves its domain on part of the chart only: the
        # error names a point of the chart where it does
        code, out, err = run(capsys, "check", "green", "--zoo", zoo,
                             "--h", h)
        assert code == 2
        assert out == ""
        prefix = f"error: {fn} of a nonpositive jet value at point ("
        assert err.startswith(prefix) and err.endswith(")\n")
        point = [float(v) for v in err[len(prefix):-2].split(",")]
        assert len(point) == (3 if zoo == "ball3" else 2)
        assert argument(point) <= 0.0

    @pytest.mark.parametrize("argv", [["certify", "--K", "0"],
                                      ["check", "green", "--raw-field"]])
    def test_phi_domain_error_names_a_failing_point(self, capsys, tmp_path,
                                                    argv):
        # phi leaves its domain for x < 0.3: no sample or quadrature node
        # there may be dropped as a NaN, so the run names one and stops
        p = tmp_path / DENSE_INI.name
        p.write_text(DENSE_INI.read_text().replace(
            'phi = "x - 1"', 'phi = "sqrt(x - 0.3) - sqrt(0.7)"'))
        assert "sqrt(x - 0.3)" in p.read_text()
        code, out, err = run(capsys, *argv, "--config", str(p))
        assert code == 2
        assert out == ""
        prefix = "error: sqrt of a nonpositive jet value at point ("
        assert err.startswith(prefix) and err.endswith(")\n")
        point = [float(v) for v in err[len(prefix):-2].split(",")]
        assert len(point) == 2 and point[0] < 0.3


def _hot_dense_ini(tmp_path):
    """The dense_family INI with a weight whose jets overflow inside."""
    from test_geometry import DENSE_INI
    text = DENSE_INI.read_text().replace('V = "0.5*x^2 + 0.2*sin(y)"',
                                         'V = "exp(900*x)"')
    assert 'exp(900*x)' in text
    p = tmp_path / "hot.ini"
    p.write_text(text)
    return p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["certify", "flatness"])
def test_non_finite_ricci_v(capsys, tmp_path, command):
    # Ricci_V overflows at the interior samples: no verdict can rank it
    from curvcert.config import load_config
    from curvcert.verify import interior_grid
    p = _hot_dense_ini(tmp_path)
    extra = ["--K", "0"] if command == "certify" else []
    code, out, err = run(capsys, command, "--config", str(p), *extra)
    assert code == 2
    assert out == ""
    prefix = "error: ricci_v: non-finite value at point "
    assert err.startswith(prefix)
    point = json.loads(err[len(prefix):].strip())
    cfg = load_config(str(p))
    samples = interior_grid(cfg.space, cfg.plan.interior_counts)
    assert any(np.array_equal(point, samples[:, k])
               for k in range(samples.shape[1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["report"], ["check", "green"]])
def test_non_finite_metric_is_named(capsys, tmp_path, argv):
    # exp(800 x) overflows for x > 0.887, where g12 is inf - inf: the
    # frame names the entry and a node there before probing for SPD
    p = tmp_path / DENSE_INI.name
    p.write_text(DENSE_INI.read_text().replace(
        'g12 = "0.2*x*cos(y)"', 'g12 = "0.1*(exp(800*x) - exp(800*x))"'))
    assert "exp(800*x)" in p.read_text()
    code, out, err = run(capsys, *argv, "--config", str(p))
    assert code == 2
    assert out == ""
    prefix = "error: metric entry g12 is not finite at point ("
    assert err.startswith(prefix) and err.endswith(")\n")
    point = [float(v) for v in err[len(prefix):-2].split(",")]
    assert len(point) == 2 and 800.0 * point[0] > np.log(np.finfo(float).max)


@pytest.mark.parametrize("phi, message", [
    ("x - 1 + 1e999*(x-x)", "expected a finite number, found '1e999'"),
    ("x - 1 + 1e300*1e300*(x - x)", "not finite"),
    ("x - 1 + x*(1e999 - 1e999)", "expected a finite number, found '1e999'")])
@pytest.mark.parametrize("argv", [["check", "green"], ["certify", "--K", "0"],
                                  ["report", "--format", "json",
                                   "--no-timing"]])
def test_non_finite_constant(capsys, tmp_path, phi, message, argv):
    # a literal that overflows is a parse error at its offset; a product
    # of finite literals that overflows is named where it is printed or
    # evaluated: every command exits 2 with one error line
    p = tmp_path / DENSE_INI.name
    p.write_text(DENSE_INI.read_text().replace('phi = "x - 1"',
                                               f'phi = "{phi}"'))
    assert phi in p.read_text()
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, *argv, "--config", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_empty_interior_plan(capsys, tmp_path):
    # phi = 1 - x is > 0 on the whole chart: no interior sample point
    from test_config import BALL_INI
    p = tmp_path / "outside.ini"
    p.write_text(BALL_INI.replace('phi = "x - 1"', 'phi = "1 - x"'))
    for argv in (["report"], ["check", "bochner"], ["check", "theorem"],
                 ["certify", "--K", "0"]):
        code, out, err = run(capsys, *argv, "--config", str(p))
        assert code == 2, argv
        assert err == (f"error: {p}: empty interior sample plan: none of "
                       f"the 576 grid points has phi < 0\n"), argv


@pytest.mark.parametrize("entry", ["gaussian_half_space", "ball3"])
def test_check_prints_the_suite_result(capsys, entry):
    # ``check NAME`` and ``run_suite`` read the same inputs
    suite = {r.name: str(r)
             for r in report.run_suite(zoo.load(entry))["checks"]}
    for name, check in (("bochner", "bochner"),
                        ("dimension", "dimension_term"),
                        ("green", "green"), ("laplacian", "mv_laplacian"),
                        ("ii", "ii_identity"),
                        ("theorem", "ricci_decomposition")):
        code, out, err = run(capsys, "check", name, "--zoo", entry)
        assert out == suite[check] + "\n", name


class TestCertify:
    def test_gaussian_half_space_tight(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo",
                             "gaussian_half_space", "--K", "1.0")
        assert code == 0
        assert "holds on samples" in out

    def test_gaussian_half_space_exceeds(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo",
                             "gaussian_half_space", "--K", "1.001")
        assert code == 1
        assert "FAILS" in out

    def test_annulus_non_convex(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo",
                             "annulus,r=0.5,R=1", "--K", "0")
        assert code == 1
        assert "lambda_min_II = -2" in out

    def test_rcd_star(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo", "ball",
                             "--K", "0", "--N", "2,5")
        assert code == 0
        assert "RCD*(0, 2)" in out

    def test_bad_k_value(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo", "ball",
                             "--K", "abc")
        assert code == 2

    @pytest.mark.parametrize("command, values", [
        ("certify", "--K=nan"), ("certify", "--K=inf"),
        ("certify", "--K=0,-inf"), ("certify", "--K=0 --N=nan"),
        ("report", "--K=nan"), ("report", "--N=2,nan")])
    def test_non_finite_k_and_nan_n_refused(self, capsys, command, values):
        # no verdict is computed about a bound that is not a number
        code, out, err = run(capsys, command, "--zoo", "ball",
                             *values.split())
        assert code == 2
        assert out == ""
        assert "bad " in err

    def test_infinite_n(self, capsys):
        code, out, err = run(capsys, "certify", "--zoo", "ball",
                             "--K", "0", "--N", "inf")
        assert code == 0
        assert "RCD*(0, inf): holds on samples" in out


class TestFlatness:
    def test_half_space(self, capsys):
        code, out, err = run(capsys, "flatness", "--zoo", "half_space")
        assert code == 0
        assert "strong (Ricci_V=0 and II=0):   True" in out


class TestReport:
    def test_json_deterministic_and_golden(self, capsys):
        code1, out1, err1 = run(capsys, "report", "--zoo", "ball",
                                "--format", "json", "--no-timing")
        code2, out2, err2 = run(capsys, "report", "--zoo", "ball",
                                "--format", "json", "--no-timing")
        assert code1 == 0 and code2 == 0
        assert out1 == out2                      # byte-identical
        doc = json.loads(out1)
        # golden structure: stable field names
        assert doc["label"] == "ball(R=1.0)"
        names = [c["name"] for c in doc["checks"]]
        assert names == ["bochner", "dimension_term", "green",
                         "mv_laplacian", "ii_identity",
                         "ricci_decomposition"]
        for c in doc["checks"]:
            assert set(c) == {"name", "residual", "tolerance", "passed",
                              "witness", "metadata"}
        assert set(doc["certificate"]) >= {"k_interior", "lambda_min_ii",
                                           "rcd_infinity", "certificate"}
        assert set(doc["flatness"]) >= {"name", "metadata"}
        assert doc["passed"] is True
        assert "timing_seconds" not in doc

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "report", "--zoo", "ball",
                             "--format", "text", "--no-timing")
        assert code == 0
        lines = out.splitlines()
        for name in ("bochner", "dimension_term", "green", "mv_laplacian",
                     "ii_identity", "ricci_decomposition"):
            assert sum(ln.startswith(f"[PASS] {name}:") for ln in lines) == 1
        assert "curvature certificate (sampled necessary conditions):" \
            in lines
        assert any(ln.startswith("  K_interior    = ") for ln in lines)
        assert lines[-1] == "overall: PASS"
        assert "timing_seconds" not in out

    def test_csv_parses(self, capsys):
        code, out, err = run(capsys, "report", "--zoo", "ball",
                             "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "kind"
        assert len(rows) > 10

    @pytest.mark.parametrize("name", ["annulus", "ball3"])
    def test_csv_values_match_certificate(self, capsys, entry, name):
        # %.17g round-trips a double, so the CSV holds the certificate's
        # extremes exactly
        code, out, err = run(capsys, "report", "--zoo", name,
                             "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        inner = [r for r in rows if r["kind"] == "interior"]
        bound = [r for r in rows if r["kind"] == "boundary"]
        e = entry(name)
        rep = certify(*e.plan.grids(e.space), ())
        assert (len(inner), len(bound)) == (rep.interior_samples,
                                            rep.boundary_samples)
        assert min(float(r["value_a"]) for r in inner) == rep.k_interior
        assert min(float(r["value_a"]) for r in bound) == rep.lambda_min_ii
        tr = [float(r["value_b"]) for r in bound]
        assert (min(tr), max(tr)) == rep.tr_ii_range

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "r.csv"
        code, out, err = run(capsys, "report", "--zoo", "ball",
                             "--format", "csv", "--out", str(dest))
        assert code == 0
        assert dest.read_text().startswith("kind")

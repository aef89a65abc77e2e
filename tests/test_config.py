import json
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from curvcert import zoo
from curvcert.cli import main
from curvcert.boundary import boundary_frame, second_fundamental_form
from curvcert.config import ConfigError, load_config
from curvcert.geometry import NodeGeometry
from curvcert.report import run_suite
from curvcert.verify import Target, certify

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DENSE_INI = ROOT / "perfbench" / "dense_family.ini"

BALL_INI = textwrap.dedent("""\
    [space]
    dim = 2

    [metric]
    g11 = "1"
    g22 = "x^2"

    [domain]
    phi = "x - 1"

    [chart]
    axis1 = "0.1,1"
    axis2 = "0,6.2831853071795862"

    [boundary.1]
    bounds1 = "0,6.2831853071795862"
    map1 = "1"
    map2 = "x"

    [cutoff]
    inner = "0.6,1;0,6.2831853071795862"
    outer = "0.15,1;0,6.2831853071795862"

    [samples]
    interior = 24,24
    boundary = 96

    [quadrature]
    interior = 224,64
    boundary = 256
    """)


def write(tmp_path, body, name="space.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def mutate(body, old, new):
    assert old in body
    return body.replace(old, new)


class TestRoundTrip:
    def test_ball_equivalent(self, tmp_path):
        cfg = load_config(write(tmp_path, BALL_INI))
        sp = cfg.space
        assert sp.dim == 2
        x = np.array([0.5, 1.0])
        assert float(np.asarray(sp.metric[1][1].value(x))) == 0.25
        assert float(np.asarray(sp.weight.value(x))) == 0.0  # default V
        assert float(np.asarray(sp.defining_fn.value(x))) == -0.5
        II = second_fundamental_form(boundary_frame(NodeGeometry(
            sp, np.array([1.0, 2.0]))))
        assert float(II[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert cfg.plan.interior_counts == (24, 24)
        assert cfg.plan.boundary_counts == (96,)
        assert cfg.plan.quad_interior == (224, 64)
        assert cfg.plan.quad_boundary == (256,)
        assert cfg.cutoff is not None
        assert cfg.cutoff.outer[0] == (0.15, 1.0)

    def test_file_and_zoo_load_one_record(self, tmp_path):
        path = write(tmp_path, BALL_INI)
        cfg = load_config(path)
        assert (type(cfg), type(zoo.load("ball")),
                type(zoo.parse_ref("ball,R=2"))) == (Target,) * 3
        assert (cfg.name, cfg.label, cfg.error) == (path, path, ConfigError)
        assert cfg.neumann_bases == ["0.3*x", "0.3*y"]
        assert (cfg.h_sources, cfg.collars, cfg.expected) == ([], (), {})

    def test_certify_matches_zoo_ball(self, tmp_path, ball):
        cfg = load_config(write(tmp_path, BALL_INI))
        rep = certify(*cfg.plan.grids(cfg.space), [0.0])
        assert rep.k_interior == pytest.approx(0.0, abs=1e-9)
        assert rep.lambda_min_ii == pytest.approx(
            ball.expected["lambda_min_ii"], abs=1e-9)

    def test_expression_echo(self, tmp_path):
        cfg = load_config(write(tmp_path, BALL_INI))
        assert cfg.expressions["metric.g22"] == "x^2"
        assert cfg.expressions["domain.phi"] == "x - 1"
        assert cfg.expressions["weight.V"] == "0"
        assert cfg.expressions["boundary.1.map2"] == "x"

    def test_defaults(self, tmp_path):
        minimal = textwrap.dedent("""\
            [space]
            dim = 2
            [domain]
            phi = "x - 1"
            [chart]
            axis1 = "0.1,1"
            axis2 = "0,6.2831853071795862"
            [boundary.1]
            bounds1 = "0,6.2831853071795862"
            map1 = "1"
            map2 = "x"
            """)
        cfg = load_config(write(tmp_path, minimal))
        x = np.array([0.4, 2.0])
        # metric defaults to the Kronecker delta, V to zero
        assert float(np.asarray(cfg.space.metric[0][0].value(x))) == 1.0
        assert float(np.asarray(cfg.space.metric[0][1].value(x))) == 0.0
        assert float(np.asarray(cfg.space.weight.value(x))) == 0.0
        assert cfg.cutoff is None
        assert cfg.plan.quad_interior == (64, 64)


def _readme_disk():
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_minimal_disk_passes(tmp_path):
    # the INI example in the README certifies as written
    cfg = load_config(write(tmp_path, _readme_disk()))
    assert cfg.plan.quad_interior == (224, 64)
    run = run_suite(cfg)
    assert run["passed"], [c.name for c in run["checks"] if not c.passed]


def test_a_space_file_declares_its_witnesses(tmp_path, capsys, ball):
    # README's disk, on the zoo ball's exact chart with its plan, patch
    # label, bases and densities: the decomposition's boundary term is
    # exercised, where the default bases are radial witnesses that read
    # rhs_boundary 0, and the report is the zoo ball's but for its label
    disk, rest = _readme_disk().split("[quadrature]")
    assert "[" not in rest  # the section is the block's last
    disk = disk.replace("6.2832", repr(2 * math.pi)).replace(
        "[boundary.1]\n", '[boundary.1]\nlabel = "rho=R"\n')
    plan = ball.plan
    disk += textwrap.dedent(f"""\
        [samples]
        interior = {",".join(map(str, plan.interior_counts))}
        boundary = {",".join(map(str, plan.boundary_counts))}

        [quadrature]
        interior = {",".join(map(str, plan.quad_interior))}
        boundary = {",".join(map(str, plan.quad_boundary))}

        [test]
        """)
    disk += "".join(f"{key} =\n" + "".join(f"    {src}\n" for src in srcs)
                    for key, srcs in (("bases", ball.neumann_bases),
                                      ("densities", ball.h_sources)))
    path = write(tmp_path, disk)
    cfg = load_config(path)
    assert (cfg.neumann_bases, cfg.h_sources, cfg.plan) == (
        ball.neumann_bases, ball.h_sources, ball.plan)
    decomposition, = [c for c in run_suite(cfg)["checks"]
                      if c.name == "ricci_decomposition"]
    meta = decomposition.metadata
    assert abs(meta["rhs_boundary"]) >= 1e-3 * abs(meta["lhs"])
    argv = ["report", "--format", "json", "--no-timing"]
    assert main(argv + ["--config", path]) == 0
    from_file = capsys.readouterr().out
    assert main(argv + ["--zoo", "ball"]) == 0
    from_zoo = capsys.readouterr().out
    assert json.loads(from_file)["label"] == path
    assert from_file.replace(json.dumps(path), json.dumps(ball.label)) \
        == from_zoo


PARAM_DISK = textwrap.dedent("""\
    [space]
    dim = 2
    label = "disk(r={r},R={R})"

    [metric]
    g22 = "x^2"

    [domain]
    phi = "x - {R}"

    [chart]
    axis1 = "{r},{R}"
    axis2 = "0,6.283185307179586"

    [boundary.1]
    bounds1 = "0,6.283185307179586"
    map1 = "{R}"
    map2 = "x"

    [params]
    r = 0.1
    R = 1.0
    positive =
        r
        R - r
    """)


class TestParams:
    def test_defaults_are_substituted(self, tmp_path):
        cfg = load_config(write(tmp_path, PARAM_DISK))
        # r and R are two parameters: names are case-sensitive
        assert cfg.label == cfg.space.label == "disk(r=0.1,R=1.0)"
        assert cfg.space.chart_box[0] == (0.1, 1.0)
        assert cfg.expressions["domain.phi"] == "x - 1.0"
        assert cfg.expressions["boundary.1.map1"] == "1.0"

    def test_block_is_the_repr_of_its_ieee_value(self, tmp_path):
        # 3/10 is one true division, 0.1*3 one product: 0.3 and
        # 0.30000000000000004, each printed by repr
        body = mutate(PARAM_DISK, 'label = "disk(r={r},R={R})"',
                      'label = "{3/10} {0.1*3} {r + 0.15*(R - r)}"')
        assert load_config(write(tmp_path, body)).label == \
            f"0.3 {0.1 * 3!r} {0.1 + 0.15 * (1.0 - 0.1)!r}"

    @pytest.mark.parametrize("old, new, msg", [
        ("R = 1.0", "R = 0.05",
         r"\[params\] positive: R - r = -0.05 is not positive at r=0.1, "
         r"R=0.05$"),
        ("r = 0.1", "r = 0", r"positive: r = 0.0 is not positive"),
        ("R = 1.0", "R = one", r"\[params\] R: non-numeric default"),
        ("R = 1.0", "R = inf", r"parameter R=inf must be finite"),
        ('axis1 = "{r},{R}"', 'axis1 = "{r},{2*Q}"',
         r"\[chart\] axis1: bad constant '2\*Q'.*unknown identifier 'Q'"),
        ('axis1 = "{r},{R}"', 'axis1 = "{r},{R/(r - r)}"',
         r"\[chart\] axis1: bad constant 'R/\(r - r\)'"),
        ('axis1 = "{r},{R}"', 'axis1 = "{r},{1e300*1e300}"',
         r"\[chart\] axis1: constant '1e300\*1e300' is inf"),
    ])
    def test_bad_params(self, tmp_path, old, new, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write(tmp_path, mutate(PARAM_DISK, old, new)))


class TestDeclaredSections:
    SECTIONS = textwrap.dedent("""\
        [test]
        bases =
            0.4*sin(y)
            pow(x, 2)*cos(y)
        densities =
            1 + 0.2*x

        [collar.1]
        inner = "0.8,1;0,6.2831853071795862"
        outer = "0.5,1;0,6.2831853071795862"

        [expected]
        k_interior = 0
        lambda_min_ii = 1
        strong_flat = FALSE
        minimal_trace = true

        [provenance]
        k_interior = TRIVIAL: flat; "quoted" text  # a comment
        """)

    def test_sections_fill_the_target(self, tmp_path):
        cfg = load_config(write(tmp_path, BALL_INI + self.SECTIONS))
        assert cfg.neumann_bases == ["0.4*sin(y)", "pow(x, 2)*cos(y)"]
        assert cfg.h_sources == ["1 + 0.2*x"]
        collar, = cfg.collars
        assert collar.outer[0] == (0.5, 1.0)
        assert cfg.expected == {"k_interior": 0.0, "lambda_min_ii": 1.0,
                                "strong_flat": False, "minimal_trace": True}
        assert [type(v) for v in cfg.expected.values()] == \
            [float, float, bool, bool]
        assert cfg.provenance == {
            "k_interior": 'TRIVIAL: flat; "quoted" text'}

    @pytest.mark.parametrize("old, new, msg", [
        ("    0.4*sin(y)\n", "    0.4*sin(q)\n",
         r"\[test\] bases: bad expression '0.4\*sin\(q\)'"),
        ("densities =\n    1 + 0.2*x", "densities =",
         r"\[test\] densities: expected one expression per line"),
        ("lambda_min_ii = 1", "lambda_min_ii = yes",
         r"\[expected\] lambda_min_ii: expected a number or true/false"),
        ('inner = "0.8,1', 'inner = "0.4,1',
         r"\[collar.1\] cutoff boxes must nest"),
    ])
    def test_bad_sections(self, tmp_path, old, new, msg):
        body = BALL_INI + mutate(self.SECTIONS, old, new)
        with pytest.raises(ConfigError, match=msg):
            load_config(write(tmp_path, body))


class TestUnknownNames:
    """A section or option the loader does not read is refused: a
    misspelling would otherwise load as a default."""

    @pytest.mark.parametrize("old, new", [("[quadrature]", "[qudrature]"),
                                          ("[weight]", "[weights]")])
    def test_misspelt_section(self, tmp_path, old, new):
        body = mutate(DENSE_INI.read_text(), old, new)
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown section(s) {new}; known: [space]")):
            load_config(write(tmp_path, body))

    def test_misspelt_test_section(self, tmp_path):
        body = BALL_INI + "\n[tests]\nbases = 0.4*sin(y)\n"
        with pytest.raises(ConfigError, match=re.escape("[tests]")):
            load_config(write(tmp_path, body))

    @pytest.mark.parametrize("section, line", [
        ("[space]", "foo = 1"), ("[chart]", 'axis3 = "0,1"'),
        ("[boundary.1]", 'map3 = "x"'), ("[domain]", 'PHI2 = "x"'),
        ("[cutoff]", 'middle = "0,1;0,1"'), ("[quadrature]", "interor = 8")])
    def test_unknown_key(self, tmp_path, section, line):
        body = mutate(BALL_INI, f"{section}\n", f"{section}\n{line}\n")
        key = line.split(" =")[0].lower()
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown key(s) {section} {key}")):
            load_config(write(tmp_path, body))

    def test_option_names_ignore_case(self, tmp_path):
        body = mutate(BALL_INI, 'g22 = "x^2"',
                      'G22 = "x^2"\n\n[weight]\nv = "0.1*x"')
        cfg = load_config(write(tmp_path, body))
        assert cfg.expressions["metric.g22"] == "x^2"
        assert cfg.expressions["weight.V"] == "0.1*x"

    def test_option_given_in_two_cases(self, tmp_path):
        body = mutate(BALL_INI, 'g22 = "x^2"',
                      'g22 = "x^2"\n\n[weight]\nV = "0"\nv = "0.1*x"')
        with pytest.raises(ConfigError, match=r"\[weight\] v is given twice"):
            load_config(write(tmp_path, body))

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError, match="no section headers"):
            load_config(write(tmp_path, "dim = 2\n" + BALL_INI))


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"))

    @pytest.mark.parametrize("old,new,msg", [
        ("[space]\ndim = 2", "[space]\ndim = 1", "dim must be 2..4"),
        ("[space]\ndim = 2", "[space]\ndim = two", "must be an integer"),
        ('g22 = "x^2"', 'q22 = "x^2"', "unknown key"),
        ('g22 = "x^2"', 'g23 = "x^2"', "out of range"),
        ('g22 = "x^2"', 'g22 = "x^^2"', "bad expression"),
        ('phi = "x - 1"', 'phi = "x - "', "bad expression"),
        ('axis2 = "0,6.2831853071795862"', 'axis2 = "0"', "expected 'lo,hi'"),
        ('axis1 = "0.1,1"', 'axis1 = "1,0.1"', "lo < hi"),
        ('map2 = "x"', 'mapq = "x"', "missing map2"),
        ('bounds1 = "0,6.2831853071795862"\nmap1', "map1",
         "missing bounds1"),
        ('outer = "0.15,1;0,6.2831853071795862"', "", "missing outer"),
        ("interior = 24,24", "interior = 24,24,24", "expected 2"),
        ("boundary = 96", "boundary = lots", "non-integer"),
    ])
    def test_bad_bodies(self, tmp_path, old, new, msg):
        body = mutate(BALL_INI, old, new)
        with pytest.raises(ConfigError, match=msg):
            load_config(write(tmp_path, body))

    @pytest.mark.parametrize("g21", ['"0.3"', '"0.1"'])
    def test_symmetric_entry_given_twice(self, tmp_path, g21):
        # g12 and g21 name one entry; the later one used to win silently
        body = mutate(BALL_INI, 'g22 = "x^2"',
                      f'g22 = "x^2"\ng12 = "0.1"\ng21 = {g21}')
        with pytest.raises(ConfigError, match=r"g12 and g21 both give"):
            load_config(write(tmp_path, body))

    def test_off_diagonal_entry_is_symmetric(self, tmp_path):
        body = mutate(BALL_INI, 'g22 = "x^2"', 'g22 = "x^2"\ng21 = "0.1"')
        sp = load_config(write(tmp_path, body)).space
        assert sp.metric[0][1] is sp.metric[1][0]
        assert float(np.asarray(sp.metric[0][1].value(np.array([0.5, 1.0])))) \
            == 0.1

    def test_missing_space_section(self, tmp_path):
        body = BALL_INI.replace("[space]\ndim = 2\n", "")
        with pytest.raises(ConfigError, match="space"):
            load_config(write(tmp_path, body))

    def test_missing_domain(self, tmp_path):
        body = BALL_INI.replace('[domain]\nphi = "x - 1"\n', "")
        with pytest.raises(ConfigError, match="domain"):
            load_config(write(tmp_path, body))

    def test_missing_chart_axis(self, tmp_path):
        body = BALL_INI.replace('axis2 = "0,6.2831853071795862"\n', "", 1)
        with pytest.raises(ConfigError, match="missing axis2"):
            load_config(write(tmp_path, body))

    def test_no_boundary_patch(self, tmp_path):
        body = BALL_INI.replace("[boundary.1]", "[edge.1]")
        with pytest.raises(ConfigError, match="boundary"):
            load_config(write(tmp_path, body))

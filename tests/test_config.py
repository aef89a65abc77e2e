import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from curvcert.boundary import boundary_frame, second_fundamental_form
from curvcert.config import ConfigError, load_config
from curvcert.geometry import NodeGeometry
from curvcert.report import run_suite, target_from_config
from curvcert.verify import certify

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_readme_minimal_disk_passes(tmp_path):
    # the INI example in the README certifies as written
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    cfg = load_config(write(tmp_path, block))
    assert cfg.plan.quad_interior == (224, 64)
    run = run_suite(target_from_config(cfg))
    assert run["passed"], [c.name for c in run["checks"] if not c.passed]


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

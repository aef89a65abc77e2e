import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import curvcert
from curvcert.cli import main
from curvcert.verify import certify
from curvcert.zoo import list_entries


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

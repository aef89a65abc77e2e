import csv
import io
import json

import numpy as np
import pytest

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

    def test_unknown_zoo(self, capsys):
        code, out, err = run(capsys, "describe", "--zoo", "torus")
        assert code == 2
        assert "unknown zoo entry" in err

    def test_bad_config_path(self, capsys):
        code, out, err = run(capsys, "describe", "--config", "/nope.ini")
        assert code == 2
        assert "error" in err


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
        rep = certify(e.space, *e.plan.grids(e.space), ())
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

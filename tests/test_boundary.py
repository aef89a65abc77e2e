import dataclasses

import numpy as np
import pytest

from curvcert import boundary, zoo
from curvcert.boundary import (BoundaryError, boundary_frame, make_neumann,
                               mean_curvature, normal_field_jets,
                               second_fundamental_form)
from curvcert.cli import main
from curvcert.config import load_config
from curvcert.fields import ConstField, CutoffSpec, ExprField
from curvcert.geometry import NodeGeometry, WeightedSpace
from curvcert.quadrature import gauss_rule
from curvcert.report import run_suite
from curvcert.verify import neumann_gate
from oracles import fd_partial


def frame(space, x):
    """The boundary frame at the points x."""
    return boundary_frame(NodeGeometry(space, x))


def euclidean_space(dim, phi, box):
    metric = [[ConstField(dim, 1.0 if i == j else 0.0) for j in range(dim)]
              for i in range(dim)]
    return WeightedSpace(dim=dim, metric=metric,
                         weight=ConstField(dim, 0.0),
                         defining_fn=ExprField(phi, dim), chart_box=box,
                         boundary_patches=[], label="euclid")


def cartesian_ball(dim=2):
    phi = " + ".join(f"x{i + 1}^2" for i in range(dim)) + " - 1"
    return euclidean_space(dim, phi, [(-1.2, 1.2)] * dim)


class TestBoundaryFrame:
    def test_half_space_frame(self, half_space):
        sp = half_space.space
        bf = frame(sp, np.array([3.0, 0.0]))
        np.testing.assert_allclose(bf.normal, [0.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(bf.tangents[0], [1.0, 0.0], atol=1e-14)

    def test_ball_outward_normal(self):
        sp = cartesian_ball()
        bf = frame(sp, np.array([0.0, 1.0]))
        np.testing.assert_allclose(bf.normal, [0.0, 1.0], atol=1e-14)

    def test_off_boundary_rejected(self):
        sp = cartesian_ball()
        with pytest.raises(BoundaryError, match="not on boundary"):
            frame(sp, np.array([0.5, 0.5]))

    def test_degenerate_gradient_rejected(self):
        sp = euclidean_space(2, "x^2 + y^2", [(-1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(BoundaryError, match="degenerate"):
            frame(sp, np.array([0.0, 0.0]))

    def test_normal_field_degenerate_gradient_rejected(self):
        # grad phi = 0 at x = 0: a BoundaryError, ahead of |grad phi|^-1
        sp = euclidean_space(2, "x^2 - 1", [(-1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(BoundaryError, match="degenerate"):
            normal_field_jets(NodeGeometry(sp, np.array([0.0, 0.3])))
        with pytest.raises(BoundaryError, match="degenerate"):
            normal_field_jets(NodeGeometry(
                sp, np.array([[0.5, 0.0], [0.3, 0.3]])))

    def test_frame_g_orthonormal(self):
        sp = cartesian_ball()
        t = np.linspace(0.2, 6.0, 7)
        x = np.stack([np.cos(t), np.sin(t)])
        bf = frame(sp, x)
        np.testing.assert_allclose(
            np.einsum("i...,i...->...", bf.normal, bf.normal), 1.0,
            atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("i...,i...->...", bf.normal, bf.tangents[0]), 0.0,
            atol=1e-12)


def ball_with_g12(tmp_path, g12):
    """ball.ini with the off-diagonal metric entry g12 and no [expected]
    or [provenance] section, written under tmp_path."""
    kept, drop = [], False
    for line in (zoo.SPACES / "ball.ini").read_text().splitlines():
        if line.startswith("["):
            drop = line in ("[expected]", "[provenance]")
        if not drop:
            kept.append(line)
            if line.startswith("g22 ="):
                kept.append(f'g12 = "{g12}"')
    path = tmp_path / "ball_g12.ini"
    path.write_text("\n".join(kept) + "\n")
    return path


# g12 is 0 at node 60 of the 256-node boundary rule (the first) or below
# 1e-5 there (the second): there, and only there, the chart axis e_x lies
# (nearly) along N, so a frame sought among the chart axes for the whole batch
# finds no axis that serves every node
G12_SAMPLES = ["0.014*x*sin(y - 0.8302522120267718)",
               "0.014*x*cos(y + 0.741)"]


class TestFrameAtEveryNode:
    @pytest.mark.parametrize("g12", G12_SAMPLES)
    def test_full_metric_ball_gets_a_verdict(self, tmp_path, g12):
        path = ball_with_g12(tmp_path, g12)
        checks = run_suite(load_config(str(path)))["checks"]
        assert len(checks) == 6
        assert [r.name for r in checks if not r.passed] == []
        assert main(["report", "--config", str(path), "--no-timing"]) == 0

    def test_node_alone_and_in_batch_agree(self, tmp_path):
        space = load_config(str(ball_with_g12(tmp_path,
                                              G12_SAMPLES[0]))).space
        y, _ = gauss_rule(0.0, 2.0 * np.pi, 256)
        assert y[60] == 0.8302522120267718
        x = np.stack([np.ones_like(y), y])
        batch = frame(space, x)
        for k in range(len(y)):
            alone = frame(space, x[:, k])
            for a, b in ((alone.tangents, batch.tangents[..., k]),
                         (alone.normal, batch.normal[..., k]),
                         (alone.II, batch.II[..., k])):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


class TestSecondFundamentalForm:
    def test_cartesian_circle(self):
        sp = cartesian_ball()
        t = np.linspace(0.1, 6.1, 9)
        x = np.stack([np.cos(t), np.sin(t)])
        II = np.asarray(second_fundamental_form(frame(sp, x)))
        np.testing.assert_allclose(II[0, 0], 1.0, atol=1e-12)

    def test_polar_ball_radius(self, entry):
        from curvcert.zoo import parse_ref
        for R in (1.0, 2.0):
            e = entry("ball") if R == 1.0 else parse_ref(f"ball,R={R}")
            x = np.array([[R, R, R], [0.3, 2.0, 5.0]])
            II = np.asarray(second_fundamental_form(frame(e.space, x)))
            np.testing.assert_allclose(II[0, 0], 1.0 / R, atol=1e-12)

    def test_annulus_inner_concave(self, entry):
        e = entry("annulus")
        inner = second_fundamental_form(frame(e.space, np.array([0.5, 1.0])))
        outer = second_fundamental_form(frame(e.space, np.array([1.0, 1.0])))
        assert float(inner[0, 0]) == pytest.approx(-2.0, abs=1e-12)
        assert float(outer[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_hemisphere_equator_geodesic(self, entry):
        e = entry("hemisphere")
        x = np.array([[np.pi / 2] * 3, [0.5, 2.5, 4.5]])
        bf = frame(e.space, x)
        II = np.asarray(second_fundamental_form(bf))
        np.testing.assert_allclose(II, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            np.asarray(mean_curvature(bf)), 0.0, atol=1e-12)

    def test_defining_fn_rescaling_invariance(self):
        a = euclidean_space(2, "x^2 + y^2 - 1", [(-1.2, 1.2)] * 2)
        b = euclidean_space(2, "7*(x^2 + y^2 - 1)", [(-1.2, 1.2)] * 2)
        x = np.array([0.6, 0.8])
        np.testing.assert_allclose(
            np.asarray(second_fundamental_form(frame(a, x))),
            np.asarray(second_fundamental_form(frame(b, x))), atol=1e-10)

    def test_tangent_frame_permutation_invariance(self):
        # II's eigenvalues do not depend on the g-orthonormal tangent
        # frame: the built one, its permutation and a rotation of it
        bf = frame(cartesian_ball(dim=3), np.array([0.36, 0.48, 0.8]))
        t = bf.tangents
        c, s = np.cos(0.7), np.sin(0.7)
        eigs = []
        for tangents in (t, t[::-1], np.stack([c * t[0] + s * t[1],
                                               c * t[1] - s * t[0]])):
            II = second_fundamental_form(
                dataclasses.replace(bf, tangents=tangents))
            eigs.append(np.sort(np.linalg.eigvalsh(II)))
        np.testing.assert_allclose(eigs[1], eigs[0], atol=1e-10)
        np.testing.assert_allclose(eigs[2], eigs[0], atol=1e-10)
        np.testing.assert_allclose(eigs[0], 1.0, atol=1e-10)

    def test_mean_curvature_reads_the_frames_II(self, monkeypatch):
        # II is formed once per frame; the mean curvature is its trace
        calls = []
        original = boundary.second_fundamental_form

        def counted(bf):
            calls.append(bf)
            return original(bf)

        monkeypatch.setattr(boundary, "second_fundamental_form", counted)
        bf = frame(cartesian_ball(dim=3), np.array([0.36, 0.48, 0.8]))
        II = bf.II
        assert float(mean_curvature(bf)) == float(np.trace(II))
        assert float(mean_curvature(bf)) == pytest.approx(2.0, abs=1e-12)
        assert calls == [bf]

    def test_mean_curvature_vs_fd_normal_oracle(self):
        # H = div(N) for the Euclidean sphere of radius r: (n-1)/r
        sp = cartesian_ball(dim=3)
        x = np.array([0.36, 0.48, 0.8])

        def normal_k(k):
            def fn(p):
                g = 2.0 * p  # grad phi
                return g[k] / np.linalg.norm(g)
            return fn

        div = sum(float(fd_partial(normal_k(k), x, k, 1, 1e-6))
                  for k in range(3))
        H = float(np.asarray(mean_curvature(frame(sp, x))))
        assert H == pytest.approx(div, abs=1e-8)
        assert H == pytest.approx(2.0, abs=1e-12)


class TestNeumannFactory:
    # plateau covers the whole closed disk so chi is constant at the
    # boundary and only the exact correction controls the normal derivative
    CUTOFF = CutoffSpec(inner=((-1.05, 1.05), (-1.05, 1.05)),
                        outer=((-1.15, 1.15), (-1.15, 1.15)))

    def test_hand_oracle_correction(self):
        # w = x on the unit disk: corrected field is x*(r^2 + 1)/(2 r^2)
        sp = cartesian_ball()
        nt = make_neumann(sp, ExprField("x1", 2), self.CUTOFF)
        pts = np.array([[0.3, -0.2, 0.4], [0.2, 0.3, -0.1]])
        r2 = (pts ** 2).sum(axis=0)
        want = pts[0] * (r2 + 1.0) / (2.0 * r2)
        np.testing.assert_allclose(nt.field.value(pts), want, atol=1e-12)

    def test_raw_field_fails_gate(self):
        sp = cartesian_ball()
        bf = frame(sp, np.array([0.0, 1.0]))
        res = bf.flux(ExprField("x1^2 + x2^2 - 1", 2).jet(bf.point, 1)
                      .gradient())
        assert float(np.asarray(res)) == pytest.approx(2.0, abs=1e-12)

    def test_corrected_field_passes_gate(self):
        sp = cartesian_ball()
        for src in ("x1", "x1*x2", "sin(x1) + x2^2"):
            nt = make_neumann(sp, ExprField(src, 2), self.CUTOFF)
            t = np.linspace(0.1, 6.1, 11)
            x = np.stack([np.cos(t), np.sin(t)])
            assert neumann_gate(nt, [frame(sp, x)])[1] < 1e-10

    def test_phi_as_base_is_corrected_to_flat(self):
        # w = phi has pure normal gradient; the correction removes it all
        sp = cartesian_ball()
        nt = make_neumann(sp, ExprField("x1^2 + x2^2 - 1", 2), self.CUTOFF)
        t = np.linspace(0.3, 5.9, 7)
        x = np.stack([np.cos(t), np.sin(t)])
        assert neumann_gate(nt, [frame(sp, x)])[1] < 1e-10

    def test_cutoff_exceeding_chart_rejected(self):
        sp = cartesian_ball()
        wide = CutoffSpec(inner=((-0.5, 0.5), (-0.5, 0.5)),
                          outer=((-2.0, 2.0), (-1.1, 1.1)))
        with pytest.raises(ValueError, match="chart_box"):
            make_neumann(sp, ExprField("x1", 2), wide)

    def test_zoo_families_pass_gate(self, entry):
        for name in ("ball", "hemisphere", "annulus", "gaussian_half_space"):
            e = entry(name)
            from curvcert.verify import boundary_grid
            frames = boundary_grid(e.space, e.plan.boundary_counts)
            for nt in e.neumann_family():
                for bf in frames:
                    res = neumann_gate(nt, [bf])[1]
                    assert res < 1e-8, (name, nt.base.source)

"""The pointwise checks run their test fields through Gamma2, Hess f and
the Ricci_V contraction as one stacked jet.  Every per-point row must
equal the one a loop over the fields computes, field by field, on the
same geometry: bit for bit on the suite's fields, and with the residual
and witness unchanged on fields of mixed degree."""

import collections

import numpy as np
import pytest

from curvcert import config, geometry, verify, zoo
from curvcert.fields import ConstField, ExprField
from curvcert.geometry import (bakry_emery_ricci, gamma2_parts, hessian,
                               hs_norm_sq)
from curvcert.jets import Jet
from curvcert.report import bochner_geometry
from test_geometry import DENSE_INI

NAMES = zoo.list_entries() + [DENSE_INI.name]


def _target(name):
    if name == DENSE_INI.name:
        return config.load_config(str(DENSE_INI))
    return zoo.load(name)


def _suite_geometry(target):
    return bochner_geometry(target.plan.grids(target.space)[0])


def _looped_rows(space, fields, geom, n_dim):
    """Reference: each field's Bochner and dimension-term rows, one field
    at a time, each contraction an einsum over (m,) operands."""
    ricv = bakry_emery_ricci(geom)
    bochner, dimension = [], []
    for f in fields:
        parts = gamma2_parts(geom, f)
        H = hessian(geom, parts.f_jet)
        gf = np.einsum("ij...,j...->i...", geom.inverse,
                       parts.f_jet.gradient())
        rhs = np.einsum("ij...,i...,j...->...", ricv, gf, gf) \
            + hs_norm_sq(geom, H)
        bochner.append(np.abs(parts.gamma2 - rhs)
                       / (1.0 + np.abs(parts.gamma2)))
        H = hessian(geom, f)
        lap = np.einsum("ij...,ij...->...", geom.inverse, H)
        dimension.append(lap**2 / n_dim - hs_norm_sq(geom, H))
    return np.array(bochner), np.array(dimension)


def _looped_results(space, fields, geom, n_dim):
    """Reference (residual, witness) of both checks, from the looped rows
    ranked as the checks rank them."""
    bochner, dimension = _looped_rows(space, fields, geom, n_dim)
    out = []
    for name, rows in (("bochner", bochner),
                       ("dimension_term", dimension)):
        out.append(verify._largest(
            name, [({"field_index": i}, v, geom.x)
                   for i, v in enumerate(rows)]))
    return out


def _checked_rows(monkeypatch, space, fields, geom, n_dim):
    """Both checks' results and the per-field rows they ranked."""
    rows = {}
    largest = verify._largest

    def recording(name, got, last=False):
        rows[name] = np.array([vals for _, vals, _ in got])
        return largest(name, got, last)

    monkeypatch.setattr(verify, "_largest", recording)
    results = (verify.check_bochner(fields, geom),
               verify.check_dimension_term(fields, geom, n_dim))
    return results, rows["bochner"], rows["dimension_term"]


class TestRowsBitIdentical:
    @pytest.mark.parametrize("name", NAMES)
    def test_suite_fields(self, monkeypatch, name):
        target = _target(name)
        space = target.space
        geom = _suite_geometry(target)
        fields = [f.jet(geom.x) for f in target.random_fields(10, seed=11)]
        n_dim = float(space.dim)
        want_b, want_d = _looped_rows(space, fields, geom, n_dim)
        (bochner, dimension), got_b, got_d = _checked_rows(
            monkeypatch, space, fields, geom, n_dim)
        assert got_b.shape == got_d.shape == (10, geom.x.shape[1])
        assert np.array_equal(got_b.view(np.int64), want_b.view(np.int64))
        assert np.array_equal(got_d.view(np.int64), want_d.view(np.int64))
        for r, (res, wit) in zip((bochner, dimension), _looped_results(
                space, fields, geom, n_dim)):
            assert (r.residual, r.witness) == (res, wit)


def _mixed_fields(target, geom):
    """Zero, constant, quadratic and random fields, some as jets, one a
    constant jet of batch () that broadcasts against the points."""
    d = target.space.dim
    rand = target.random_fields(2, seed=4)
    return [ConstField(d, 0.0), ConstField(d, 2.0).jet(geom.x),
            ExprField("x*y", d), rand[0].jet(geom.x), rand[1],
            ConstField(d, 2.0), ExprField("x*y", d).jet(geom.x),
            Jet.constant(d, 2.0)]


class TestMixedDegrees:
    @pytest.mark.parametrize("name", ["ball", "gaussian_half_space",
                                      "poincare_cap", "ball3"])
    @pytest.mark.parametrize("pick", ["mixed", "one_random", "one_zero",
                                      "one_scalar_jet", "scalar_jets"])
    def test_rows_residual_and_witness(self, monkeypatch, name, pick):
        target = _target(name)
        space = target.space
        geom = _suite_geometry(target)
        fields = _mixed_fields(target, geom)
        fields = {"mixed": fields, "one_random": fields[4:5],
                  "one_zero": fields[:1], "one_scalar_jet": fields[-1:],
                  "scalar_jets": [fields[-1], fields[-1]]}[pick]
        n_dim = float(space.dim) + 0.5
        want_b, want_d = _looped_rows(space, fields, geom, n_dim)
        (bochner, dimension), got_b, got_d = _checked_rows(
            monkeypatch, space, fields, geom, n_dim)
        assert got_b.shape == got_d.shape == (len(fields), geom.x.shape[1])
        assert np.array_equal(got_b, want_b)
        assert np.array_equal(got_d, want_d)
        for r, (res, wit) in zip((bochner, dimension), _looped_results(
                space, fields, geom, n_dim)):
            assert (r.residual, r.witness) == (res, wit)
        assert bochner.metadata["fields"] == len(fields)


class TestNoFields:
    def test_empty_list_raises(self):
        # a check that exercised no field and no point does not pass:
        # the pointwise checks find no jet to stack, and the II identity
        # ranks through the Neumann gate, which finds no value to rank
        target = _target("ball")
        geom = _suite_geometry(target)
        with pytest.raises(ValueError, match="no jets to stack"):
            verify.check_bochner([], geom)
        with pytest.raises(ValueError, match="no jets to stack"):
            verify.check_dimension_term([], geom, 2.0)
        g = target.neumann()
        for check in (verify.check_ii_identity, verify.neumann_gate):
            with pytest.raises(ValueError,
                               match="^neumann_gate: no value to rank$"):
                check(g, [])


class TestCounts:
    def _counted(self, monkeypatch, names):
        calls = collections.Counter()
        for fname in names:
            original = getattr(verify, fname)

            def wrapper(*args, _fname=fname, _original=original, **kwargs):
                calls[_fname] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(verify, fname, wrapper)
        return calls

    def test_one_batch_per_check(self, monkeypatch):
        # each check forms Hess f once, through the one Hessian formula,
        # on the fields' stacked jet
        target = _target("hemisphere")
        geom = _suite_geometry(target)
        fields = target.random_fields(10, seed=11)
        stacked, hess_f = [], collections.Counter()
        stack, hessian_jets = verify._stacked_jets, geometry.hessian_jets

        def recorded(*args):
            stacked.append(stack(*args))
            return stacked[-1]

        def counted(geom, df):  # a Hessian of the fields' stacked jet
            jf, = stacked
            hess_f["hessian_jets"] += df[0].value.tobytes() == \
                jf.partial(0).value.tobytes()
            return hessian_jets(geom, df)
        monkeypatch.setattr(verify, "_stacked_jets", recorded)
        monkeypatch.setattr(geometry, "hessian_jets", counted)
        calls = self._counted(monkeypatch, ("gamma2_parts", "hessian",
                                            "hs_norm_sq"))
        verify.check_bochner(fields, geom)
        assert calls == {"gamma2_parts": 1, "hs_norm_sq": 1}
        assert hess_f == {"hessian_jets": 1}
        calls.clear()
        stacked.clear()
        hess_f.clear()
        verify.check_dimension_term(fields, geom, 2.0)
        assert calls == {"hessian": 1, "hs_norm_sq": 1}
        assert hess_f == {"hessian_jets": 1}

    def test_random_fields_same_sources_fresh_list(self):
        first = verify.random_fields(2, 10, seed=11)
        again = verify.random_fields(2, 10, seed=11)
        assert again is not first
        assert [f.source for f in again] == [f.source for f in first]
        first.pop()
        first.append(ConstField(2, 1.0))
        third = verify.random_fields(2, 10, seed=11)
        assert len(third) == 10
        assert [f.source for f in third] == [f.source for f in again]

"""Tests for graph jets, jet extension and fiber shifts."""

import numpy as np
import pytest

from jetpde.errors import DegreeMismatch, OrderUnderflow, SchemaMismatch
from jetpde.jetspace import (
    FiberVector,
    GraphJet,
    jet_extend,
    jet_from_json,
    jet_to_json,
    project,
    shift_fiber,
    to_poly,
)
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import TruncatedJet


def scherk_germ_origin(order=2):
    # ln cos x - ln cos y around (0, 0): -x^2/2 - x^4/12 + y^2/2 + ...
    terms = {(2, 0): -0.5, (0, 2): 0.5}
    return TruncatedJet.from_terms(terms, 2, order)


def random_graph_jet(rng, n=2, order=3, chart="euclidean", scale=1.0):
    hess = SymMatrix(n, scale * rng.standard_normal(n * (n + 1) // 2)) if order >= 2 else None
    cubic = (
        SymCubic(n, scale * rng.standard_normal(len(SymCubic(n).data)))
        if order >= 3
        else None
    )
    return GraphJet(
        chart, n, order,
        scale * rng.standard_normal(n),
        scale * rng.standard_normal(),
        scale * rng.standard_normal(n),
        hess, cubic,
    )


class TestJetExtend:
    def test_x_squared(self):
        germ = TruncatedJet.from_terms({(2,): 1.0}, 1, 2)
        j = jet_extend(germ, [0.0], 2)
        assert j.u == 0.0
        assert np.allclose(j.grad, [0.0])
        assert j.hess[0, 0] == 2.0

    def test_zero_germ(self):
        j = jet_extend(TruncatedJet.constant(0.0, 2, 3), [0.0, 0.0], 3)
        assert j.u == 0.0
        assert np.allclose(j.grad, 0.0)
        assert np.allclose(j.hess.data, 0.0)
        assert np.allclose(j.cubic.data, 0.0)

    def test_scherk_second_jet(self):
        j = jet_extend(scherk_germ_origin(), [0.0, 0.0], 2)
        assert np.allclose(j.grad, [0.0, 0.0])
        assert j.hess.allclose(SymMatrix.diag([-1.0, 1.0]))

    def test_order_underflow(self):
        with pytest.raises(OrderUnderflow):
            jet_extend(TruncatedJet.constant(0.0, 1, 1), [0.0], 2)

    def test_round_trip_with_to_poly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            j = random_graph_jet(rng)
            back = jet_extend(to_poly(j), j.base, j.order, j.chart)
            assert back.hess.allclose(j.hess, tol=1e-14)
            assert back.cubic.allclose(j.cubic, tol=1e-14)
            assert np.allclose(back.grad, j.grad)
            assert back.u == j.u


class TestProject:
    def test_drops_top_order(self):
        rng = np.random.default_rng(12)
        j = random_graph_jet(rng, order=3)
        p = project(j, 2)
        assert p.order == 2 and p.cubic is None and p.hess.allclose(j.hess)
        p1 = project(j, 1)
        assert p1.hess is None

    def test_identity(self):
        rng = np.random.default_rng(13)
        j = random_graph_jet(rng, order=2)
        assert project(j, 2) is j


class TestShiftFiber:
    def test_zero_shift(self):
        rng = np.random.default_rng(14)
        j = random_graph_jet(rng, order=2)
        out = shift_fiber(j, FiberVector(2, SymMatrix(2)))
        assert out.hess.allclose(j.hess)

    def test_componentwise(self):
        j = GraphJet("euclidean", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix.diag([1, 1]))
        out = shift_fiber(j, FiberVector(2, SymMatrix.diag([0, 2])))
        assert out.hess.allclose(SymMatrix.diag([1, 3]))

    def test_free_transitive_abelian(self):
        rng = np.random.default_rng(15)
        j = random_graph_jet(rng, order=3)
        v = FiberVector(3, SymCubic(2, rng.standard_normal(4)))
        w = FiberVector(3, SymCubic(2, rng.standard_normal(4)))
        lhs = shift_fiber(shift_fiber(j, v), w)
        rhs = shift_fiber(j, FiberVector(3, v.components + w.components))
        assert lhs.cubic.allclose(rhs.cubic, tol=1e-15)  # float reassociation only
        back = shift_fiber(shift_fiber(j, v), FiberVector(3, -v.components))
        assert back.cubic.allclose(j.cubic, tol=1e-15)

    def test_vertical(self):
        rng = np.random.default_rng(16)
        j = random_graph_jet(rng, order=3)
        v = FiberVector(3, SymCubic(2, rng.standard_normal(4)))
        assert project(shift_fiber(j, v), 2).hess.allclose(project(j, 2).hess, tol=0.0)

    def test_degree_mismatch(self):
        rng = np.random.default_rng(17)
        j = random_graph_jet(rng, order=3)
        with pytest.raises(DegreeMismatch):
            shift_fiber(j, FiberVector(2, SymMatrix(2)))


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for order in (1, 2, 3):
            j = random_graph_jet(rng, order=order)
            d = jet_to_json(j)
            assert ("hess_lower" in d) == (order >= 2)
            assert ("cubic_lex" in d) == (order >= 3)
            back = jet_from_json(d)
            assert back.order == j.order and back.chart == j.chart
            assert np.allclose(back.base, j.base) and np.allclose(back.grad, j.grad)
            if order >= 2:
                assert back.hess.allclose(j.hess, tol=0.0)
            if order >= 3:
                assert back.cubic.allclose(j.cubic, tol=0.0)


class TestFinite:
    @pytest.mark.parametrize("field", ["base", "u", "grad", "hess", "cubic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        parts = {"base": [0.1, 0.2], "u": 0.3, "grad": [0.4, 0.5],
                 "hess": [1.0, 2.0, 3.0], "cubic": [1.0, 2.0, 3.0, 4.0]}
        if field == "u":
            parts["u"] = bad
        else:
            parts[field] = list(parts[field])
            parts[field][-1] = bad
        with pytest.raises(SchemaMismatch):
            GraphJet("affine", 2, 3, parts["base"], parts["u"], parts["grad"],
                     SymMatrix(2, parts["hess"]), SymCubic(2, parts["cubic"]))

    def test_nan_record_rejected(self):
        record = jet_to_json(GraphJet("euclidean", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix(2)))
        record["hess_lower"][1] = float("nan")
        with pytest.raises(SchemaMismatch):
            jet_from_json(record)

    def test_base_and_grad_are_frozen_copies(self):
        base, grad = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        j = GraphJet("euclidean", 2, 1, base, 0.0, grad)
        base[0] = grad[0] = 9.0
        assert j.base[0] == 0.1 and j.grad[0] == 0.3
        with pytest.raises(ValueError):
            j.base[0] = 1.0

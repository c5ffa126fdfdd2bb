"""Tests for the truncated Taylor-series engine."""

from fractions import Fraction

import numpy as np
import pytest

from jetpde.errors import (
    DimensionMismatch,
    DivisionBySingular,
    OrderUnderflow,
    SingularJacobian,
)
from jetpde.taylor import (
    TruncatedJet,
    add,
    compose,
    compose_map,
    differentiate,
    divide,
    invert_map,
    mul,
    multi_indices,
)


def J(terms, n=1, order=3):
    return TruncatedJet.from_terms(terms, n, order)


def random_jet(rng, n, order, scale=1.0):
    return TruncatedJet(n, order, scale * rng.standard_normal(len(multi_indices(n, order))))


def exact_compose(outer, inners, order, sign=lambda c: c):
    """Coefficients of outer(inner_1, ...) truncated at ``order``, in exact
    rational arithmetic on ``sign`` of every float coefficient."""
    n = inners[0].n_vars

    def mul(p, q):
        out = {}
        for a, x in p.items():
            for b, y in q.items():
                c = tuple(i + j for i, j in zip(a, b))
                if sum(c) <= order:
                    out[c] = out.get(c, 0) + x * y
        return out

    gs = [{a: Fraction(sign(c)) for a, c in zip(multi_indices(n, order), g.coeffs.tolist())} for g in inners]
    one = (0,) * n
    monomials = {(0,) * outer.n_vars: {one: Fraction(1)}}  # each is a lower one times one inner germ
    total = {}
    for beta, c in zip(multi_indices(outer.n_vars, outer.order), outer.coeffs.tolist()):
        if beta not in monomials:
            i = next(k for k, e in enumerate(beta) if e)
            monomials[beta] = mul(monomials[beta[:i] + (beta[i] - 1,) + beta[i + 1:]], gs[i])
        for a, x in monomials[beta].items():
            total[a] = total.get(a, 0) + Fraction(sign(c)) * x
    return [total.get(a, Fraction(0)) for a in multi_indices(n, order)]


class TestAdd:
    def test_coefficientwise(self):
        a = J({(0,): 1.0, (1,): 1.0}, order=2)
        b = J({(2,): 1.0}, order=2)
        assert add(a, b).allclose(J({(0,): 1.0, (1,): 1.0, (2,): 1.0}, order=2))

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = random_jet(rng, 2, 3)
        assert add(a, TruncatedJet.constant(0.0, 2, 3)).allclose(a)

    def test_truncates_to_min_order(self):
        a = J({(1,): 1.0}, order=1)
        b = J({(2,): 1.0}, order=2)
        out = add(a, b)
        assert out.order == 1
        assert out.allclose(J({(1,): 1.0}, order=1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add(J({}, n=1), J({}, n=2))


class TestMul:
    def test_one_plus_x_times_one_minus_x(self):
        a = J({(0,): 1.0, (1,): 1.0}, order=2)
        b = J({(0,): 1.0, (1,): -1.0}, order=2)
        assert mul(a, b).allclose(J({(0,): 1.0, (2,): -1.0}, order=2))

    def test_truncation_at_order_one(self):
        a = J({(0,): 1.0, (1,): 1.0}, order=1)
        b = J({(0,): 1.0, (1,): -1.0}, order=1)
        assert mul(a, b).allclose(J({(0,): 1.0}, order=1))

    def test_xy(self):
        x = TruncatedJet.coordinate(0, 2, 2)
        y = TruncatedJet.coordinate(1, 2, 2)
        assert mul(x, y).allclose(J({(1, 1): 1.0}, n=2, order=2))


class TestCompose:
    def test_square_of_sum(self):
        outer = J({(2,): 1.0}, order=2)
        inner = J({(1, 0): 1.0, (0, 1): 1.0}, n=2, order=2)
        out = compose(outer, [inner])
        assert out.allclose(J({(2, 0): 1.0, (1, 1): 2.0, (0, 2): 2.0 / 2}, n=2, order=2), tol=0)
        assert out.coeff((1, 1)) == 2.0

    def test_identity_outer(self):
        rng = np.random.default_rng(1)
        f = random_jet(rng, 3, 3)
        w = TruncatedJet.coordinate(0, 1, 3)
        assert compose(w, [f]).allclose(f, tol=1e-14)

    def test_geometric_series(self):
        # outer = 1/(1-w) at order 3; oracle: long division of 1 by (1-w).
        divisor = [1.0, -1.0]
        quotient = []
        rem = [1.0, 0.0, 0.0, 0.0]
        for k in range(4):
            q = rem[k] / divisor[0]
            quotient.append(q)
            for j, d in enumerate(divisor):
                if k + j < 4:
                    rem[k + j] -= q * d
        outer = TruncatedJet(1, 3, quotient)
        x = TruncatedJet.coordinate(0, 1, 3)
        assert compose(outer, [x]).allclose(J({(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 1.0}))

    def test_recentering(self):
        # outer around the inner's constant term: (1 + w)^2 with w = 1 + x.
        outer = J({(0,): 1.0, (1,): 2.0, (2,): 1.0}, order=2)  # (1+w)^2
        inner = J({(0,): 1.0, (1,): 1.0}, order=2)  # 1 + x
        out = compose(outer, [inner])
        assert out.allclose(J({(0,): 4.0, (1,): 4.0, (2,): 1.0}, order=2), tol=1e-14)

    def test_order_underflow(self):
        outer = J({(1,): 1.0}, order=1)
        inner = J({(1,): 1.0}, order=3)
        with pytest.raises(OrderUnderflow):
            compose(outer, [inner], order=2)

    def test_nonzero_centres_against_exact_arithmetic(self):
        # |F - E| <= 16 eps M per coefficient, where E composes the same
        # float coefficients in exact rational arithmetic and M composes
        # their absolute values.
        rng = np.random.default_rng(27)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(1, 4, size=2))
            order = int(rng.integers(0, 5))
            outer = random_jet(rng, m, order)
            inners = [random_jet(rng, n, order, scale=2.0) for _ in range(m)]
            got = compose(outer, inners).coeffs
            exact = exact_compose(outer, inners, order)
            bound = exact_compose(outer, inners, order, abs)
            err = np.array([float(abs(Fraction(g) - e)) for g, e in zip(got.tolist(), exact)])
            assert (err <= 16 * np.finfo(float).eps * np.array([float(b) for b in bound])).all()


class TestInvertMap:
    def test_reversion_1d(self):
        f = J({(1,): 1.0, (2,): 1.0})  # x + x^2
        (g,) = invert_map([f])
        assert g.allclose(J({(1,): 1.0, (2,): -1.0, (3,): 2.0}), tol=1e-12)
        x = TruncatedJet.coordinate(0, 1, 3)
        assert compose(f, [g]).allclose(x, tol=1e-12)

    def test_linear_map(self):
        rng = np.random.default_rng(2)
        A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        fs = []
        for i in range(3):
            fs.append(TruncatedJet.from_terms(
                {tuple(1 if k == jv else 0 for k in range(3)): A[i, jv] for jv in range(3)},
                3, 2))
        gs = invert_map(fs)
        Ainv = np.linalg.inv(A)
        for i in range(3):
            got = gs[i].linear_part()
            assert np.allclose(got, Ainv[i], atol=1e-12)

    def test_singular(self):
        f = J({(2,): 1.0})  # x^2: no linear part
        with pytest.raises(SingularJacobian):
            invert_map([f])

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = rng.integers(1, 5)
            order = 3
            fs = []
            A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            for i in range(n):
                coeffs = 0.5 * rng.standard_normal(len(multi_indices(n, order)))
                f = TruncatedJet(n, order, coeffs)
                f = f - f.const_term
                # overwrite the linear part with the well-conditioned A
                terms = {
                    tuple(alpha): c
                    for alpha, c in zip(multi_indices(n, order), f.coeffs)
                    if sum(alpha) >= 2
                }
                for jv in range(n):
                    terms[tuple(1 if k == jv else 0 for k in range(n))] = A[i, jv]
                fs.append(TruncatedJet.from_terms(terms, n, order))
            gs = invert_map(fs)
            ident = [TruncatedJet.coordinate(i, n, order) for i in range(n)]
            for lhs, x in zip(compose_map(gs, fs), ident):
                assert lhs.allclose(x, tol=1e-12)
            for lhs, x in zip(compose_map(fs, gs), ident):
                assert lhs.allclose(x, tol=1e-12)

    def test_no_germs(self):
        # once a ValueError from min() of nothing
        with pytest.raises(DimensionMismatch):
            invert_map([])


class TestDifferentiate:
    def test_x2y(self):
        a = J({(2, 1): 1.0}, n=2)
        assert differentiate(a, 0).allclose(J({(1, 1): 2.0}, n=2, order=2))

    def test_constant(self):
        a = TruncatedJet.constant(5.0, 1, 2)
        assert differentiate(a, 0).allclose(TruncatedJet.constant(0.0, 1, 1))

    def test_y_cubed(self):
        a = J({(1, 0): 1.0, (0, 3): 1.0}, n=2)
        out = differentiate(a, 1)
        assert out.order == 2
        assert out.allclose(J({(0, 2): 3.0}, n=2, order=2))

    @pytest.mark.parametrize("i", [2, -1])
    def test_bad_variable(self, i):
        with pytest.raises(DimensionMismatch):
            differentiate(J({(1, 0): 1.0}, n=2), i)


class TestBoundary:
    @pytest.mark.parametrize("i", [5, -1])
    def test_coordinate_bad_variable(self, i):
        with pytest.raises(DimensionMismatch):
            TruncatedJet.coordinate(i, 2, 2)

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0]])
    def test_call_wrong_point_length(self, point):
        a = J({(1, 0): 1.0, (0, 2): 2.0}, n=2, order=2)  # x + 2 y^2
        assert a([1.0, 2.0]) == 9.0
        with pytest.raises(DimensionMismatch):
            a(point)

    @pytest.mark.parametrize("alpha,error", [
        ((1,), DimensionMismatch),
        ((1, 0, 0), DimensionMismatch),
        ((-1, 1), DimensionMismatch),
        ((2, 1), OrderUnderflow),
    ], ids=["short", "long", "negative", "above-order"])
    def test_bad_multi_index(self, alpha, error):
        with pytest.raises(error):
            J({}, n=2, order=2).coeff(alpha)
        with pytest.raises(error):
            J({alpha: 1.0}, n=2, order=2)


class TestDivide:
    def test_geometric(self):
        one = TruncatedJet.constant(1.0, 1, 2)
        b = J({(0,): 1.0, (1,): -1.0}, order=2)
        assert divide(one, b).allclose(J({(0,): 1.0, (1,): 1.0, (2,): 1.0}, order=2), tol=1e-14)

    def test_divide_by_one(self):
        rng = np.random.default_rng(4)
        a = random_jet(rng, 2, 3)
        assert divide(a, TruncatedJet.constant(1.0, 2, 3)).allclose(a, tol=1e-14)

    def test_singular(self):
        one = TruncatedJet.constant(1.0, 1, 2)
        x = TruncatedJet.coordinate(0, 1, 2)
        with pytest.raises(DivisionBySingular):
            divide(one, x)


class TestRingProperties:
    def test_ring_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(1, 4)
            order = rng.integers(0, 4)
            a, b, c = (random_jet(rng, n, order) for _ in range(3))
            assert mul(mul(a, b), c).allclose(mul(a, mul(b, c)), tol=1e-13)
            assert mul(a, b).allclose(mul(b, a), tol=1e-13)
            assert mul(a, add(b, c)).allclose(add(mul(a, b), mul(a, c)), tol=1e-13)

    def test_leibniz(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = rng.integers(1, 4)
            a, b = (random_jet(rng, n, 3) for _ in range(2))
            for i in range(n):
                lhs = differentiate(mul(a, b), i)
                rhs = add(mul(differentiate(a, i), b), mul(a, differentiate(b, i)))
                assert lhs.allclose(rhs, tol=1e-12)

    def test_composition_associativity(self):
        # Valid whenever the innermost germ fixes the expansion point,
        # i.e. h(0) = 0: otherwise the terms that compose(f, [g]) truncates
        # reach the low degrees.
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_jet(rng, 1, 3, scale=0.7)
            g = random_jet(rng, 1, 3, scale=0.7)
            h = random_jet(rng, 2, 3, scale=0.7)
            h = h - h.const_term
            lhs = compose(f, [compose(g, [h])])
            rhs = compose(compose(f, [g]), [h])
            assert lhs.allclose(rhs, tol=1e-11)

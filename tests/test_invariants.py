"""Tests for the scalar invariants against independent oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from jetpde import invariants
from jetpde.errors import DegenerateHessian, SingularMetric, WrongDimension
from jetpde.invariants import (
    F_aff3,
    chart_metric_h,
    conformal_discriminant,
    cubic_trace,
    eigenvalues,
    elementary_symmetric,
    hessian_congruence,
    hessian_dets,
    pick_norm,
    pick_numerator,
    shape_matrix,
    sym_outer,
    tau_d,
    tracefree_cubic,
    tracefree_shape,
)
from jetpde.jetspace import GraphJet
from jetpde.symtensor import SymCubic, SymMatrix, _cubic_gather, _matrix_gather


def sphere_embedding(u):
    """Unit-sphere point over the Darboux chart via central projection."""
    u = np.asarray(u, dtype=float)
    v = np.concatenate([[-1.0], u])
    return v / np.linalg.norm(v)


def pullback_gram_fd(u, step=1e-4):
    """Finite-difference Gram matrix of the central-projection embedding."""
    u = np.asarray(u, dtype=float)
    n = u.size
    derivs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        derivs.append((sphere_embedding(u + e) - sphere_embedding(u - e)) / (2 * step))
    return np.array([[d1 @ d2 for d2 in derivs] for d1 in derivs])


class TestChartMetric:
    def test_flat_at_zero(self):
        assert chart_metric_h([0.0, 0.0]).allclose(SymMatrix.identity(2))

    def test_printed_example(self):
        h = chart_metric_h([1.0, 0.0])
        assert h.allclose(SymMatrix.from_full(0.25 * np.array([[1.0, 0.0], [0.0, 2.0]])))

    def test_positive_definite(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = rng.integers(1, 4)
            grad = 2.0 * rng.standard_normal(n)
            rho = 1.0 + grad @ grad
            lams = np.linalg.eigvalsh(chart_metric_h(grad).full())
            assert lams.min() >= 1.0 / rho**2 - 1e-12

    def test_round_metric_pullback(self):
        rng = np.random.default_rng(22)
        for n in (1, 2, 3):
            for _ in range(100):
                grad = 1.5 * rng.standard_normal(n)
                fd = pullback_gram_fd(grad)
                assert np.max(np.abs(chart_metric_h(grad).full() - fd)) <= 1e-6

    def test_closed_form_root(self):
        # R is symmetric and squares to (rho I - grad grad^T) / rho^2, taken
        # exactly here and rounded once, which it returns as h
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = rng.integers(1, 5)
            grad = 0.5 * rng.standard_normal(n)
            g = [Fraction(x) for x in grad.tolist()]
            rho = 1 + sum(x * x for x in g)
            want = np.array([[float((rho * (i == j) - g[i] * g[j]) / rho**2) for j in range(n)] for i in range(n)])
            h, R = invariants._chart_metric_rows(grad)
            assert np.array_equal(R, R.T)
            assert np.array_equal(h, R @ R)
            assert np.max(np.abs(h - want)) <= 2e-15 * np.max(np.abs(want))


class TestShapeMatrix:
    def test_flat_gradient(self):
        S = shape_matrix([0.0, 0.0], SymMatrix.diag([2.0, 3.0]))
        assert np.allclose(S, np.diag([2.0, 3.0]))

    def test_printed_entry(self):
        S = shape_matrix([1.0, 0.0], SymMatrix.diag([1.0, 0.0]))
        assert np.allclose(S, 0.25 * np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.isclose(np.trace(S), 0.25)

    def test_determinant_identity(self):
        # det(shape) = rho^-3 det(hess) for n = 2; resolves the printed
        # constant in favor of the Newton identity.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            grad = rng.standard_normal(2)
            hess = SymMatrix(2, rng.standard_normal(3))
            S = shape_matrix(grad, hess)
            rho = 1.0 + grad @ grad
            t1, t2 = tau_d(S, 1), tau_d(S, 2)
            det_h = np.linalg.det(hess.full())
            assert np.isclose((t1 * t1 - t2) / 2.0, np.linalg.det(S), atol=1e-12, rtol=1e-9)
            assert np.isclose(np.linalg.det(S), det_h / rho**3, atol=1e-12, rtol=1e-9)


class TestTau:
    def test_diagonal(self):
        S = np.diag([2.0, 3.0])
        assert tau_d(S, 1) == 5.0
        assert tau_d(S, 2) == 13.0

    def test_zero(self):
        assert all(tau_d(np.zeros((3, 3)), d) == 0.0 for d in (1, 2, 3))


class TestEigenvalues:
    def test_flat(self):
        lams = eigenvalues([0.0, 0.0], SymMatrix.diag([2.0, 3.0]))
        assert np.allclose(lams, [3.0, 2.0])

    def test_printed_example(self):
        lams = eigenvalues([1.0, 0.0], SymMatrix.diag([1.0, 0.0]))
        assert np.allclose(lams, [0.25, 0.0], atol=1e-14)

    def test_quadratic_formula(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            grad = rng.standard_normal(2)
            hess = SymMatrix(2, rng.standard_normal(3))
            S = shape_matrix(grad, hess)
            tr, det = np.trace(S), np.linalg.det(S)
            disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
            expected = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
            assert np.allclose(eigenvalues(grad, hess), expected, atol=1e-12)

    def test_matches_shape_matrix_spectrum(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = rng.integers(1, 5)
            grad = rng.standard_normal(n)
            hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
            direct = np.sort(np.linalg.eigvals(shape_matrix(grad, hess)).real)[::-1]
            assert np.allclose(eigenvalues(grad, hess), direct, atol=1e-10)

    def test_matches_cholesky_route(self):
        # the spectrum of L^T hess L with h = L L^T (Cholesky)
        rng = np.random.default_rng(26)
        for _ in range(1000):
            n = rng.integers(1, 5)
            grad = 0.5 * rng.standard_normal(n)
            hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
            rho = 1.0 + grad @ grad
            L = np.linalg.cholesky((rho * np.eye(n) - np.outer(grad, grad)) / rho**2)
            want = np.linalg.eigvalsh(L.T @ hess.full() @ L)[::-1]
            assert np.max(np.abs(eigenvalues(grad, hess) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [1e10, 1e40])
    def test_along_an_axis_at_a_large_gradient(self, n, a):
        # grad = (a, 0, ...) and a diagonal hess: the spectrum is
        # hess_11 / rho^2 along grad and hess_ii / rho across it, here where
        # rho - a^2 rounds to 0, so h has no Cholesky factor
        grad, diag = np.eye(n)[0] * a, np.arange(2.0, n + 2.0)
        rho = 1.0 + a * a
        want = np.sort(np.concatenate([diag[:1] / rho**2, diag[1:] / rho]))[::-1]
        np.testing.assert_allclose(eigenvalues(grad, SymMatrix.diag(diag.tolist())), want, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [1e100, 1e200, 1e300])
    def test_finite_and_quiet_at_huge_gradients(self, size):
        rng = np.random.default_rng(27)
        for n in (1, 2, 3, 4):
            grad = size * rng.standard_normal(n)
            for hess in (SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)),
                         SymMatrix(n, size * rng.standard_normal(n * (n + 1) // 2))):
                for value in (eigenvalues(grad, hess), shape_matrix(grad, hess), tracefree_shape(grad, hess),
                              chart_metric_h(grad).full()):
                    assert np.isfinite(value).all()


class TestElementarySymmetric:
    def test_basic(self):
        assert elementary_symmetric([3.0, 2.0], 1) == 5.0
        assert elementary_symmetric([3.0, 2.0], 2) == 6.0

    def test_zero_factor(self):
        assert elementary_symmetric([4.0, 0.0, 1.0], 3) == 0.0

    def test_newton_identities(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = rng.integers(1, 5)
            lam = rng.standard_normal(n)
            S = np.diag(lam)
            p = [tau_d(S, d) for d in range(1, n + 1)]
            e_prev = [elementary_symmetric(lam, i) for i in range(n + 1)]
            for k in range(1, n + 1):
                acc = 0.0
                for i in range(1, k + 1):
                    acc += (-1) ** (i - 1) * e_prev[k - i] * p[i - 1]
                assert np.isclose(k * e_prev[k], acc, atol=1e-12, rtol=1e-8)


class TestTracefreeShape:
    def test_pure_trace(self):
        S0 = tracefree_shape([0.0, 0.0], SymMatrix.diag([3.0, 3.0]))
        assert np.allclose(S0, 0.0)

    def test_example(self):
        S0 = tracefree_shape([0.0, 0.0], SymMatrix.diag([2.0, 0.0]))
        assert np.allclose(S0, np.diag([1.0, -1.0]))

    def test_trace_vanishes(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = rng.integers(1, 5)
            grad = rng.standard_normal(n)
            hess = SymMatrix(n, 3.0 * rng.standard_normal(n * (n + 1) // 2))
            S0 = tracefree_shape(grad, hess)
            assert abs(np.trace(S0)) <= 1e-13 * max(1.0, np.abs(S0).max())


class TestConformalDiscriminant:
    def test_umbilic_apex(self):
        assert conformal_discriminant([0.0, 0.0], SymMatrix.diag([1.0, 1.0])) == 0.0

    def test_substitutions(self):
        # Direct substitution into the quadratic display.
        assert conformal_discriminant([0.0, 0.0], SymMatrix.diag([1.0, 0.0])) == 1.0
        assert conformal_discriminant([0.0, 0.0], SymMatrix.diag([2.0, 0.0])) == 4.0
        assert conformal_discriminant([0.0, 0.0], SymMatrix.diag([1.0, -1.0])) == 4.0

    def test_equals_tracefree_power_sum(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            grad = rng.standard_normal(2)
            hess = SymMatrix(2, rng.standard_normal(3))
            S0 = tracefree_shape(grad, hess)
            rho = 1.0 + grad @ grad
            lhs = conformal_discriminant(grad, hess)
            rhs = 2.0 * rho**4 * np.trace(S0 @ S0)
            assert np.isclose(lhs, rhs, atol=1e-10, rtol=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            conformal_discriminant([0.0], SymMatrix.identity(1))


def brute_pick(ginv, C):
    total = 0.0
    n = ginv.shape[0]
    for idx in itertools.product(range(n), repeat=6):
        i, j, k, l, m, o = idx
        total += ginv[i, l] * ginv[j, m] * ginv[k, o] * C[i, j, k] * C[l, m, o]
    return total


class TestCubicQuotient:
    def test_trace_of_zero(self):
        assert np.allclose(cubic_trace(SymMatrix.identity(2), SymCubic(2)), 0.0)

    def test_trace_single_entry(self):
        C = SymCubic.from_entries(2, {(0, 0, 0): 1.0})
        assert np.allclose(cubic_trace(SymMatrix.identity(2), C), [1.0, 0.0])

    def test_trace_of_sym_outer(self):
        # tr_g(w . g) = (n+2) w, verified by brute-force summation.
        rng = np.random.default_rng(29)
        for n in (2, 3):
            g = SymMatrix.from_full(np.eye(n) + 0.2 * rng.standard_normal((n, n)))
            w = rng.standard_normal(n)
            C = sym_outer(w, g)
            got = cubic_trace(g, C)
            ginv = np.linalg.inv(g.full())
            brute = np.einsum("ij,ijk->k", ginv, C.full())
            assert np.allclose(got, brute, atol=1e-12)
            assert np.allclose(got, (n + 2.0) * w, atol=1e-10)
        C = sym_outer([1.0, 0.0], SymMatrix.identity(2))
        assert np.allclose(cubic_trace(SymMatrix.identity(2), C), [4.0, 0.0])

    def test_tracefree_projection_example(self):
        g = SymMatrix.identity(2)
        C = SymCubic.from_entries(2, {(0, 0, 0): 1.0})
        C0 = tracefree_cubic(g, C)
        assert np.isclose(C0[0, 0, 0], 0.25)
        assert np.isclose(C0[0, 1, 1], -0.25)
        assert np.isclose(C0[0, 0, 1], 0.0)
        assert np.isclose(C0[1, 1, 1], 0.0)
        assert np.allclose(cubic_trace(g, C0), 0.0, atol=1e-12)

    def test_kernel_and_idempotence(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            g = SymMatrix.from_full(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            w = rng.standard_normal(n)
            assert np.allclose(tracefree_cubic(g, sym_outer(w, g)).data, 0.0, atol=1e-12)
            C = SymCubic(n, rng.standard_normal(len(SymCubic(n).data)))
            C0 = tracefree_cubic(g, C)
            assert tracefree_cubic(g, C0).allclose(C0, tol=1e-12)
            already = tracefree_cubic(g, C0)
            assert already.allclose(C0, tol=1e-12)

    def test_singular_metric(self):
        with pytest.raises(SingularMetric):
            cubic_trace(SymMatrix.diag([1.0, 0.0]), SymCubic(2))


class TestPickNorm:
    def test_zero(self):
        assert pick_norm(SymMatrix.identity(2), SymCubic(2)) == 0.0

    def test_brute_force(self):
        rng = np.random.default_rng(31)
        g = SymMatrix.identity(2)
        C = tracefree_cubic(g, SymCubic.from_entries(2, {(0, 0, 0): 1.0}))
        expected = brute_pick(np.linalg.inv(g.full()), C.full())
        assert np.isclose(pick_norm(g, C), expected, atol=1e-14)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            gm = SymMatrix.from_full(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            C = SymCubic(n, rng.standard_normal(len(SymCubic(n).data)))
            assert np.isclose(
                pick_norm(gm, C), brute_pick(np.linalg.inv(gm.full()), C.full()),
                atol=1e-10, rtol=1e-10,
            )

    def test_definite_metric_norm_property(self):
        rng = np.random.default_rng(32)
        g = SymMatrix.identity(2)
        for _ in range(50):
            C = SymCubic(2, rng.standard_normal(4))
            assert pick_norm(g, C) > 0.0 or np.allclose(C.data, 0.0)

    def test_congruence_invariance(self):
        # Full g-contraction: invariant under any covariant change of basis.
        # Defects are measured against the contraction's magnitude scale.
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            g = SymMatrix.from_full(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            C = SymCubic(n, rng.standard_normal(len(SymCubic(n).data)))
            A = np.eye(n) + 0.4 * rng.standard_normal((n, n))
            gA = SymMatrix.from_full(A.T @ g.full() @ A)
            CA = SymCubic.from_full(np.einsum("ai,bj,ck,abc->ijk", A, A, A, C.full()))
            scale = sum(
                np.linalg.norm(np.linalg.inv(m.full()), 2) ** 3 * c.norm() ** 2
                for m, c in ((g, C), (gA, CA))
            )
            assert abs(pick_norm(g, C) - pick_norm(gA, CA)) <= 1e-9 * scale


class TestFAff3:
    def jet(self, hess, cubic):
        return GraphJet("affine", 2, 3, [0, 0], 0.0, [0, 0], hess, cubic)

    def test_vanishes_without_third_order(self):
        rng = np.random.default_rng(34)
        j = self.jet(SymMatrix(2, rng.standard_normal(3)), SymCubic(2))
        assert F_aff3(j) == 0.0

    def test_single_term(self):
        j = self.jet(SymMatrix.diag([1.0, 1.0]), SymCubic.from_entries(2, {(0, 0, 0): 1.0}))
        assert F_aff3(j) == 1.0

    def test_wrong_dimension(self):
        j = GraphJet("affine", 2, 2, [0, 0], 0.0, [0, 0], SymMatrix.identity(2))
        with pytest.raises(WrongDimension):
            F_aff3(j)

    def test_equals_det_cubed_times_pick(self):
        # F = 4 det(hess)^3 pick_norm(hess, tracefree_cubic(hess, cubic)),
        # an exact polynomial identity in the seven jet coordinates.
        rng = np.random.default_rng(35)
        for _ in range(500):
            hess = SymMatrix(2, rng.standard_normal(3))
            det = np.linalg.det(hess.full())
            if abs(det) < 0.05:
                continue
            cubic = SymCubic(2, rng.standard_normal(4))
            j = self.jet(hess, cubic)
            pick = pick_norm(hess, tracefree_cubic(hess, cubic))
            lhs = F_aff3(j)
            rhs = 4.0 * det**3 * pick
            assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-10)


def random_hess_cubic(rng, n, min_det=0.0):
    """A Hessian with |det| >= min_det |hess|_2^n and a cubic, entries N(0, 1)."""
    while True:
        hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
        lams = np.linalg.eigvalsh(hess.full())
        if abs(np.prod(lams)) >= min_det * np.max(np.abs(lams)) ** n:
            return hess, SymCubic(n, rng.standard_normal(len(SymCubic(n).data)))


class TestPickNumerator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_det_cubed_times_pick(self, n):
        rng = np.random.default_rng(36 + n)
        for _ in range(100):
            hess, cubic = random_hess_cubic(rng, n, min_det=0.05)
            det = np.linalg.det(hess.full())
            want = det**3 * pick_norm(hess, tracefree_cubic(hess, cubic))
            assert np.isclose(pick_numerator(hess, cubic), want, rtol=1e-9, atol=1e-12)

    def test_four_times_is_F_aff3(self):
        # the hand-expanded 13-term polynomial is an independent oracle at n = 2,
        # degenerate Hessians included
        rng = np.random.default_rng(40)
        for k in range(200):
            hess, cubic = random_hess_cubic(rng, 2)
            if k % 10 == 0:
                a, c = hess[0, 0], hess[1, 1]
                hess = SymMatrix(2, [a, np.sqrt(abs(a * c)), np.sign(a) * abs(c)])
            j = GraphJet("affine", 2, 3, [0, 0], 0.0, [0, 0], hess, cubic)
            f = F_aff3(j)
            assert np.isclose(4.0 * pick_numerator(hess, cubic), f, rtol=1e-12,
                              atol=1e-12 * (1.0 + hess.norm()) ** 3 * (1.0 + cubic.norm()) ** 2)

    def test_relation_family_is_kernel(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            hess, _ = random_hess_cubic(rng, n)
            relation = sym_outer(rng.standard_normal(n), hess)
            scale = (1.0 + hess.norm()) ** (3 * (n - 1)) * (1.0 + relation.norm()) ** 2
            assert abs(pick_numerator(hess, relation)) <= 1e-12 * scale


def einsum_numerators(A, C, sign=-1.0):
    """The one-step sums the staged contraction replaced: Q by the 5-operand
    einsum (cubics first, so that a huge adjugate meets the small cubics
    before it meets itself).  With ``sign`` +1 on |A| and |C| it is the sum
    of the terms' magnitudes, which bounds either route's rounding."""
    n = A.shape[-1]
    s = np.einsum("xij,xijk->xk", A, C)
    full = np.einsum("xijk,xlmn,xil,xjm,xkn->x", C, C, A, A, A)
    return full + sign * 3.0 / (n + 2.0) * np.einsum("xi,xij,xj->x", s, A, s)


def contraction_stacks(rng, n, kind, m=60):
    """Full Hessians (m, n, n) and cubics (m, n, n, n), gathered from packed
    storage as the residual gathers them.  ``degenerate``: rank n - 1, so
    det = 0; ``adjugate``: H scaled so that adj H moves by 1e+-100, and C
    by 1e-+100; ``cubic``: C scaled by 1e+-100."""
    H = rng.standard_normal((m, n * (n + 1) // 2))[:, _matrix_gather(n)]
    C = rng.standard_normal((m, len(SymCubic(n).data)))[:, _cubic_gather(n)]
    if kind == "degenerate":
        W = rng.standard_normal((m, n, n - 1))
        H = np.sign(rng.standard_normal((m, 1, 1))) * (W @ W.swapaxes(1, 2))
    e = np.where(np.arange(m) % 2 == 0, 100.0, -100.0)
    if kind == "adjugate":
        H, C = H * 10.0 ** (e / max(n - 1, 1))[:, None, None], C * 10.0 ** -e[:, None, None, None]
    if kind == "cubic":
        C = C * 10.0 ** e[:, None, None, None]
    return H, C


class TestStagedContraction:
    # the staged matmuls against the one-step einsum, relative to the sum of
    # the terms' magnitudes: 6.9e-15 at most (n = 1-8, 60 rows of each
    # kind), where the bound is 1e-12
    @pytest.mark.parametrize("kind", ["random", "degenerate", "adjugate", "cubic"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_einsum(self, n, kind):
        rng = np.random.default_rng((n, len(kind), 53))
        H, C = contraction_stacks(rng, n, kind)
        A = invariants.adjugates(*np.linalg.eigh(H))
        got, want = invariants.pick_numerators(A, C), einsum_numerators(A, C)
        bound = einsum_numerators(np.abs(A), np.abs(C), sign=1.0)
        assert np.isfinite(bound).all() and np.isfinite(got).all()
        assert (np.abs(got - want) <= 1e-12 * bound).all()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_empty_stack(self, n):
        A = invariants.adjugates(np.zeros((0, n)), np.zeros((0, n, n)))
        assert A.shape == (0, n, n)
        assert invariants.pick_numerators(A, np.zeros((0, n, n, n))).shape == (0,)


class TestHessianHelpers:
    def test_det(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 4):
            hess, _ = random_hess_cubic(rng, n, min_det=0.01)
            det, errors = hessian_dets(np.linalg.eigh(hess.full()[None])[0])
            assert not errors and np.isclose(det[0], np.linalg.det(hess.full()), rtol=1e-12)

    def test_degenerate(self):
        for diag in ([1.0, 0.0], [1.0, 1e-9, -2.0]):
            _, errors = hessian_dets(np.linalg.eigh(SymMatrix.diag(diag).full()[None])[0])
            assert list(errors) == [0] and type(errors[0]) is DegenerateHessian
        with pytest.raises(DegenerateHessian):
            hessian_congruence(SymMatrix(2))

    def test_congruence(self):
        rng = np.random.default_rng(44)
        for n in (2, 3, 4):
            hess, _ = random_hess_cubic(rng, n, min_det=0.01)
            B, sig = hessian_congruence(hess)
            eps = sig.metric().full()
            assert np.linalg.det(B) > 0.0
            assert np.allclose(2.0 * B.T @ eps @ B, hess.full(), atol=1e-12)
            assert sig.d == int(np.sum(np.linalg.eigvalsh(hess.full()) > 0.0))

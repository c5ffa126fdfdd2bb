"""Tests for point transformations, prolongation and normalization."""

import math

import numpy as np
import pytest

from jetpde.errors import ChartDomain, DegenerateHessian, NotGraph, SchemaMismatch
from jetpde.groups import (
    GeometryTag,
    GroupElement,
    act_point,
    affine_element,
    compose_elements,
    conformal_element,
    element_from_json,
    element_to_json,
    euclidean_element,
    expm,
    identity_element,
    inverse_element,
    normalize_to_origin,
    prolong,
    projective_element,
    random_element,
    random_elements,
)
from jetpde.invariants import sym_outer
from jetpde.jetspace import GraphJet, jet_extend, project
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import MAX_VARS, TruncatedJet

TAGS = [GeometryTag(name, 2) for name in ("euclidean", "affine", "projective", "conformal")]


def random_graph_jet(rng, tag, order=3, scale=0.5):
    n = tag.n
    hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)) if order >= 2 else None
    cubic = (
        SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order >= 3 else None
    )
    return GraphJet(
        tag.chart, n, order,
        scale * rng.standard_normal(n),
        scale * rng.standard_normal(),
        scale * rng.standard_normal(n),
        hess, cubic,
    )


def jets_close(a, b, tol):
    """Per-coefficient agreement |x - y| <= tol (1 + |x| + |y|)."""

    def close(x, y):
        x, y = np.atleast_1d(x), np.atleast_1d(y)
        return bool(np.all(np.abs(x - y) <= tol * (1.0 + np.abs(x) + np.abs(y))))

    if not (close(a.base, b.base) and close(a.u, b.u) and close(a.grad, b.grad)):
        return False
    if a.order >= 2 and not close(a.hess.data, b.hess.data):
        return False
    if a.order >= 3 and not close(a.cubic.data, b.cubic.data):
        return False
    return True


class TestActPoint:
    def test_euclidean_translation(self):
        g = euclidean_element(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(act_point(g, [0.5, -1.0, 2.0]), [1.5, 1.0, 5.0])

    def test_projective_identity(self):
        g = projective_element(np.eye(4))
        p = np.array([0.3, -0.2, 0.7])
        assert np.allclose(act_point(g, p), p)

    def test_conformal_identity(self):
        g = conformal_element(np.eye(5))
        p = np.array([0.3, -0.2, 0.7])
        assert np.allclose(act_point(g, p), p, atol=1e-14)

    def test_projective_chart_domain(self):
        # last homogeneous coordinate annihilated at the chosen point
        P = np.eye(4)
        P[2] = [0.0, 0.0, 0.0, -1.0]
        P[3] = [0.0, 0.0, 1.0, 0.0]
        g = projective_element(P)
        with pytest.raises(ChartDomain):
            act_point(g, [0.5, 0.5, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g,p", [
        (euclidean_element(np.eye(2), [0.0, 0.0]), [np.nan, 0.0]),
        (projective_element(np.eye(3)), [np.inf, 0.0]),
    ], ids=["nan", "projective-inf"])
    def test_nonfinite_point(self, g, p):
        with pytest.raises(SchemaMismatch, match="finite"):
            act_point(g, p)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g,p", [
        (conformal_element(np.eye(4)), [1e160, 0.0]),
        (affine_element(2.0 * np.eye(2), [0.0, 0.0]), [1e308, 0.0]),
    ], ids=["conformal-1e160", "affine-1e308"])
    def test_overflowing_image(self, g, p):
        # the overflow prolong_batch skips as chart_domain, without a warning
        with pytest.raises(ChartDomain, match="overflows"):
            act_point(g, p)


    def test_chart_rule_matches_prolong(self):
        # |den| = 0.036 is below 1e-3 of the image's 2-norm (52.3) and above
        # 1e-3 of its largest entry (30.2), the scale prolong tests against
        P = np.array([[1, 0, 0, 10], [0, 1, 0, 10], [0, 0, 1, 10], [0, 0, 0, 0.012]]) / 0.012**0.25
        g = projective_element(P)
        j = GraphJet(g.geometry.chart, 2, 2, [0.0, 0.0], 0.0, [0.0, 0.0], SymMatrix(2))
        moved = prolong(g, j)
        assert np.allclose(moved.point(), 833.3, rtol=1e-4)
        np.testing.assert_allclose(act_point(g, j.point()), moved.point(), rtol=0.0, atol=1e-12)

class TestRandomElement:
    @pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
    def test_identity_at_scale_zero(self, tag):
        g = random_element(tag, 123, 0.0)
        size = g.mat.shape[0]
        assert np.allclose(g.mat, np.eye(size))
        if g.shift is not None:
            assert np.allclose(g.shift, 0.0)

    @pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
    def test_deterministic(self, tag):
        g1 = random_element(tag, 42, 0.5)
        g2 = random_element(tag, 42, 0.5)
        assert np.array_equal(g1.mat, g2.mat)
        if g1.shift is not None:
            assert np.array_equal(g1.shift, g2.shift)

    def test_euclidean_orthogonality(self):
        for seed in range(20):
            g = random_element(GeometryTag("euclidean", 2), seed, 0.8)
            A = g.mat
            assert np.linalg.norm(A.T @ A - np.eye(3)) <= 1e-10
            assert abs(np.linalg.det(A) - 1.0) <= 1e-10

    def test_conformal_form_preserved(self):
        J = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        for seed in range(20):
            g = random_element(GeometryTag("conformal", 2), seed, 0.5)
            C = g.mat
            assert np.linalg.norm(C.T @ J @ C - J) <= 1e-8

    @pytest.mark.parametrize("name", ["conformal", "projective"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_large_scales_pass_own_validator(self, name, n):
        # random_element used to build conformal/projective matrices that
        # missed the absolute form/determinant tolerances at scale >= 3
        for scale in (3.0, 4.0):
            for seed in range(200):
                random_element(GeometryTag(name, n), seed, scale)

    @pytest.mark.parametrize("n", [2, 3])
    def test_conformal_off_constraint_rejected(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.5, 3.0, 4.0):
            for seed in range(50):
                C = random_element(GeometryTag("conformal", n), seed, scale).mat
                E = rng.standard_normal(C.shape)
                with pytest.raises(SchemaMismatch):
                    GroupElement("conformal", n, C + 1e-6 * np.linalg.norm(C) * E / np.linalg.norm(E))

    @pytest.mark.parametrize("n", [2, 3])
    def test_projective_off_constraint_rejected(self, n):
        # pushed a relative 1e-6 along the gradient of det, i.e. off the
        # unimodular set rather than along it
        for scale in (0.5, 1.0, 2.0):
            for seed in range(50):
                P = random_element(GeometryTag("projective", n), seed, scale).mat
                grad = np.linalg.inv(P).T
                for sign in (1.0, -1.0):
                    with pytest.raises(SchemaMismatch):
                        GroupElement("projective", n,
                                     P + sign * 1e-6 * np.linalg.norm(P) * grad / np.linalg.norm(grad))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(SchemaMismatch):
            GroupElement("affine", 1, [[1.0, np.nan], [0.0, 1.0]], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, bad):
        with pytest.raises(SchemaMismatch, match="must be finite"):
            GroupElement("affine", 2, np.eye(3), [bad, 0.0, 0.0])
        with pytest.raises(SchemaMismatch, match="must be finite"):
            element_from_json({"type": "euclidean", "n": 1, "A": [[1, 0], [0, 1]], "b": [bad, 0]})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_conformal_overflowing_form_rejected_without_warning(self, scale):
        # C^T J C overflows to inf, as does the bound; inf <= inf is no pass
        with pytest.raises(SchemaMismatch, match="ambient form"):
            GroupElement("conformal", 2, scale * np.eye(5))

    @pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
    def test_no_generators_give_empty_elements(self, tag):
        g = random_elements(tag, [], 0.5)
        size = tag.n + {"euclidean": 1, "affine": 1, "projective": 2, "conformal": 3}[tag.name]
        assert g.mat.shape == (0, size, size)
        assert (None if g.shift is None else g.shift.shape) == (
            (0, size) if tag.name in ("euclidean", "affine") else None)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, scale):
        for tag in TAGS:
            with pytest.raises(SchemaMismatch, match="scale must be finite"):
                random_element(tag, 0, scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e300, 1e308])
    def test_overflowing_exponential_rejected_without_warning(self, scale):
        for tag in TAGS:
            with pytest.raises(SchemaMismatch, match="must be finite"):
                random_element(tag, 0, scale)


def lie_algebra_elements(name: str, n: int, count: int, scale: float, rng) -> np.ndarray:
    """``count`` generators of the group's Lie algebra, as the element draws make them."""
    k = n + {"euclidean": 1, "affine": 1, "projective": 2, "conformal": 3}[name]
    M = rng.standard_normal((count, k, k))
    if name == "euclidean":
        return 0.5 * (M - M.swapaxes(1, 2)) * scale
    if name == "affine":
        return scale * M
    if name == "projective":
        M = scale * M
        return M - (np.trace(M, axis1=1, axis2=2) / k)[:, None, None] * np.eye(k)
    J = np.diag([-1.0] + [1.0] * (k - 1))
    return J @ (0.5 * (M - M.swapaxes(1, 2))) * scale


def relative_errors(R: np.ndarray, exact: np.ndarray) -> np.ndarray:
    return np.linalg.norm(R - exact, axis=(1, 2)) / np.linalg.norm(exact, axis=(1, 2))


EPS = np.finfo(float).eps


class TestExpm:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["euclidean", "affine", "projective", "conformal"])
    def test_matches_scipy(self, name, n):
        import scipy.linalg

        A = lie_algebra_elements(name, n, 200, 0.5, np.random.default_rng(n))
        assert relative_errors(expm(A), scipy.linalg.expm(A)).max() <= 1e-13

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["euclidean", "affine", "projective", "conformal"])
    def test_matches_the_exact_exponential(self, name, n, scale):
        # At scale 3 most draws take degree 13, where scipy's own result
        # strays up to about 1.5e-12 from the exact one: the reference is
        # the exponential to 30 digits.
        import mpmath

        A = lie_algebra_elements(name, n, 3, scale, np.random.default_rng(7))
        with mpmath.workdps(30):
            exact = np.array([np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
                              for a in A])
        assert relative_errors(expm(A), exact).max() <= 1e-13

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_zero_gives_identity_exactly(self, k):
        assert np.array_equal(expm(np.zeros((2, k, k))), np.broadcast_to(np.eye(k), (2, k, k)))

    @pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, 2.5, 7.0, 40.0])
    def test_rotation_generator_gives_the_rotation(self, t):
        R = expm(np.array([[[0.0, -t], [t, 0.0]]]))[0]
        exact = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert np.abs(R - exact).max() <= 4 * EPS

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_nilpotent_gives_its_finite_series(self, k):
        N = 3.0 * np.triu(np.random.default_rng(k).standard_normal((k, k)), 1)
        series, term = np.eye(k), np.eye(k)
        for j in range(1, k):
            term = term @ N / j
            series = series + term
        assert np.abs(expm(N[None])[0] - series).max() <= 4 * EPS * np.abs(series).max()

    @pytest.mark.parametrize("name", ["euclidean", "projective"])
    def test_stack_rows_equal_stacks_of_one(self, name):
        # scales from 0.05 to 5 reach every degree and several scalings
        rng = np.random.default_rng(300)
        A = lie_algebra_elements(name, 3, 300, 1.0, rng) * 10 ** rng.uniform(-1.3, 0.7, (300, 1, 1))
        R = expm(A)
        assert all(np.array_equal(R[i], expm(A[i : i + 1])[0]) for i in range(300))

    @pytest.mark.filterwarnings("error")
    def test_huge_rotation_generator_stays_near_orthogonal(self):
        # |A|^27 overflows at this scale, so ell is read from the scaled |A|;
        # 39 squarings leave about 2^39 eps of the rounding of one step
        M = np.random.default_rng(3).standard_normal((2, 4, 4))
        R = expm(0.5 * (M - M.swapaxes(1, 2)) * 1e12)
        assert np.abs(R.swapaxes(1, 2) @ R - np.eye(4)).max() <= 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["euclidean", "affine", "projective", "conformal"])
    def test_non_finite_generators_give_non_finite_elements_quietly(self, name):
        # any RuntimeWarning fails, "invalid value encountered in cast" included
        A = lie_algebra_elements(name, 2, 7, 0.5, np.random.default_rng(5))
        A[1, 0, 1], A[2, 1, 0], A[3, 0, 0] = np.inf, -np.inf, np.nan
        A[4] *= 1e200  # powers overflow to nan, through inf - inf
        A[5] = np.abs(A[5]) * 1e200  # powers overflow to inf
        R = expm(A)
        assert np.isfinite(R[[0, 6]]).all()
        assert not np.isfinite(R[1:6]).all(axis=(1, 2)).any()


class TestProlong:
    def test_identity(self):
        rng = np.random.default_rng(40)
        for tag in TAGS:
            j = random_graph_jet(rng, tag)
            out = prolong(identity_element(tag), j)
            assert jets_close(out, j, 1e-12)

    def test_translation_shifts_base_only(self):
        rng = np.random.default_rng(41)
        tag = GeometryTag("euclidean", 2)
        j = random_graph_jet(rng, tag)
        b = np.array([0.3, -1.0, 2.0])
        g = euclidean_element(np.eye(3), b)
        out = prolong(g, j)
        assert np.allclose(out.base, j.base + b[1:], atol=1e-12)
        assert np.isclose(out.u, j.u + b[0], atol=1e-12)
        assert np.allclose(out.grad, j.grad, atol=1e-13)
        assert out.hess.allclose(j.hess, tol=1e-13)
        assert out.cubic.allclose(j.cubic, tol=1e-13)

    def test_plane_rotation_slope(self):
        # rotating the line u = x tan(phi) by theta gives slope tan(phi+theta)
        phi, theta = 0.3, 0.4
        germ = TruncatedJet.from_terms({(1,): math.tan(phi)}, 1, 2)
        j = jet_extend(germ, [0.0], 2)
        R = np.array([[math.cos(theta), math.sin(theta)],
                      [-math.sin(theta), math.cos(theta)]])
        g = euclidean_element(R, [0.0, 0.0])
        out = prolong(g, j)
        assert np.isclose(out.grad[0], math.tan(phi + theta), atol=1e-12)

    def test_vertical_tangent_not_graph(self):
        germ = TruncatedJet.constant(0.0, 1, 2)
        j = jet_extend(germ, [0.0], 2)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by pi/2
        g = euclidean_element(R, [0.0, 0.0])
        with pytest.raises(NotGraph):
            prolong(g, j)

    def test_base_compatibility(self):
        rng = np.random.default_rng(42)
        for tag in TAGS:
            for seed in range(10):
                g = random_element(tag, (42, seed), 0.4)
                j = random_graph_jet(rng, tag)
                try:
                    out = prolong(g, j)
                except (NotGraph, ChartDomain):
                    continue
                image = act_point(g, j.point())
                assert abs(out.u - image[0]) <= 1e-12 * (1 + abs(image[0]))
                assert np.allclose(out.base, image[1:], atol=1e-12, rtol=1e-10)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(43)
        for tag in TAGS:
            for seed in range(10):
                g = random_element(tag, (43, seed), 0.3)
                j = random_graph_jet(rng, tag)
                try:
                    there = prolong(g, j)
                    back = prolong(inverse_element(g), there)
                except (NotGraph, ChartDomain):
                    continue
                assert jets_close(back, j, 1e-9)

    def test_functoriality(self):
        rng = np.random.default_rng(44)
        for tag in TAGS:
            good = 0
            for seed in range(15):
                g1 = random_element(tag, (44, seed, 1), 0.3)
                g2 = random_element(tag, (44, seed, 2), 0.3)
                j = random_graph_jet(rng, tag)
                try:
                    combined = prolong(compose_elements(g1, g2), j)
                    stepwise = prolong(g1, prolong(g2, j))
                except (NotGraph, ChartDomain):
                    continue
                assert jets_close(combined, stepwise, 1e-9)
                good += 1
            assert good >= 5

    def test_commutes_with_project(self):
        rng = np.random.default_rng(45)
        for tag in TAGS:
            for seed in range(8):
                g = random_element(tag, (45, seed), 0.3)
                j = random_graph_jet(rng, tag, order=3)
                for m in (1, 2):
                    try:
                        lhs = project(prolong(g, j), m)
                        rhs = prolong(g, project(j, m))
                    except (NotGraph, ChartDomain):
                        continue
                    assert jets_close(lhs, rhs, 1e-10)

    def test_shear_moves_cubic_by_relation_vector(self):
        # image of {u = Q(x)} under the shear x -> x + u w: the third-order
        # term changes by the symmetric tensor of -2 Q(t) <t, w>.
        rng = np.random.default_rng(46)
        for _ in range(10):
            G = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            G = 0.5 * (G + G.T)
            gsym = SymMatrix.from_full(G)
            w = rng.standard_normal(2)
            quadric = TruncatedJet.from_terms(
                {(2, 0): G[0, 0], (1, 1): 2 * G[0, 1], (0, 2): G[1, 1]}, 2, 3
            )
            j = jet_extend(quadric, [0.0, 0.0], 3, chart="affine")
            A = np.eye(3)
            A[1:, 0] = w
            out = prolong(affine_element(A, np.zeros(3)), j)
            assert np.allclose(out.base, 0.0, atol=1e-14)
            assert np.allclose(out.grad, 0.0, atol=1e-14)
            assert out.hess.allclose(j.hess, tol=1e-12)
            expected = -4.0 * sym_outer(G @ w, gsym)
            assert out.cubic.allclose(expected, tol=1e-10)

    def test_fiber_covariance_in_stabilizer(self):
        # g stabilizing the 1-jet acts affinely on the J^2 fiber: shifting
        # the Hessian shifts the image Hessian, leaving lower data put.
        from jetpde.jetspace import FiberVector, shift_fiber

        rng = np.random.default_rng(47)
        theta = 0.7
        R = np.eye(3)
        R[1:, 1:] = [[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]]
        g = euclidean_element(R, np.zeros(3))
        j = GraphJet("euclidean", 2, 2, [0.0, 0.0], 0.0, [0.0, 0.0],
                     SymMatrix(2, rng.standard_normal(3)))
        v = SymMatrix(2, rng.standard_normal(3))
        a = prolong(g, shift_fiber(j, FiberVector(2, v)))
        b = prolong(g, j)
        assert np.allclose(a.base, b.base, atol=1e-12)
        assert np.allclose(a.grad, b.grad, atol=1e-9)
        assert np.isclose(a.u, b.u, atol=1e-12)
        diff = a.hess - b.hess
        expected = SymMatrix.from_full(R[1:, 1:] @ v.full() @ R[1:, 1:].T)
        assert diff.allclose(expected, tol=1e-9)


class TestProlongAgainstPointwiseFit:
    """Independent oracle: sample the transformed surface through act_point
    and fit its graph by least squares; no jet algebra involved."""

    @staticmethod
    def _fit_once(g, germ, base, h):
        import itertools

        n = len(base)
        rows, rhs = [], []
        center = act_point(g, np.concatenate([[germ(np.zeros(n))], base]))
        for off in itertools.product((-2, -1, 0, 1, 2), repeat=n):
            delta = h * np.array(off, float)
            p = np.concatenate([[germ(delta)], base + delta])
            q = act_point(g, p)
            x = q[1:] - center[1:]
            row = [1.0] + list(x)
            for i in range(n):
                for k in range(i + 1):
                    row.append(x[i] * x[k])
            rows.append(row)
            rhs.append(q[0])
        coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        u = coef[0]
        grad = coef[1 : n + 1]
        hess = np.zeros((n, n))
        k = n + 1
        for i in range(n):
            for kk in range(i + 1):
                hess[i, kk] = hess[kk, i] = coef[k] * (2.0 if i == kk else 1.0)
                k += 1
        return u, grad, hess

    @classmethod
    def fd_fit(cls, g, germ, base, h=4e-3):
        # quadratic fits carry an O(h^2) bias from the curved image stencil;
        # Richardson over h and h/2 removes it
        u1, g1, h1 = cls._fit_once(g, germ, base, h)
        u2, g2, h2 = cls._fit_once(g, germ, base, h / 2)
        rich = lambda a, b: (4.0 * b - a) / 3.0
        return rich(u1, u2), rich(g1, g2), rich(h1, h2)

    @pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
    def test_second_jets_match_fit(self, tag):
        rng = np.random.default_rng(71)
        for seed in range(6):
            g = random_element(tag, (71, seed), 0.3)
            base = 0.3 * rng.standard_normal(2)
            germ = TruncatedJet.from_terms(
                {
                    (0, 0): 0.3 * rng.standard_normal(),
                    (1, 0): 0.4 * rng.standard_normal(),
                    (0, 1): 0.4 * rng.standard_normal(),
                    (2, 0): 0.5 * rng.standard_normal(),
                    (1, 1): 0.5 * rng.standard_normal(),
                    (0, 2): 0.5 * rng.standard_normal(),
                    (3, 0): 0.3 * rng.standard_normal(),
                    (0, 3): 0.3 * rng.standard_normal(),
                },
                2, 3,
            )
            j = jet_extend(germ, base, 2, chart=tag.chart)
            try:
                moved = prolong(g, j)
            except (NotGraph, ChartDomain):
                continue
            u_fit, grad_fit, hess_fit = self.fd_fit(g, germ, base)
            assert abs(moved.u - u_fit) <= 1e-8 * (1 + abs(u_fit))
            assert np.allclose(moved.grad, grad_fit, atol=1e-8, rtol=1e-7)
            assert np.allclose(moved.hess.full(), hess_fit, atol=1e-8, rtol=1e-7)


class TestNormalize:
    def test_euclidean_identity_case(self):
        j = GraphJet("euclidean", 2, 2, [0.0, 0.0], 0.0, [0.0, 0.0],
                     SymMatrix.diag([1.0, 2.0]))
        res = normalize_to_origin(GeometryTag("euclidean", 2), j)
        assert jets_close(res.jet, j, 1e-12)

    def test_euclidean_translation_case(self):
        j = GraphJet("euclidean", 3, 2, [2.0, 3.0, 1.0], 1.0, [0.0, 0.0, 0.0],
                     SymMatrix.identity(3))
        res = normalize_to_origin(GeometryTag("euclidean", 3), j)
        assert np.allclose(res.element.mat, np.eye(4), atol=1e-12)
        assert np.allclose(res.element.shift, [-1.0, -2.0, -3.0, -1.0])
        assert np.allclose(res.jet.base, 0.0, atol=1e-12)

    def test_euclidean_generic(self):
        rng = np.random.default_rng(48)
        tag = GeometryTag("euclidean", 2)
        for _ in range(25):
            j = random_graph_jet(rng, tag, order=2)
            res = normalize_to_origin(tag, j)
            assert np.allclose(res.jet.base, 0.0, atol=1e-10)
            assert abs(res.jet.u) <= 1e-10
            assert np.allclose(res.jet.grad, 0.0, atol=1e-10)
            rerun = prolong(res.element, j)
            assert jets_close(rerun, res.jet, 1e-9)

    def test_affine_already_normalized(self):
        j = GraphJet("affine", 2, 3, [0.0, 0.0], 0.0, [0.0, 0.0],
                     SymMatrix.diag([2.0, 2.0]), SymCubic(2))
        res = normalize_to_origin(GeometryTag("affine", 2), j)
        assert res.signature.d == 2
        assert np.allclose(res.element.mat, np.eye(3), atol=1e-12)
        assert np.allclose(res.element.shift, 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["affine", "projective"])
    def test_third_order_generic(self, name):
        rng = np.random.default_rng(49)
        tag = GeometryTag(name, 2)
        done = 0
        while done < 25:
            j = random_graph_jet(rng, tag, order=3)
            H = j.hess.full()
            if abs(np.linalg.det(H)) < 0.05 * np.linalg.norm(H, 2) ** 2:
                continue
            res = normalize_to_origin(tag, j)
            d = res.signature.d
            assert np.allclose(res.jet.base, 0.0, atol=1e-9)
            assert abs(res.jet.u) <= 1e-9
            assert np.allclose(res.jet.grad, 0.0, atol=1e-9)
            target = SymMatrix.diag([2.0] * d + [-2.0] * (2 - d))
            assert res.jet.hess.allclose(target, tol=1e-8)
            rerun = prolong(res.element, j)
            assert jets_close(rerun, res.jet, 1e-9)
            done += 1

    def test_degenerate_hessian(self):
        j = GraphJet("affine", 2, 3, [0.0, 0.0], 0.0, [0.0, 0.0],
                     SymMatrix.diag([1.0, 0.0]), SymCubic(2))
        with pytest.raises(DegenerateHessian):
            normalize_to_origin(GeometryTag("affine", 2), j)

    @pytest.mark.parametrize("name", ["euclidean", "affine", "projective"])
    def test_overflowing_element_is_a_chart_domain(self, name):
        # a gradient whose unit normal (euclidean) or shear (affine,
        # projective) overflows: a domain error, with no warning and no
        # jet that keeps its gradient
        tag = GeometryTag(name, 2)
        order = 2 if name == "euclidean" else 3
        j = GraphJet(tag.chart, 2, order, [0.1, 2.0], 0.3, [-0.65, 1e308],
                     SymMatrix(2, [-1e308 if order == 2 else -1.0, 0.2, -0.5]),
                     SymCubic(2, [1.0, 2.0, 3.0, 4.0]) if order == 3 else None)
        with pytest.raises(ChartDomain):
            normalize_to_origin(tag, j)

    @pytest.mark.parametrize("hess00", [-1.0, -1e100, -1e300])
    def test_huge_hessian_hides_no_gradient(self, hess00):
        # the unit normal of a 1e200 gradient underflows to the identity
        # rotation, which leaves the gradient in place: the check of the
        # gradient is relative to the gradient, not to the Hessian
        j = GraphJet("euclidean", 2, 2, [0.1, 0.2], 0.3, [-0.65, 1e200], SymMatrix(2, [hess00, 0.2, -0.5]))
        with pytest.raises(ChartDomain, match="normal form"):
            normalize_to_origin(GeometryTag("euclidean", 2), j)

    @pytest.mark.parametrize("name", ["euclidean", "affine", "projective"])
    def test_missed_normal_form_is_a_chart_domain(self, name, monkeypatch):
        # the moved jet is checked: a prolongation that leaves the jet where
        # it was misses the normal form
        tag = GeometryTag(name, 2)
        j = random_graph_jet(np.random.default_rng(50), tag, order=2 if name == "euclidean" else 3)
        monkeypatch.setattr("jetpde.groups.prolong", lambda g, jet: jet)
        with pytest.raises(ChartDomain, match="normal form"):
            normalize_to_origin(tag, j)


class TestElementJson:
    def test_round_trip(self):
        for tag in TAGS:
            g = random_element(tag, 7, 0.4)
            back = element_from_json(element_to_json(g))
            assert back.kind == g.kind and back.n == g.n
            assert np.allclose(back.mat, g.mat)
            if g.shift is not None:
                assert np.allclose(back.shift, g.shift)

    def test_bad_record(self):
        with pytest.raises(SchemaMismatch):
            element_from_json({"type": "euclidean", "n": 2})

    @pytest.mark.parametrize("make", [
        lambda: GroupElement("projective", 2, np.eye(4), [5.0, 5.0, 5.0]),
        lambda: GroupElement("conformal", 2, np.eye(5), [5.0, 5.0, 5.0]),
        lambda: element_from_json({"type": "projective", "n": 2, "P": np.eye(4).tolist(), "b": [5, 5, 5]}),
    ], ids=["projective", "conformal", "projective-record"])
    def test_shift_rejected_where_the_group_has_none(self, make):
        # prolong and element_to_json would drop such a shift
        with pytest.raises(SchemaMismatch, match="no shift"):
            make()


@pytest.mark.parametrize("name", ["euclidean", "affine", "projective", "conformal"])
def test_dimension_within_the_taylor_engine(name):
    # prolongation holds n variables in the Taylor engine, which takes at most MAX_VARS
    assert GeometryTag(name, MAX_VARS).n == MAX_VARS
    for n in (0, MAX_VARS + 1, 40):
        with pytest.raises(SchemaMismatch):
            GeometryTag(name, n)

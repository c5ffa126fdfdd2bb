"""Tests for descriptors, residual routes, polynomial expansion and emission."""

import json
from fractions import Fraction

import numpy as np
import pytest

from jetpde.errors import (
    DegenerateHessian,
    DivisionByZero,
    InvalidExpr,
    NotPolynomial,
    SchemaMismatch,
)
from jetpde.groups import GeometryTag
from jetpde.invariants import F_aff3
from jetpde.jetspace import GraphJet, JetBatch, jet_extend
from jetpde.pde import (
    build,
    const,
    descriptor_from_json,
    emit,
    expand_polynomial,
    expanded_to_json,
    expr_from_json,
    expr_to_json,
    homogeneity_degree,
    lam,
    pick,
    residual,
    residual_via_normalization,
    residuals,
    sigma,
    tau,
    tauring,
)
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import TruncatedJet

E2 = GeometryTag("euclidean", 2)
C2 = GeometryTag("conformal", 2)
A2 = GeometryTag("affine", 2)


def ejet(grad, hess_entries, chart="euclidean"):
    return GraphJet(chart, 2, 2, [0.0, 0.0], 0.0, grad, SymMatrix(2, hess_entries))


def ajet(hess_entries, cubic_entries, grad=(0.0, 0.0), base=(0.0, 0.0), u=0.0,
         chart="affine"):
    return GraphJet(chart, 2, 3, base, u, grad,
                    SymMatrix(2, hess_entries), SymCubic(2, cubic_entries))


class TestBuild:
    def test_presets(self):
        ms = build(E2, "minimal_surface")
        assert ms.order == 2 and ms.chart == "euclidean" and ms.desc_id == "minimal_surface"
        ma = build(E2, "monge_ampere")
        assert ma.expr == sigma(2)
        um = build(C2, "umbilical")
        assert um.chart == "sphere_stereographic"
        ac = build(A2, "affine_cubic")
        assert ac.order == 3

    def test_lambda_sum_is_minimal_surface_locus(self):
        desc = build(E2, lam(1) + lam(2))
        j = ejet([1.0, 2.0], [2.0 / 5.0, 1.0, 1.0])
        assert abs(residual(desc, j)) <= 1e-14

    def test_lambda_product_is_monge_ampere_locus(self):
        desc = build(E2, lam(1) * lam(2))
        germ = TruncatedJet.from_terms({(2, 0): 1.0}, 2, 2)  # u = x^2
        j = jet_extend(germ, [0.3, -0.2], 2)
        assert abs(residual(desc, j)) <= 1e-14

    def test_conformal_rejects_odd_leaf(self):
        with pytest.raises(InvalidExpr):
            build(C2, lam(1))

    def test_wrong_preset_geometry(self):
        with pytest.raises(InvalidExpr):
            build(E2, "umbilical")

    def test_affine_rejects_tau(self):
        with pytest.raises(InvalidExpr):
            build(A2, tau(1))

    def test_lambda_route_equals_trace_route(self):
        # lam(1)+lam(2) is the trace and lam(1)*lam(2) the determinant of the
        # same shape matrix, so the two descriptor routes agree pointwise.
        rng = np.random.default_rng(58)
        sum_desc = build(E2, lam(1) + lam(2))
        prod_desc = build(E2, lam(1) * lam(2))
        ms = build(E2, "minimal_surface")
        ma = build(E2, "monge_ampere")
        for _ in range(100):
            j = ejet(rng.standard_normal(2), rng.standard_normal(3))
            scale = 1.0 + j.hess.norm()
            assert abs(residual(sum_desc, j) - residual(ms, j)) <= 1e-12 * scale
            assert abs(residual(prod_desc, j) - residual(ma, j)) <= 1e-12 * scale**2


class TestResidual:
    def test_minimal_surface_example(self):
        desc = build(E2, "minimal_surface")
        j = ejet([1.0, 2.0], [2.0 / 5.0, 1.0, 1.0])  # 5 u_xx - 4 u_xy + 2 u_yy = 0
        assert abs(residual(desc, j)) <= 1e-14

    def test_monge_ampere_cylinder(self):
        desc = build(E2, "monge_ampere")
        germ = TruncatedJet.from_terms({(2, 0): 1.0}, 2, 2)
        for base in ([0.0, 0.0], [1.0, 2.0], [-0.7, 0.3]):
            j = jet_extend(germ, base, 2)
            assert abs(residual(desc, j)) <= 1e-12

    def test_umbilical_round_point(self):
        desc = build(C2, "umbilical")
        j = ejet([0.0, 0.0], [1.0, 0.0, 1.0], chart="sphere_stereographic")
        assert abs(residual(desc, j)) <= 1e-14

    def test_chart_mismatch(self):
        desc = build(E2, "minimal_surface")
        j = ejet([0.0, 0.0], [1.0, 0.0, 1.0], chart="affine")
        with pytest.raises(SchemaMismatch):
            residual(desc, j)

    def test_degenerate_hessian(self):
        desc = build(A2, "affine_cubic")
        j = ajet([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateHessian):
            residual(desc, j)

    def test_division_by_zero(self):
        desc = build(E2, tau(1) / tau(2))
        j = ejet([0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(DivisionByZero):
            residual(desc, j)

    def test_division_by_zero_with_no_live_row(self):
        # a skipped row's pick is nan, and the expression is still evaluated:
        # a vanishing denominator raises whether or not any row is live
        degenerate = ajet([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        live = ajet([2.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        desc = build(A2, pick() / 0.0)
        for jets in ([degenerate] * 3, [degenerate, live]):
            with pytest.raises(DivisionByZero):
                residuals(desc, JetBatch.of(jets))
        with pytest.raises(DivisionByZero):
            residual(desc, degenerate)
        values, skipped = residuals(build(A2, pick()), JetBatch.of([degenerate] * 3))
        assert np.isnan(values).all() and sorted(skipped) == [0, 1, 2]

    def test_affine_pick_matches_determinant_identity(self):
        # residual = 2 F / det(hess)^3: the normalization route agrees with
        # the direct 13-term polynomial up to the exact factor.
        rng = np.random.default_rng(50)
        desc = build(A2, "affine_cubic")
        done = 0
        while done < 200:
            h = rng.standard_normal(3)
            det = h[0] * h[2] - h[1] ** 2
            if abs(det) < 0.1:
                continue
            j = ajet(h, rng.standard_normal(4),
                     grad=rng.standard_normal(2), base=rng.standard_normal(2),
                     u=rng.standard_normal())
            got = residual(desc, j)
            want = 2.0 * F_aff3(j) / det**3
            assert np.isclose(got, want, rtol=1e-7, atol=1e-9)
            done += 1

    def test_depends_only_on_grad_hess_cubic(self):
        # chart independence: base and value do not enter the residual
        rng = np.random.default_rng(51)
        for name, maker in (
            ("minimal_surface", lambda: build(E2, "minimal_surface")),
            ("monge_ampere", lambda: build(E2, "monge_ampere")),
        ):
            desc = maker()
            grad = rng.standard_normal(2)
            hess = rng.standard_normal(3)
            a = GraphJet("euclidean", 2, 2, [0.0, 0.0], 0.0, grad, SymMatrix(2, hess))
            b = GraphJet("euclidean", 2, 2, rng.standard_normal(2),
                         rng.standard_normal(), grad, SymMatrix(2, hess))
            assert residual(desc, a) == residual(desc, b)


class TestNormalizationRoute:
    def test_flat_gradient_agrees_exactly(self):
        desc = build(E2, "minimal_surface")
        rng = np.random.default_rng(52)
        for _ in range(20):
            j = ejet([0.0, 0.0], rng.standard_normal(3))
            assert np.isclose(residual_via_normalization(desc, j), residual(desc, j),
                              atol=1e-12)

    def test_zero_set_agreement(self):
        rng = np.random.default_rng(53)
        desc = build(E2, "minimal_surface")
        for _ in range(50):
            grad = rng.standard_normal(2)
            a, b = rng.standard_normal(2)
            uyy = (2 * grad[0] * grad[1] * b - (1 + grad[1] ** 2) * a) / (1 + grad[0] ** 2)
            j = ejet(grad, [a, b, uyy])
            assert abs(residual(desc, j)) <= 1e-13
            assert abs(residual_via_normalization(desc, j)) <= 1e-10

    def test_eigen_ratios_agree(self):
        rng = np.random.default_rng(54)
        from jetpde.invariants import eigenvalues

        desc = build(E2, "minimal_surface")
        for _ in range(50):
            j = ejet(rng.standard_normal(2), rng.standard_normal(3))
            lams = eigenvalues(j.grad, j.hess)
            from jetpde.groups import normalize_to_origin

            norm = normalize_to_origin(E2, j).jet
            nlams = np.sort(np.linalg.eigvalsh(norm.hess.full()))[::-1]
            cross = abs(lams[0] * nlams[1] - lams[1] * nlams[0])
            assert cross <= 1e-8 * max(1.0, np.linalg.norm(lams) * np.linalg.norm(nlams))


    @pytest.mark.parametrize("geometry", ["affine", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_third_order_agrees(self, geometry, n):
        # moving frame (normalize, then the pick norm against eps) against
        # the closed form 8 Q / det^3, on jets with relative det >= 0.1
        tag = GeometryTag(geometry, n)
        desc = build(tag, f"{geometry}_cubic")
        rng = np.random.default_rng(59 + n)
        done = 0
        while done < 40:
            hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
            lams = np.linalg.eigvalsh(hess.full())
            if abs(np.prod(lams)) < 0.1 * np.max(np.abs(lams)) ** n:
                continue
            j = GraphJet(tag.chart, n, 3, 0.5 * rng.standard_normal(n),
                         0.5 * rng.standard_normal(), 0.5 * rng.standard_normal(n),
                         hess, SymCubic(n, rng.standard_normal(len(SymCubic(n).data))))
            a, b = residual(desc, j), residual_via_normalization(desc, j)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
            done += 1

    def test_third_order_degenerate(self):
        desc = build(A2, "affine_cubic")
        with pytest.raises(DegenerateHessian):
            residual_via_normalization(desc, ajet([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]))

    def test_conformal_rejected(self):
        desc = build(C2, "umbilical")
        j = ejet([0.0, 0.0], [1.0, 0.0, 1.0], chart="sphere_stereographic")
        with pytest.raises(SchemaMismatch):
            residual_via_normalization(desc, j)


class TestExpand:
    def test_minimal_surface_polynomial(self):
        desc = build(E2, "minimal_surface")
        p = expand_polynomial(desc)
        assert p.rho_power == 2
        expected = {
            (0, 0, 1, 0, 0): Fraction(1),    # u_xx
            (0, 2, 1, 0, 0): Fraction(1),    # u_y^2 u_xx
            (1, 1, 0, 1, 0): Fraction(-2),   # -2 u_x u_y u_xy
            (0, 0, 0, 0, 1): Fraction(1),    # u_yy
            (2, 0, 0, 0, 1): Fraction(1),    # u_x^2 u_yy
        }
        assert p.monomials == expected

    def test_monge_ampere_polynomial(self):
        desc = build(E2, "monge_ampere")
        p = expand_polynomial(desc)
        assert p.rho_power == 3
        assert p.monomials == {
            (0, 0, 1, 0, 1): Fraction(1),
            (0, 0, 0, 2, 0): Fraction(-1),
        }

    def test_affine_cubic_thirteen_terms(self):
        desc = build(A2, "affine_cubic")
        p = expand_polynomial(desc)
        assert len(p.monomials) == 13
        assert all(c.denominator == 1 for c in p.monomials.values())
        rng = np.random.default_rng(55)
        for _ in range(50):
            j = ajet(rng.standard_normal(3), rng.standard_normal(4))
            vals = [j.hess[0, 0], j.hess[1, 0], j.hess[1, 1],
                    j.cubic[0, 0, 0], j.cubic[0, 0, 1], j.cubic[0, 1, 1],
                    j.cubic[1, 1, 1]]
            assert np.isclose(p.evaluate(vals), F_aff3(j), rtol=1e-12, atol=1e-12)

    def test_expanded_equals_rho_power_times_residual(self):
        rng = np.random.default_rng(56)
        for spec in ("minimal_surface", "monge_ampere"):
            desc = build(E2, spec)
            p = expand_polynomial(desc)
            for _ in range(100):
                j = ejet(rng.standard_normal(2), rng.standard_normal(3))
                rho = 1.0 + j.grad @ j.grad
                vals = [j.grad[0], j.grad[1], j.hess[0, 0], j.hess[1, 0], j.hess[1, 1]]
                lhs = p.evaluate(vals)
                rhs = rho**p.rho_power * residual(desc, j)
                assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_compound_expression(self):
        desc = build(E2, tau(1) ** 2 - tau(2) + const(0.0))
        p = expand_polynomial(desc)
        rng = np.random.default_rng(57)
        for _ in range(20):
            j = ejet(rng.standard_normal(2), rng.standard_normal(3))
            rho = 1.0 + j.grad @ j.grad
            vals = [j.grad[0], j.grad[1], j.hess[0, 0], j.hess[1, 0], j.hess[1, 1]]
            assert np.isclose(p.evaluate(vals), rho**p.rho_power * residual(desc, j),
                              rtol=1e-9, atol=1e-12)

    def test_compound_affine_expression(self):
        # the merged walker carries the pick table through mul, sub and const
        p = expand_polynomial(build(A2, pick() * pick() - const(3) * pick()))
        assert p.rho_power == 0
        rng = np.random.default_rng(58)
        for _ in range(50):
            j = ajet(rng.standard_normal(3), rng.standard_normal(4))
            f = F_aff3(j)
            vals = list(j.hess.data) + list(j.cubic.data)
            assert np.isclose(p.evaluate(vals), f * f - 3.0 * f, rtol=1e-12,
                              atol=1e-12 * (1.0 + f * f))

    @pytest.mark.parametrize("tag,expr", [
        (GeometryTag("affine", 3), pick()),
        (A2, pick() / (pick() + const(1.0))),
        (E2, tau(1) / tau(2)),
    ], ids=["affine-n3", "affine-div", "euclidean-div"])
    def test_not_polynomial(self, tag, expr):
        with pytest.raises(NotPolynomial):
            expand_polynomial(build(tag, expr))

    def test_lam_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            expand_polynomial(build(E2, lam(1)))

    def test_conformal_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            expand_polynomial(build(C2, "umbilical"))


class TestEmit:
    def test_latex_minimal_surface(self):
        desc = build(E2, "minimal_surface")
        assert emit(desc, "latex") == "(1+u_y^2)u_{xx} - 2u_xu_yu_{xy} + (1+u_x^2)u_{yy}"

    def test_latex_monge_ampere(self):
        desc = build(E2, "monge_ampere")
        assert emit(desc, "latex") == "u_{xx}u_{yy} - u_{xy}^2"

    def test_json_round_trip(self):
        for tag, name in ((E2, "minimal_surface"), (E2, "monge_ampere"),
                          (C2, "umbilical"), (A2, "affine_cubic")):
            desc = build(tag, name)
            back = descriptor_from_json(json.loads(emit(desc, "json")))
            assert back == desc

    def test_expr_json_round_trip(self):
        e = (tau(1) ** 2 - tau(2)) / (const(2.0) + sigma(1))
        assert expr_from_json(expr_to_json(e)) == e

    def test_expr_record_past_the_recursion_limit(self):
        record = {"op": "tau", "index": 1}
        for _ in range(5000):
            record = {"op": "add", "args": [record, {"op": "const", "value": 1.0}]}
        with pytest.raises(SchemaMismatch):
            expr_from_json(record)

    def test_affine_latex_has_13_monomials(self):
        desc = build(A2, "affine_cubic")
        blob = expanded_to_json(expand_polynomial(desc))
        assert len(blob["monomials"]) == 13
        text = emit(desc, "latex")
        assert text.count("u_{") >= 13


class TestHomogeneity:
    def test_degrees(self):
        assert homogeneity_degree(tau(1)) == 1
        assert homogeneity_degree(sigma(2)) == 2
        assert homogeneity_degree(tauring(2)) == 2
        assert homogeneity_degree(pick()) == 2
        assert homogeneity_degree(tau(1) ** 2 - tau(2)) == 2

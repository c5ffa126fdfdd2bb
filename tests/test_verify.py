"""Tests for the invariance harness and the exact-solution catalog."""

import math

import numpy as np
import pytest

from jetpde.errors import ChartDomain, DegenerateHessian, DivisionByZero
from jetpde.groups import GeometryTag
from jetpde.invariants import F_aff3, pick_numerator
from jetpde.jetspace import GraphJet, JetBatch, jet_extend
from jetpde import verify
from jetpde.pde import build, const, pick, residual, residuals, sigma, tau, tauring
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.verify import (
    SampleConfig,
    check_solution,
    invariance_report,
    report_to_text,
    residual_scale,
    sample_on_zero_set,
    scherk,
    sheared_quadric,
    solution_catalog,
    sphere_cap,
)

E2 = GeometryTag("euclidean", 2)
C2 = GeometryTag("conformal", 2)
A2 = GeometryTag("affine", 2)
P2 = GeometryTag("projective", 2)


class TestSamplers:
    @pytest.mark.parametrize(
        "tag,preset",
        [(E2, "minimal_surface"), (E2, "monge_ampere"), (C2, "umbilical"),
         (A2, "affine_cubic"), (P2, "projective_cubic"),
         (GeometryTag("affine", 3), "affine_cubic"),
         (GeometryTag("projective", 3), "projective_cubic")],
    )
    def test_soundness(self, tag, preset):
        desc = build(tag, preset)
        rng_count, found = 0, 0
        for idx in range(60):
            rng = np.random.default_rng((99, idx))
            j = sample_on_zero_set(desc, rng, 0.5)
            rng_count += 1
            if j is None:
                continue
            found += 1
            assert abs(residual(desc, j)) <= 1e-12 * residual_scale(desc, j)
        assert found >= rng_count // 3


class TestThirdOrderDefect:
    @pytest.mark.parametrize("tag", [A2, P2, GeometryTag("affine", 3)])
    def test_defect_is_scaled_numerator(self, tag):
        # |residual| / residual_scale = 8|Q| / ((1+|H|)^(3(n-1)) (1+|C|)^2)
        desc = build(tag, f"{tag.name}_cubic")
        rng = np.random.default_rng(64)
        n = tag.n
        for _ in range(50):
            j = GraphJet(tag.chart, n, 3, np.zeros(n), 0.0, rng.standard_normal(n),
                         SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)),
                         SymCubic(n, rng.standard_normal(len(SymCubic(n).data))))
            try:
                defect = abs(residual(desc, j)) / residual_scale(desc, j)
            except DegenerateHessian:
                continue
            want = 8.0 * abs(pick_numerator(j.hess, j.cubic)) / (
                (1.0 + j.hess.norm()) ** (3 * (n - 1)) * (1.0 + j.cubic.norm()) ** 2)
            assert np.isclose(defect, want, rtol=1e-9)
            if n == 2:
                assert np.isclose(defect, 2.0 * abs(F_aff3(j)) / (
                    (1.0 + j.hess.norm()) ** 3 * (1.0 + j.cubic.norm()) ** 2), rtol=1e-9)

    @pytest.mark.parametrize("tag", [A2, P2])
    def test_nudged_cubic_detected(self, tag):
        # the gate still bites: on-locus jets whose cubic moves by a relative
        # 1e-2 all report a defect above the default tol
        desc = build(tag, f"{tag.name}_cubic")
        checked = 0
        for idx in range(100):
            j = sample_on_zero_set(desc, np.random.default_rng((7, idx)), 0.5)
            if j is None:
                continue
            d = np.random.default_rng((7, idx, 2)).standard_normal(j.cubic.data.size)
            nudge = 1e-2 * np.linalg.norm(j.cubic.data) * d / np.linalg.norm(d)
            jn = GraphJet(j.chart, 2, 3, j.base, j.u, j.grad, j.hess,
                          SymCubic(2, j.cubic.data + nudge))
            assert abs(residual(desc, jn)) / residual_scale(desc, jn) > 1e-7
            checked += 1
        assert checked >= 90


class TestInvarianceReport:
    def test_minimal_surface_passes(self):
        desc = build(E2, "minimal_surface")
        rep = invariance_report(desc, SampleConfig(seed=7, count=60, scale=0.5, tol=1e-7))
        assert rep.passed and rep.evaluated > 0
        assert rep.max_ratio_defect <= 1e-8
        assert rep.attempted == 60
        assert rep.evaluated + sum(rep.skipped.values()) == rep.attempted

    def test_count_zero_vacuous_pass(self):
        desc = build(E2, "minimal_surface")
        rep = invariance_report(desc, SampleConfig(seed=1, count=0))
        assert rep.passed and rep.attempted == 0 and rep.max_defect == 0.0

    def test_scale_zero_nothing_skipped(self):
        desc = build(E2, "monge_ampere")
        rep = invariance_report(desc, SampleConfig(seed=3, count=40, scale=0.0, tol=1e-10))
        assert rep.skipped["not_graph"] == 0 and rep.skipped["chart_domain"] == 0
        assert rep.passed

    def test_deterministic(self):
        desc = build(C2, "umbilical")
        cfg = SampleConfig(seed=11, count=30, scale=0.3, tol=1e-6)
        a = report_to_text(invariance_report(desc, cfg))
        b = report_to_text(invariance_report(desc, cfg))
        assert a == b

    def test_translations_leave_residual_untouched(self):
        from jetpde.groups import euclidean_element, prolong
        from jetpde.verify import residual_scale, sample_on_zero_set

        desc = build(E2, "minimal_surface")
        for idx in range(25):
            rng = np.random.default_rng((21, idx))
            j = sample_on_zero_set(desc, rng, 0.5)
            if j is None:
                continue
            g = euclidean_element(np.eye(3), rng.standard_normal(3))
            moved = prolong(g, j)
            assert abs(residual(desc, moved)) <= 1e-12 * residual_scale(desc, moved)

    def test_antipode_image_is_counted_or_raised(self):
        # A half-turn in the (u, t)-plane maps the chart origin's lift e_+
        # to the excluded antipode.
        from jetpde.errors import ChartDomain
        from jetpde.groups import conformal_element, prolong
        from jetpde.jetspace import GraphJet
        from jetpde.symtensor import SymMatrix

        C = np.eye(5)
        C[1, 1] = C[4, 4] = -1.0
        g = conformal_element(C)
        j = GraphJet("sphere_stereographic", 2, 2, [0.0, 0.0], 0.0, [0.0, 0.0],
                     SymMatrix.identity(2))
        with pytest.raises(ChartDomain):
            prolong(g, j)

    def test_three_variable_equations(self):
        # trace and determinant equations in three independent variables
        E3 = GeometryTag("euclidean", 3)
        from jetpde.pde import sigma, tau

        for expr in (tau(1), sigma(3)):
            desc = build(E3, expr)
            rep = invariance_report(desc, SampleConfig(seed=13, count=60, scale=0.4,
                                                       tol=1e-7))
            assert rep.passed and rep.evaluated >= 40

    def test_chart_domain_skips_reported(self):
        # Samples based far out in the chart sit near the antipode; some
        # images leave the chart and must be tallied, not thrown.
        desc = build(C2, "umbilical")
        rep = invariance_report(desc, SampleConfig(seed=9, count=100, scale=0.3,
                                                   jet_scale=40.0, tol=1e-6))
        assert rep.skipped["chart_domain"] >= 1
        assert rep.evaluated + sum(rep.skipped.values()) == rep.attempted


class TestCatalog:
    def test_names(self):
        assert set(solution_catalog()) == {
            "plane", "paraboloid", "saddle", "cylinder_graph",
            "sphere_cap", "scherk", "sheared_quadric",
        }

    def test_scherk_closed_form(self):
        # u_y = tan(y), so at y0 = -0.2 the slope is tan(-0.2).
        g = scherk(np.array([0.3, -0.2]), 2)
        j = jet_extend(g, [0.3, -0.2], 2)
        assert np.allclose(j.grad, [-math.tan(0.3), math.tan(-0.2)])
        sec2 = lambda t: 1.0 / math.cos(t) ** 2
        assert np.isclose(j.hess[0, 0], -sec2(0.3))
        assert np.isclose(j.hess[1, 1], sec2(-0.2))
        assert j.hess[1, 0] == 0.0

    def test_scherk_domain(self):
        with pytest.raises(ChartDomain):
            scherk(np.array([1.6, 0.0]), 2)

    def test_sphere_cap_apex(self):
        g = sphere_cap(np.array([0.0, 0.0]), 2, radius=1.0)
        j = jet_extend(g, [0.0, 0.0], 2)
        assert np.allclose(j.grad, 0.0)
        assert np.allclose(j.hess.full(), np.eye(2))

    def test_sphere_cap_derivatives(self):
        # closed-form derivatives of u = c - sqrt(r^2 - |x|^2)
        base = np.array([0.3, -0.1])
        r = 1.5
        g = sphere_cap(base, 3, radius=r, center_u=0.7)
        j = jet_extend(g, base, 3)
        s = math.sqrt(r**2 - base @ base)
        assert np.isclose(j.u, 0.7 - s)
        assert np.allclose(j.grad, base / s)
        expected_hess = np.eye(2) / s + np.outer(base, base) / s**3
        assert np.allclose(j.hess.full(), expected_hess, atol=1e-12)

    def test_sheared_quadric_relation(self):
        # third jet at 0 differs from the quadric's by the symmetric tensor
        # of -2 Q(t) <t, w>
        from jetpde.invariants import sym_outer
        from jetpde.symtensor import SymMatrix

        w = np.array([0.4, -0.7])
        germ = sheared_quadric(np.zeros(2), 3, Q=np.eye(2), w=w)
        j = jet_extend(germ, np.zeros(2), 3, chart="affine")
        assert np.allclose(j.grad, 0.0, atol=1e-12)
        assert np.allclose(j.hess.full(), 2.0 * np.eye(2), atol=1e-10)
        expected = -4.0 * sym_outer(w, SymMatrix.identity(2))
        assert j.cubic.allclose(expected, tol=1e-9)


class TestCheckSolution:
    def test_scherk_minimal(self):
        desc = build(E2, "minimal_surface")
        rng = np.random.default_rng(60)
        pts = 1.2 * rng.uniform(-1, 1, size=(50, 2))
        rep = check_solution(desc, "scherk", pts)
        assert rep.evaluated == 50
        assert rep.max_defect <= 1e-10

    def test_cylinder_monge_ampere(self):
        desc = build(E2, "monge_ampere")
        rng = np.random.default_rng(61)
        pts = rng.standard_normal((30, 2))
        rep = check_solution(desc, "cylinder_graph", pts, coeffs=(0.5, -1.0, 2.0, 1.0))
        assert rep.max_defect <= 1e-12

    def test_sphere_umbilical(self):
        desc = build(C2, "umbilical")
        rng = np.random.default_rng(62)
        pts = 0.6 * rng.uniform(-1, 1, size=(30, 2))
        rep = check_solution(desc, "sphere_cap", pts, radius=1.3, center_u=0.4)
        assert rep.max_defect <= 1e-10

    def test_plane_everything_euclidean(self):
        for preset in ("minimal_surface", "monge_ampere"):
            desc = build(E2, preset)
            rep = check_solution(desc, "plane", [[0.0, 0.0], [1.0, 2.0]],
                                 value=0.3, slope=[0.1, -0.2])
            assert rep.max_defect <= 1e-14

    def test_paraboloid_is_no_minimal_surface(self):
        # check_solution used to report passed=True whatever the defect
        rng = np.random.default_rng(64)
        rep = check_solution(build(E2, "minimal_surface"), "paraboloid",
                             0.5 * rng.uniform(-1, 1, size=(20, 2)))
        assert rep.evaluated == 20
        assert rep.max_defect > 0.5
        assert not rep.passed
        assert check_solution(build(E2, "minimal_surface"), "paraboloid", [[0.0, 0.0]], tol=2.0).passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_expression_fails(self):
        # (1e200 tau)^2 overflows to inf, so the residual is inf - inf = nan:
        # a nan defect must fail, not vanish in max(0.0, nan)
        big = (const(1e200) * tau(1)) ** 2
        desc = build(E2, big - big)
        rep = check_solution(desc, "paraboloid", [[0.1, 0.2], [0.3, -0.1]])
        assert math.isnan(residual(desc, jet_extend(verify.paraboloid([0.1, 0.2], 2), [0.1, 0.2], 2)))
        assert rep.evaluated == 2
        assert rep.max_defect == math.inf
        assert not rep.passed

    def test_points_evaluated_as_one_batch(self, monkeypatch):
        # each point's jet is built first; one residuals and one
        # residual_scales call then evaluate all of them
        calls = []
        for name in ("residuals", "residual_scales"):
            def spy(desc, jets, name=name, real=getattr(verify, name)):
                calls.append((name, len(jets)))
                return real(desc, jets)
            monkeypatch.setattr(verify, name, spy)
        rep = check_solution(build(E2, "minimal_surface"), "sphere_cap",
                             [[0.1, 0.2], [2.0, 0.0], [0.3, -0.1]])
        assert calls == [("residuals", 2), ("residual_scales", 2)]
        assert rep.evaluated == 2 and rep.skipped["chart_domain"] == 1

    def test_every_point_skipped_fails(self):
        # no point lies inside the cap, so nothing is evaluated
        rep = check_solution(build(E2, "minimal_surface"), "sphere_cap", [[2.0, 0.0], [0.0, 3.0]])
        assert rep.evaluated == 0 and rep.skipped["chart_domain"] == 2
        assert rep.max_defect == 0.0
        assert not rep.passed
        assert check_solution(build(E2, "minimal_surface"), "sphere_cap", []).passed

    def test_sheared_quadric_solves_affine(self):
        desc = build(A2, "affine_cubic")
        rng = np.random.default_rng(63)
        pts = 0.2 * rng.standard_normal((20, 2))
        rep = check_solution(desc, "sheared_quadric", pts, Q=np.eye(2), w=(0.3, -0.2))
        assert rep.evaluated == 20
        assert rep.max_defect <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sheared_quadric_divergent_preimage(self):
        # far out the preimage fixed point diverges: each such point is a
        # chart_domain skip, reached without a numpy overflow warning
        pts = 3.0 * np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2))
        rep = check_solution(build(A2, "affine_cubic"), "sheared_quadric", pts)
        assert rep.skipped == {"chart_domain": 142, "degenerate_hessian": 0,
                               "no_root": 0, "not_graph": 0}
        assert rep.evaluated == 58 and rep.passed

    def test_paraboloid_affine_images_zero_F(self):
        germ = sheared_quadric(np.array([0.1, -0.3]), 3, Q=np.diag([1.0, -1.0]), w=(0.2, 0.5))
        j = jet_extend(germ, [0.1, -0.3], 3, chart="affine")
        scale = (1 + j.hess.norm()) ** 3 * (1 + j.cubic.norm()) ** 2
        assert abs(F_aff3(j)) <= 1e-9 * scale


def test_nan_residual_fails_invariance_report(monkeypatch):
    # the report's batched residual stage returns nan for every moved jet
    monkeypatch.setattr(verify, "residuals", lambda desc, jets: (np.full(len(jets), np.nan), {}))
    rep = invariance_report(build(C2, "umbilical"), SampleConfig(seed=3, count=5))
    assert build(C2, "umbilical").expr == tauring(2)
    assert rep.evaluated > 0
    assert rep.max_defect == math.inf
    assert not rep.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_sample_skipped_fails_invariance_report():
    # the residual is nan on every jet, so the sampler finds no root anywhere
    big = (const(1e200) * tau(1)) ** 2
    rep = invariance_report(build(E2, big - big), SampleConfig(seed=1, count=20))
    assert rep.evaluated == 0 and rep.skipped["no_root"] == 20
    assert rep.max_defect == 0.0
    assert not rep.passed
    assert invariance_report(build(E2, big - big), SampleConfig(seed=1, count=0)).passed


@pytest.mark.parametrize("count", [1, 20])
def test_vanishing_quotient_raises_from_invariance_report(count):
    # DivisionByZero is a documented raise, not a skip kind: here the
    # sampler's line scan meets the zero denominator
    with pytest.raises(DivisionByZero):
        invariance_report(build(E2, tau(1) / (sigma(2) - sigma(2))), SampleConfig(1, count))


def test_vanishing_quotient_raises_from_the_batched_residual():
    desc = build(A2, pick() / (pick() - pick()))
    # seed 2's one sample takes the sampler branch that evaluates no
    # residual, so the batched residual of the moved jet meets the zero first
    with pytest.raises(DivisionByZero):
        invariance_report(desc, SampleConfig(2, 1))
    rng = np.random.default_rng(4)
    jets = [GraphJet("affine", 2, 3, rng.standard_normal(2), 0.0, rng.standard_normal(2),
                     SymMatrix(2, [2.0, 0.1 * k, -1.0]), SymCubic(2, rng.standard_normal(4)))
            for k in range(20)]
    with pytest.raises(DivisionByZero):
        residuals(desc, JetBatch.of(jets))

"""Tests for the invariance harness and the exact-solution catalog."""

import math

import numpy as np
import pytest

from jetpde.errors import ChartDomain, DegenerateHessian, DivisionByZero, SchemaMismatch, SingularMetric
from jetpde.groups import GeometryTag, prolong, prolong_batch, random_element, random_elements
from jetpde.invariants import F_aff3, pick_numerator, shape_matrix, tracefree_cubic, tracefree_shape
from jetpde.jetspace import GraphJet, JetBatch, jet_extend
from jetpde import verify
from jetpde.pde import build, const, pick, residual, residuals, sigma, tau, tauring
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.verify import (
    SKIP_EXCEPTIONS,
    SOUNDNESS_TOL,
    SampleConfig,
    check_solution,
    cylinder_graph,
    invariance_report,
    orbit_points,
    paraboloid,
    plane,
    quadric_germ,
    report_to_text,
    residual_scale,
    saddle,
    sample_on_zero_set,
    scherk,
    sheared_quadric,
    solution_catalog,
    sphere_cap,
)
from jetpde.taylor import TruncatedJet, multi_indices

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
         (GeometryTag("projective", 3), "projective_cubic"),
         (GeometryTag("projective", 3), pick() * 2.0)],
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

    @pytest.mark.parametrize("tag", [A2, GeometryTag("projective", 3)])
    def test_custom_third_order_draws_are_checked(self, tag):
        # a sub-bundle point solves pick = 0, not pick = 1: only the preset's
        # sub-bundle draws may skip the soundness check
        desc = build(tag, pick() - 1.0)
        for idx in range(200):
            j = sample_on_zero_set(desc, np.random.default_rng((idx, 5)), 0.5)
            assert j is None or abs(residual(desc, j)) <= SOUNDNESS_TOL * residual_scale(desc, j)

    @pytest.mark.parametrize("seed", (7, 11))
    @pytest.mark.parametrize("tag", [GeometryTag("affine", 3), GeometryTag("projective", 3)])
    def test_cubic_draws_find_a_root(self, tag, seed):
        # indefinite Hessians retry along fresh lines until Q = 0 has a root
        rep = invariance_report(build(tag, f"{tag.name}_cubic"), SampleConfig(seed, 300))
        assert rep.skipped["no_root"] == 0 and rep.passed


def orbit_point(chart: str, lower: tuple, param) -> GraphJet:
    """The sub-bundle point over (base, u, grad[, hess]): a batch of one."""
    base, u, grad, *hess = lower
    jets = JetBatch(chart, np.array([base]), np.array([u]), np.array([grad]), *(h.data[None] for h in hess))
    return orbit_points(jets, np.array([param])).jet(0)


def orbit_defect(j: GraphJet) -> float:
    """How far a jet is off the orbit's sub-bundle: its trace-free shape
    against 1 + |shape| (order 2), or its trace-free cubic against
    (1 + |cubic|) cond(hess) (order 3), since that projection inverts hess."""
    if j.order == 2:
        return np.linalg.norm(tracefree_shape(j.grad, j.hess)) / (
            1.0 + np.linalg.norm(shape_matrix(j.grad, j.hess)))
    return tracefree_cubic(j.hess, j.cubic).norm() / (
        (1.0 + j.cubic.norm()) * np.linalg.cond(j.hess.full()))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("geometry", ("conformal", "affine", "projective"))
def test_group_keeps_the_orbit_sub_bundle(geometry, n):
    # the paper's claim as a tensor equation: prolonged sub-bundle points stay
    # on it in every component, where a scalar residual checks one; a point
    # nudged off by a relative 1e-2 is seen
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, 41))
    worst, seen, checked = 0.0, 0, 0
    for idx in range(100):
        lower = tuple(0.5 * rng.standard_normal(size) for size in (n, None, n))
        if geometry == "conformal":
            j = orbit_point(tag.chart, lower, rng.standard_normal())
        else:
            hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
            j = orbit_point(tag.chart, (*lower, hess), rng.standard_normal(n))
        top = j.hess if j.order == 2 else j.cubic
        d = rng.standard_normal(top.data.size)
        top = type(top)(n, top.data + 1e-2 * (1.0 + top.norm()) * d / np.linalg.norm(d))
        off = GraphJet(j.chart, n, j.order, j.base, j.u, j.grad, *(
            (top,) if j.order == 2 else (j.hess, top)))
        g = random_element(tag, (41, idx), 0.5)
        try:
            on_defect, off_defect = orbit_defect(prolong(g, j)), orbit_defect(prolong(g, off))
        except (*SKIP_EXCEPTIONS, SingularMetric):
            continue
        worst = max(worst, on_defect)
        seen += off_defect > 1e-7
        checked += 1
    assert checked >= 90 and worst <= 1e-7 and seen >= 0.9 * checked


def jet_coordinates(jets: JetBatch) -> np.ndarray:
    """The rows (base, u, grad[, hess[, cubic]]) of a batch: J^{k-1} first."""
    parts = (jets.base, jets.u[:, None], jets.grad, jets.hess, jets.cubic)
    return np.concatenate([a for a in parts if a is not None], axis=1)


def sub_bundle_equation(n: int, order: int, x: np.ndarray) -> np.ndarray:
    """The trace-free shape (order 2) or trace-free cubic (order 3) at the
    jet coordinates x, zero exactly on the orbit's sub-bundle."""
    h0 = 2 * n + 1
    hess = SymMatrix(n, x[h0 : h0 + n * (n + 1) // 2])
    if order == 2:
        return tracefree_shape(x[n + 1 : h0], hess).ravel()
    return tracefree_cubic(hess, SymCubic(n, x[h0 + n * (n + 1) // 2 :])).data


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("geometry", ("conformal", "affine", "projective"))
def test_orbit_fills_the_sub_bundle(geometry, n):
    # the paper's hypotheses at the fiducial k-jet's orbit: its tangent,
    # spanned by the moves of 80 elements near the identity, (a) has the
    # dimension of the sub-bundle, dim J^{k-1} + fibre dimension, (b) maps
    # onto J^{k-1} (the (k-1)-orbit is open), and (c) lies in the kernel of
    # the differential of the sub-bundle's equation, whose rank is the
    # sub-bundle's codimension: the orbit is open in the sub-bundle
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, 43))
    lower = JetBatch(tag.chart, *(0.5 * rng.standard_normal(shape) for shape in ((1, n), 1, (1, n))))
    if tag.facts.order == 2:
        jet, fibre = orbit_points(lower, rng.standard_normal(1)), 1
    else:
        lower = lower.take(slice(None), rng.standard_normal((1, n * (n + 1) // 2)))
        jet, fibre = orbit_points(lower, rng.standard_normal((1, n))), n
    elements = random_elements(tag, [np.random.default_rng((n, 43, k)) for k in range(80)], 1e-6)
    moved, skips = prolong_batch(elements, jet.take(np.zeros(80, dtype=int)))
    assert not skips
    x = jet_coordinates(jet)[0]
    tangent = jet_coordinates(moved) - x
    lower_dim = jet_coordinates(lower).shape[1]
    rank = lower_dim + fibre
    s = np.linalg.svd(tangent, compute_uv=False)
    assert s[rank - 1] >= 1e-3 * s[0] and s[rank] <= 1e-5 * s[0]  # (a)
    s = np.linalg.svd(tangent[:, :lower_dim], compute_uv=False)
    assert s[-1] >= 1e-3 * s[0]  # (b)
    step = 1e-5 * np.eye(x.size)
    d_equation = np.array([sub_bundle_equation(n, jet.order, x + e) - sub_bundle_equation(n, jet.order, x - e)
                           for e in step]).T / 2e-5
    s = np.linalg.svd(d_equation, compute_uv=False)
    codim = x.size - rank
    assert s[codim - 1] >= 1e-3 * s[0] and s[codim] <= 1e-6 * s[0]
    drift = np.linalg.norm(d_equation @ tangent.T)
    assert drift <= 1e-5 * np.linalg.norm(d_equation) * np.linalg.norm(tangent)  # (c)


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

    @pytest.mark.parametrize("cfg", [
        SampleConfig(-1, 3), SampleConfig(7, -5), SampleConfig(2.5, 3), SampleConfig(7, 3.0),
        SampleConfig(7, 0, scale=math.nan), SampleConfig(7, 0, scale=-1.0),
        SampleConfig(7, 0, scale=math.inf),
    ])
    def test_config_checked_before_any_draw(self, cfg, monkeypatch):
        # a negative seed once ended in numpy's ValueError, a negative count in
        # a report with "attempted": -5, and a nan scale passed when nothing
        # was drawn; each is a SchemaMismatch before the sampler runs
        monkeypatch.setattr(verify, "sample_rows", lambda *args: pytest.fail("drew a sample"))
        with pytest.raises(SchemaMismatch):
            invariance_report(build(E2, "minimal_surface"), cfg)

    @pytest.mark.parametrize("jet_scale", [-1.0, math.nan, math.inf])
    def test_single_draw_checks_its_jet_scale(self, jet_scale, monkeypatch):
        # -1 once drew a jet, nan and inf once found no root; the report and
        # the element draw refuse them, and so does the single draw
        monkeypatch.setattr(verify, "sample_rows", lambda *args: pytest.fail("drew a sample"))
        with pytest.raises(SchemaMismatch, match="jet scale"):
            sample_on_zero_set(build(E2, "minimal_surface"), np.random.default_rng(7), jet_scale)

    @pytest.mark.parametrize("geometry,preset", [("euclidean", "minimal_surface"), ("affine", "affine_cubic")])
    def test_empty_batch_has_empty_scales(self, geometry, preset):
        # the scales once reshaped an empty batch to (0, -1), which numpy refuses
        for n in (2, 3):
            desc = build(GeometryTag(geometry, n), preset)
            top = [np.zeros((0, n * (n + 1) // 2)), np.zeros((0, len(SymCubic(n).data)))][: desc.order - 1]
            empty = JetBatch(desc.chart, np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), *top)
            assert verify.residual_scales(desc, empty).shape == (0,)
            skipped = dict.fromkeys(verify.SKIP_KINDS, 0)
            defect, live = verify._evaluate(desc, empty, skipped)
            assert defect == 0.0 and live.size == 0 and not any(skipped.values())

    @pytest.mark.parametrize("count", [2**32, 2**70])
    def test_count_past_the_seed_hash_is_refused(self, count, monkeypatch):
        # seed_states hashes each sample index as one 32-bit word; 2^70 once
        # ended in numpy's ValueError, and such a count is now refused before
        # any array is made
        monkeypatch.setattr(verify, "seed_states", lambda *args: pytest.fail("hashed the seeds"))
        with pytest.raises(SchemaMismatch, match="below 2\\^32"):
            invariance_report(build(E2, "minimal_surface"), SampleConfig(7, count))

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

    def test_quadric_cross_terms(self):
        # (b + d)^T Q (b + d) = b^T Q b + d^T (Q + Q^T) b + d^T Q d, so the
        # d0 d1 coefficient is Q01 + Q10: 2 Q01 for a symmetric Q
        b, d = np.array([0.3, -0.2]), np.array([0.1, 0.05])
        for Q in (np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([[1.0, 0.9], [0.1, -2.0]])):
            g = quadric_germ(Q, b, 3)
            assert g.coeff((0, 0)) == pytest.approx(b @ Q @ b, abs=1e-15)
            assert np.allclose(g.linear_part(), (Q + Q.T) @ b, atol=1e-15)
            quadratic = (g.coeff((2, 0)), g.coeff((1, 1)), g.coeff((0, 2)))
            assert quadratic == (Q[0, 0], Q[0, 1] + Q[1, 0], Q[1, 1])
            assert all(g.coeff(a) == 0.0 for a in multi_indices(2, 3) if sum(a) == 3)
            assert g(d) == pytest.approx((b + d) @ Q @ (b + d), abs=1e-15)
        Q = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert quadric_germ(Q, b, 2)(d) == pytest.approx(0.1450, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_polynomial_surfaces_closed_forms(self, order):
        # Taylor coefficients at b written out by hand, truncated at the order
        b0, b1 = b = np.array([0.4, -0.7])
        cases = {
            "plane": (plane(b, order, value=0.3, slope=[0.1, -0.2]),
                      {(0, 0): 0.3 + 0.1 * b0 - 0.2 * b1, (1, 0): 0.1, (0, 1): -0.2}),
            "paraboloid": (paraboloid(b, order),
                           {(0, 0): b0**2 + b1**2, (1, 0): 2 * b0, (0, 1): 2 * b1,
                            (2, 0): 1.0, (0, 2): 1.0}),
            "saddle": (saddle(b, order),
                       {(0, 0): b0**2 - b1**2, (1, 0): 2 * b0, (0, 1): -2 * b1,
                        (2, 0): 1.0, (0, 2): -1.0}),
            # f = 0.5 - x + 2 x^2 + x^3: f, f', f''/2, f'''/6 at b0
            "cylinder_graph": (cylinder_graph(b, order, coeffs=(0.5, -1.0, 2.0, 1.0)),
                               {(0, 0): 0.5 - b0 + 2 * b0**2 + b0**3, (1, 0): -1.0 + 4 * b0 + 3 * b0**2,
                                (2, 0): 2.0 + 3 * b0, (3, 0): 1.0}),
        }
        for name, (germ, terms) in cases.items():
            want = TruncatedJet.from_terms({a: v for a, v in terms.items() if sum(a) <= order}, 2, order)
            assert germ.order == order and germ.allclose(want, tol=1e-15), name

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_sphere_cap_is_the_square_root(self, order):
        # c - u is the positive root of t = r^2 - |x|^2 to the germ's order
        for base in ([0.3, -0.1], [-0.9, 0.6], [0.0, 0.0]):
            s = 0.7 - sphere_cap(np.array(base), order, radius=1.3, center_u=0.7)
            t = 1.3**2 - paraboloid(base, order)
            assert s.const_term > 0.0 and (s * s).allclose(t, tol=1e-12)

    def test_sphere_cap_near_the_rim(self):
        # t(0) = 1e-6: the coefficients reach t(0)^(1/2 - 3) ~ 1e15, which a
        # Newton step dividing by sqrt(t) would refuse as a singular divisor
        s = math.sqrt(1e-6)
        base = np.array([math.sqrt(1.0 - 1e-6), 0.0])
        j = jet_extend(sphere_cap(base, 3), base, 3)
        assert np.allclose(j.grad, base / s, rtol=1e-9)
        assert np.allclose(j.hess.full(), np.eye(2) / s + np.outer(base, base) / s**3, rtol=1e-9)

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
        # each point's germ is built first; one extend_rows, one residuals
        # and one residual_scales call then take all of them
        calls = []
        for name in ("extend_rows", "residuals", "residual_scales"):
            def spy(*args, name=name, real=getattr(verify, name)):
                calls.append((name, len(args[1])))
                return real(*args)
            monkeypatch.setattr(verify, name, spy)
        monkeypatch.setattr(verify, "jet_extend", lambda *args, **kw: pytest.fail("per-point jet_extend"))
        rep = check_solution(build(E2, "minimal_surface"), "sphere_cap",
                             [[0.1, 0.2], [2.0, 0.0], [0.3, -0.1]])
        assert calls == [("extend_rows", 2), ("residuals", 2), ("residual_scales", 2)]
        assert rep.evaluated == 2 and rep.skipped["chart_domain"] == 1

    def test_every_point_skipped_fails(self):
        # no point lies inside the cap, so nothing is evaluated
        rep = check_solution(build(E2, "minimal_surface"), "sphere_cap", [[2.0, 0.0], [0.0, 3.0]])
        assert rep.evaluated == 0 and rep.skipped["chart_domain"] == 2
        assert rep.max_defect == 0.0
        assert not rep.passed
        assert check_solution(build(E2, "minimal_surface"), "sphere_cap", []).passed

    @pytest.mark.parametrize("name,params", [
        ("saddle", {}), ("sheared_quadric", {}),
        ("sheared_quadric", {"Q": np.eye(2), "w": (0.1, 0.2, 0.3)}), ("scherk", {}),
        ("plane", {"slope": [1.0, 2.0]}), ("plane", {"slope": [1.0, 2.0, 3.0, 4.0]}),
    ])
    def test_surfaces_check_their_dimension(self, name, params):
        # saddle's Q and sheared_quadric's default w fix n = 2; a too long
        # slope is refused, not truncated
        pts = 0.3 * np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 3))
        with pytest.raises(SchemaMismatch):
            check_solution(build(GeometryTag("euclidean", 3), "minimal_surface"), name, pts, **params)

    def test_sheared_quadric_in_three_variables(self):
        pts = 0.2 * np.random.default_rng(5).standard_normal((20, 3))
        rep = check_solution(build(GeometryTag("affine", 3), "affine_cubic"), "sheared_quadric", pts,
                             Q=np.diag([1.0, 2.0, -1.0]), w=(0.3, -0.2, 0.1))
        assert rep.evaluated == 20 and rep.max_defect <= 1e-10

    def test_sheared_quadric_solves_affine(self):
        desc = build(A2, "affine_cubic")
        rng = np.random.default_rng(63)
        pts = 0.2 * rng.standard_normal((20, 2))
        rep = check_solution(desc, "sheared_quadric", pts, Q=np.eye(2), w=(0.3, -0.2))
        assert rep.evaluated == 20
        assert rep.max_defect <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sheared_quadric_divergent_preimage(self):
        # the preimage x = p - s w solves s = x^T x, a quadratic in s: a point
        # is a chart_domain skip exactly when it has no real root, reached
        # without a numpy warning, and every other point is evaluated
        pts = 3.0 * np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2))
        rep = check_solution(build(A2, "affine_cubic"), "sheared_quadric", pts)
        assert rep.skipped == {"chart_domain": 106, "degenerate_hessian": 0,
                               "no_root": 0, "not_graph": 0}
        assert rep.evaluated == 94 and rep.passed
        w = np.array([0.3, -0.2])
        rootless = (2.0 * pts @ w + 1.0) ** 2 - 4.0 * (w @ w) * (pts * pts).sum(axis=1) < 0.0
        assert rootless.sum() == 106
        for p, none in zip(pts, rootless):
            try:
                sheared_quadric(p, 3)
            except ChartDomain:
                assert none
            else:
                assert not none

    def test_paraboloid_affine_images_zero_F(self):
        germ = sheared_quadric(np.array([0.1, -0.3]), 3, Q=np.diag([1.0, -1.0]), w=(0.2, 0.5))
        j = jet_extend(germ, [0.1, -0.3], 3, chart="affine")
        scale = (1 + j.hess.norm()) ** 3 * (1 + j.cubic.norm()) ** 2
        assert abs(F_aff3(j)) <= 1e-9 * scale


def test_nan_residual_fails_invariance_report(monkeypatch):
    # the report's batched residual stage returns nan for every moved jet
    monkeypatch.setattr(verify, "residuals", lambda desc, jets, spectrum=None: (np.full(len(jets), np.nan), {}))
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

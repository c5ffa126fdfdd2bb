"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance; tolerances are pinned here,
not configurable.  Run with ``pytest -v`` (add ``-s`` to see the printed
defect lines for passing criteria as well).
"""

from fractions import Fraction

import numpy as np

from jetpde.errors import ChartDomain, NotGraph
from jetpde.groups import (
    Elements,
    GeometryTag,
    compose_elements,
    normalize_to_origin,
    prolong,
    prolong_batch,
    random_element,
)
from jetpde.invariants import (
    F_aff3,
    chart_metric_h,
    cubic_trace,
    eigenvalues,
    shape_matrix,
    sym_outer,
    tau_d,
    tracefree_cubic,
    tracefree_shape,
)
from jetpde.jetspace import GraphJet, JetBatch, jet_extend, project
from jetpde.pde import build, expand_polynomial, residual, residual_via_normalization
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import TruncatedJet, compose_map, invert_map, multi_indices
from jetpde.verify import (
    SampleConfig,
    check_solution,
    invariance_report,
    paraboloid,
    residual_scale,
    saddle,
    sample_on_zero_set,
)

E2 = GeometryTag("euclidean", 2)
C2 = GeometryTag("conformal", 2)
A2 = GeometryTag("affine", 2)
P2 = GeometryTag("projective", 2)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def jet_defect(a: GraphJet, b: GraphJet) -> float:
    """Largest per-coefficient deviation |x - y| / (1 + |x| + |y|)."""
    worst = 0.0
    pairs = [(a.base, b.base), ([a.u], [b.u]), (a.grad, b.grad)]
    if a.order >= 2:
        pairs.append((a.hess.data, b.hess.data))
    if a.order >= 3:
        pairs.append((a.cubic.data, b.cubic.data))
    for x, y in pairs:
        x, y = np.asarray(x, float), np.asarray(y, float)
        worst = max(worst, float(np.max(np.abs(x - y) / (1.0 + np.abs(x) + np.abs(y)))))
    return worst


def random_jet(rng, tag, order=3, jet_scale=0.5, min_det=None):
    n = tag.n
    while True:
        hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
        if min_det is not None:
            H = hess.full()
            if abs(np.linalg.det(H)) < min_det:
                continue
        cubic = SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order >= 3 else None
        return GraphJet(
            tag.chart, n, order,
            jet_scale * rng.standard_normal(n),
            jet_scale * rng.standard_normal(),
            jet_scale * rng.standard_normal(n),
            hess if order >= 2 else None,
            cubic,
        )


def test_criterion_01_jet_round_trips():
    rng = np.random.default_rng(1001)
    worst = 0.0
    accepted = 0
    while accepted < 500:
        n = int(rng.integers(1, 5))
        order = 3
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(A) > 4.0:  # the well-conditioned precondition
            continue
        accepted += 1
        fs = []
        for i in range(n):
            terms = {}
            for alpha in multi_indices(n, order):
                if sum(alpha) >= 2:
                    terms[alpha] = 0.5 * rng.standard_normal()
            for jv in range(n):
                terms[tuple(1 if k == jv else 0 for k in range(n))] = A[i, jv]
            fs.append(TruncatedJet.from_terms(terms, n, order))
        gs = invert_map(fs)
        for lhs, i in zip(compose_map(gs, fs), range(n)):
            x = TruncatedJet.coordinate(i, n, order)
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - x.coeffs))))
    report("1 [jet round trips]", worst <= 1e-12, f"max coefficient defect {worst:.3e} <= 1e-12")


def test_criterion_02_printed_formulas():
    ms = expand_polynomial(build(E2, "minimal_surface"))
    ms_expected = {
        (0, 0, 1, 0, 0): Fraction(1),
        (0, 2, 1, 0, 0): Fraction(1),
        (1, 1, 0, 1, 0): Fraction(-2),
        (0, 0, 0, 0, 1): Fraction(1),
        (2, 0, 0, 0, 1): Fraction(1),
    }
    ma = expand_polynomial(build(E2, "monge_ampere"))
    ma_expected = {(0, 0, 1, 0, 1): Fraction(1), (0, 0, 0, 2, 0): Fraction(-1)}
    # 13-term third-order polynomial over (u_xx,u_xy,u_yy,u_xxx,u_xxy,u_xyy,u_yyy)
    f_expected = {
        (1, 1, 1, 1, 0, 0, 1): Fraction(6),
        (1, 0, 2, 1, 0, 1, 0): Fraction(-6),
        (1, 1, 1, 0, 1, 1, 0): Fraction(-18),
        (1, 2, 0, 0, 1, 0, 1): Fraction(12),
        (2, 0, 1, 0, 1, 0, 1): Fraction(-6),
        (1, 0, 2, 0, 2, 0, 0): Fraction(9),
        (2, 1, 0, 0, 0, 1, 1): Fraction(-6),
        (2, 0, 1, 0, 0, 2, 0): Fraction(9),
        (3, 0, 0, 0, 0, 0, 2): Fraction(1),
        (0, 1, 2, 1, 1, 0, 0): Fraction(-6),
        (0, 2, 1, 1, 0, 1, 0): Fraction(12),
        (0, 3, 0, 1, 0, 0, 1): Fraction(-8),
        (0, 0, 3, 2, 0, 0, 0): Fraction(1),
    }
    fa = expand_polynomial(build(A2, "affine_cubic"))
    ok = (
        ms.monomials == ms_expected and ms.rho_power == 2
        and ma.monomials == ma_expected and ma.rho_power == 3
        and fa.monomials == f_expected
    )
    report("2 [printed formulas]", ok,
           "minimal surface, hessian-determinant and 13-term third-order "
           "polynomials coefficient-exact")


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(100):
            grad = 1.5 * rng.standard_normal(n)

            def embed(u):
                v = np.concatenate([[-1.0], u])
                return v / np.linalg.norm(v)

            step = 1e-4
            derivs = []
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                derivs.append((embed(grad + e) - embed(grad - e)) / (2 * step))
            gram = np.array([[d1 @ d2 for d2 in derivs] for d1 in derivs])
            worst = max(worst, float(np.max(np.abs(chart_metric_h(grad).full() - gram))))
    report("3 [metric oracle]", worst <= 1e-6,
           f"max |h - fd pullback| {worst:.3e} <= 1e-6 over n in 1..3")


def test_criterion_04_newton_resolution():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        grad = rng.standard_normal(2)
        hess = SymMatrix(2, rng.standard_normal(3))
        S = shape_matrix(grad, hess)
        rho = 1.0 + grad @ grad
        newton = (tau_d(S, 1) ** 2 - tau_d(S, 2)) / 2.0
        direct = float(np.linalg.det(S))
        cleared = float(np.linalg.det(hess.full())) / rho**3
        worst = max(worst, abs(newton - direct), abs(direct - cleared))
    report("4 [determinant constant]", worst <= 1e-12,
           f"(tau1^2-tau2)/2 = det(shape) = rho^-3 det(hess), max gap {worst:.3e} <= 1e-12")


def test_criterion_05_euclidean_invariance():
    details = []
    ok = True
    for preset in ("minimal_surface", "monge_ampere"):
        desc = build(E2, preset)
        rep = invariance_report(desc, SampleConfig(seed=1005, count=500, scale=0.5,
                                                   jet_scale=0.5, tol=1e-7))
        ok = ok and rep.passed and rep.evaluated >= 400
        details.append(f"{preset}: defect {rep.max_defect:.3e} over {rep.evaluated}")
    # eigenvalue-ratio covariance on generic (off-locus) jets
    rng = np.random.default_rng(10055)
    worst_ratio = 0.0
    for idx in range(200):
        j = random_jet(rng, E2, order=2)
        g = random_element(E2, (1005, idx), 0.5)
        try:
            moved = prolong(g, j)
        except NotGraph:
            continue
        l1, l2 = eigenvalues(j.grad, j.hess), eigenvalues(moved.grad, moved.hess)
        s = np.linalg.norm(l1) * np.linalg.norm(l2)
        if s < 1e-9:
            continue
        # proportional up to a signed factor; a negative factor reverses
        # the descending pairing
        cross = min(abs(l1[0] * l2[1] - l1[1] * l2[0]),
                    abs(l1[0] * l2[0] - l1[1] * l2[1]))
        worst_ratio = max(worst_ratio, cross / s)
    ok = ok and worst_ratio <= 1e-8
    details.append(f"eigen-ratio defect {worst_ratio:.3e}")
    report("5 [euclidean invariance]", ok, "; ".join(details))


def test_criterion_06_solutions():
    rng = np.random.default_rng(1006)
    scherk_pts = 1.25 * rng.uniform(-1.0, 1.0, size=(200, 2))
    r1 = check_solution(build(E2, "minimal_surface"), "scherk", scherk_pts)
    cyl_pts = rng.standard_normal((200, 2))
    r2 = check_solution(build(E2, "monge_ampere"), "cylinder_graph", cyl_pts,
                        coeffs=(0.3, -1.2, 0.7, 1.0))
    cap_pts = 0.55 * rng.uniform(-1.0, 1.0, size=(200, 2))
    r3 = check_solution(build(C2, "umbilical"), "sphere_cap", cap_pts,
                        radius=1.2, center_u=0.3)
    ok = (r1.evaluated == 200 and r1.max_defect <= 1e-10
          and r2.evaluated == 200 and r2.max_defect <= 1e-12
          and r3.evaluated == 200 and r3.max_defect <= 1e-10)
    report("6 [exact solutions]", ok,
           f"scherk {r1.max_defect:.3e} <= 1e-10, cylinder {r2.max_defect:.3e} <= 1e-12, "
           f"sphere cap {r3.max_defect:.3e} <= 1e-10")


def test_criterion_07_conformal():
    desc = build(C2, "umbilical")
    rep = invariance_report(desc, SampleConfig(seed=1007, count=300, scale=0.3,
                                               jet_scale=0.5, tol=1e-6))
    ok = rep.passed and rep.evaluated >= 250 and "chart_domain" in rep.skipped
    detail = (f"umbilic defect {rep.max_defect:.3e} over {rep.evaluated}, "
              f"chart-domain skips {rep.skipped['chart_domain']}")
    # discriminant identity on 1000 random jets
    from jetpde.invariants import conformal_discriminant

    rng = np.random.default_rng(10077)
    worst = 0.0
    for _ in range(1000):
        grad = rng.standard_normal(2)
        hess = SymMatrix(2, rng.standard_normal(3))
        S0 = tracefree_shape(grad, hess)
        rho = 1.0 + grad @ grad
        lhs = conformal_discriminant(grad, hess)
        rhs = 2.0 * rho**4 * float(np.trace(S0 @ S0))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    ok = ok and worst <= 1e-10
    report("7 [conformal]", ok, detail + f"; discriminant identity gap {worst:.3e} <= 1e-10")


def test_criterion_08_affine_third_order():
    rng = np.random.default_rng(1008)
    worst_rel = 0.0
    produced = 0
    for idx in range(200):
        germ_fn = paraboloid if idx % 2 == 0 else saddle
        base = 0.4 * rng.standard_normal(2)
        j = jet_extend(germ_fn(base, 3), base, 3, chart="affine")
        g = random_element(A2, (1008, idx), 0.5)
        try:
            moved = prolong(g, j)
        except NotGraph:
            continue
        produced += 1
        scale = (1.0 + moved.hess.norm()) ** 3 * (1.0 + moved.cubic.norm()) ** 2
        worst_rel = max(worst_rel, abs(F_aff3(moved)) / scale)
    ok = produced >= 150 and worst_rel <= 1e-8
    details = [f"F on {produced} quadric images: {worst_rel:.3e} <= 1e-8"]
    for tag, label in ((A2, "affine"), (P2, "projective")):
        desc = build(tag, "affine_cubic" if tag is A2 else "projective_cubic")
        rep = invariance_report(desc, SampleConfig(seed=1008, count=300, scale=0.3,
                                                   jet_scale=0.5, tol=1e-6))
        ok = ok and rep.passed and rep.evaluated >= 100
        details.append(f"{label} defect {rep.max_defect:.3e} over {rep.evaluated}")
    report("8 [affine third order]", ok, "; ".join(details))


def test_criterion_09_quotient_construction():
    desc = build(A2, "affine_cubic")
    rng = np.random.default_rng(1009)
    agree = True
    worst_gap = 0.0
    checked = 0
    while checked < 1000:
        j = random_jet(rng, A2, order=3, min_det=0.1)
        det = float(np.linalg.det(j.hess.full()))
        r = residual(desc, j)
        f = F_aff3(j)
        # exact identity: residual = 2 F / det^3
        gap = abs(r - 2.0 * f / det**3) / max(1.0, abs(r), abs(2.0 * f / det**3))
        worst_gap = max(worst_gap, gap)
        scale_f = (1.0 + j.hess.norm()) ** 3 * (1.0 + j.cubic.norm()) ** 2
        agree = agree and ((abs(r) <= 1e-7 * residual_scale(desc, j))
                           == (abs(f) <= 1e-7 * scale_f))
        checked += 1
    # vanishing side: samples constructed on the zero set agree as well
    for idx in range(200):
        srng = np.random.default_rng((1009, idx))
        j = sample_on_zero_set(desc, srng, 0.5)
        if j is None:
            continue
        scale_f = (1.0 + j.hess.norm()) ** 3 * (1.0 + j.cubic.norm()) ** 2
        agree = agree and abs(F_aff3(j)) <= 1e-7 * scale_f
    ok = agree and worst_gap <= 1e-7
    # annihilator and idempotence of the trace-free projection
    worst_kernel = worst_idem = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        g = SymMatrix.from_full(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        w = rng.standard_normal(n)
        worst_kernel = max(worst_kernel,
                           float(np.max(np.abs(tracefree_cubic(g, sym_outer(w, g)).data))))
        C = SymCubic(n, rng.standard_normal(len(SymCubic(n).data)))
        C0 = tracefree_cubic(g, C)
        worst_idem = max(worst_idem,
                         float(np.max(np.abs((tracefree_cubic(g, C0) - C0).data))))
        # the kernel is exactly the relation family: a vanishing projection
        # reconstructs the cubic from its own trace
        if np.max(np.abs(C0.data)) < 1e-12:
            back = sym_outer(cubic_trace(g, C) / (n + 2.0), g)
            assert np.max(np.abs((C - back).data)) < 1e-10
    ok = ok and worst_kernel <= 1e-12 and worst_idem <= 1e-12
    report("9 [cubic quotient]", ok,
           f"pick/P zero sets agree on 1000 jets (identity gap {worst_gap:.3e} <= 1e-7); "
           f"kernel defect {worst_kernel:.3e}, idempotence {worst_idem:.3e} <= 1e-12")


def test_criterion_10_normalization_mechanics():
    worst = 0.0
    for preset, count in (("minimal_surface", 500), ("monge_ampere", 500)):
        desc = build(E2, preset)
        for idx in range(count):
            rng = np.random.default_rng((1010, idx))
            j = sample_on_zero_set(desc, rng, 0.5)
            if j is None:
                continue
            alt = residual_via_normalization(desc, j)
            worst = max(worst, abs(alt) / residual_scale(desc, j))
    ok = worst <= 1e-7
    # self-check of the normalization across the three normalizing geometries
    rng = np.random.default_rng(10105)
    worst_self = 0.0
    for tag, order in ((E2, 2), (A2, 3), (P2, 3)):
        for _ in range(100):
            j = random_jet(rng, tag, order=order, min_det=0.1 if order == 3 else None)
            res = normalize_to_origin(tag, j)
            worst_self = max(worst_self, jet_defect(prolong(res.element, j), res.jet))
    ok = ok and worst_self <= 1e-9
    report("10 [normalization mechanics]", ok,
           f"cross-route zero-set defect {worst:.3e} <= 1e-7; "
           f"self-check defect {worst_self:.3e} <= 1e-9")


def element_stack(elements) -> Elements:
    """GroupElements of one group as one Elements stack."""
    shift = None if elements[0].shift is None else np.stack([g.shift for g in elements])
    return Elements(elements[0].kind, elements[0].n, np.stack([g.mat for g in elements]), shift)


def prolong_rows(elements, jets):
    """``prolong_batch`` of the listed elements and jets: {row: moved jet}
    of the rows that stay graphs, and {row: NotGraph or ChartDomain}."""
    if not jets:
        return {}, {}
    moved, skips = prolong_batch(element_stack(elements), JetBatch.of(jets))
    assert all(isinstance(e, (NotGraph, ChartDomain)) for e in skips.values())
    rows = [r for r in range(len(jets)) if r not in skips]
    return {r: moved.jet(i) for i, r in enumerate(rows)}, skips


def test_criterion_11_functoriality():
    """Each geometry's pairs run as batches of the pairs still needed, so
    the loop draws the jets, in order, that one pair at a time would."""
    rng = np.random.default_rng(1011)
    worst_pair = 0.0
    worst_proj = 0.0
    for gidx, tag in enumerate((E2, A2, P2, C2)):
        good = 0
        idx = 0
        while good < 300 and idx < 900:
            ids = range(idx + 1, idx + 1 + min(300 - good, 900 - idx))
            idx = ids[-1]
            g1 = [random_element(tag, (1011, gidx, i, 1), 0.3) for i in ids]
            g2 = [random_element(tag, (1011, gidx, i, 2), 0.3) for i in ids]
            jets = [random_jet(rng, tag, order=3) for _ in ids]
            combined, _ = prolong_rows([compose_elements(a, b) for a, b in zip(g1, g2)], jets)
            half, _ = prolong_rows(g2, jets)
            live = sorted(half)
            moved, _ = prolong_rows([g1[r] for r in live], [half[r] for r in live])
            stepwise = {live[i]: jet for i, jet in moved.items()}
            usable = [r for r in combined if r in stepwise]
            for r in usable:
                worst_pair = max(worst_pair, jet_defect(combined[r], stepwise[r]))
            lifted, skips = prolong_rows([g1[r] for r in usable], [jets[r] for r in usable])
            assert not skips
            for m in (1, 2):
                rhs, skips = prolong_rows([g1[r] for r in usable], [project(jets[r], m) for r in usable])
                assert not skips
                for i in range(len(usable)):
                    worst_proj = max(worst_proj, jet_defect(project(lifted[i], m), rhs[i]))
            good += len(usable)
        assert good == 300, f"{tag.name}: only {good} usable pairs"
    ok = worst_pair <= 1e-9 and worst_proj <= 1e-10
    report("11 [functoriality]", ok,
           f"composition defect {worst_pair:.3e} <= 1e-9; "
           f"projection commutation defect {worst_proj:.3e} <= 1e-10")

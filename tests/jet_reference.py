"""Object-level and scalar references for the array kernels.

These are the straightforward routines that array code in jetpde
replaced:

* the Taylor kernels of :mod:`jetpde.taylor` and the prolongation: every
  product of two jets goes through ``np.add.at`` over the multiplication
  table, every intermediate is a :class:`TruncatedJet`, and ``prolong``
  builds its germs term by term;
* the stacked second-order residual and the line draws of the
  Euclidean sampler: one jet, one :class:`SymMatrix` and one float per
  invariant at a time, the three-point line solve made of three residual
  calls and the scan of 65;
* the scalar group and third-order routes: one exponential (the
  library's :func:`jetpde.groups.expm` on a stack of one) and one
  re-projection per drawn element, the Hessian determinant and the pick
  numerator of one jet (cofactors by ``math.prod``, unstacked einsums),
  the third-order residual and the residual scale of one jet, the
  affine sampler with one pick-numerator call per line point and its
  sub-bundle cubic entry by entry, and the umbilic sampler entry by entry;
* the samplers one index at a time, with their own generator, as the
  batched draw stage must reproduce them row by row; the Euclidean one
  polishes with ``scipy.optimize.brentq``;
* the per-sample loop of ``invariance_report``: one jet, one group
  element, one prolongation and one residual at a time, all through the
  routines of this module.

The tests assert that the kernels reproduce them bit for bit; they are
compared live, never against stored numbers, because LAPACK results may
differ in the last bit between builds.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

from jetpde.errors import (
    ChartDomain,
    DegenerateHessian,
    DivisionBySingular,
    DivisionByZero,
    InvalidExpr,
    NotGraph,
    SchemaMismatch,
    SingularJacobian,
)
from jetpde import verify
from jetpde.groups import (
    CHART_DENOM_RTOL,
    _form_matrix,
    _skew,
    affine_element,
    conformal_element,
    euclidean_element,
    expm,
    projective_element,
)
from jetpde.invariants import DEGENERATE_HESSIAN_RTOL
from jetpde.jetspace import GraphJet, _exps
from jetpde.pde import DIV_EPS, LEAVES, Expr, PdeDescriptor, homogeneity_degree, line_degree, pick, tauring
from jetpde.symtensor import SymCubic, SymMatrix, cubic_indices
from jetpde.taylor import (
    DIVISION_RTOL,
    SINGULAR_RTOL,
    TruncatedJet,
    _mul_table,
    multi_indices,
    n_coeffs,
)
from jetpde.verify import SKIP_EXCEPTIONS, SKIP_KINDS, SOUNDNESS_TOL, Report


def rho_of(grad) -> float:
    """1 + |grad|^2 by one dot product."""
    grad = np.asarray(grad, dtype=float)
    return 1.0 + float(grad @ grad)


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def assert_bitwise(x, y):
    """Equal as float64 bit patterns: values, signs of zeros and all."""
    assert np.array_equal(x, y, equal_nan=True)
    assert np.array_equal(bits(x), bits(y))


def mul(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    order = min(a.order, b.order)
    x = a.truncate(order).coeffs
    y = b.truncate(order).coeffs
    ia, ib, iout = _mul_table(a.n_vars, order)
    out = np.zeros(n_coeffs(a.n_vars, order))
    np.add.at(out, iout, x[ia] * y[ib])
    return TruncatedJet(a.n_vars, order, out)


def divide(a: TruncatedJet, b: TruncatedJet, tol: float = DIVISION_RTOL) -> TruncatedJet:
    order = min(a.order, b.order)
    b = b.truncate(order)
    b0 = b.const_term
    scale = max(1.0, float(np.max(np.abs(b.coeffs))))
    if abs(b0) < tol * scale:
        raise DivisionBySingular(f"|b(0)|={abs(b0):.3e} below {tol * scale:.3e}")
    r = (b - b0) * (1.0 / b0)
    inv = TruncatedJet.constant(1.0, b.n_vars, order)
    term = TruncatedJet.constant(1.0, b.n_vars, order)
    for _ in range(order):
        term = mul(term, -r)
        inv = inv + term
    return mul(a.truncate(order), inv) * (1.0 / b0)


def compose(outer: TruncatedJet, inners, order: int | None = None) -> TruncatedJet:
    m = outer.n_vars
    n = inners[0].n_vars
    native = min(outer.order, min(g.order for g in inners))
    order = native if order is None else order
    # a nonzero constant term carries every outer term down to degree 0
    at = outer.order if any(g.const_term != 0.0 for g in inners) else order
    pad = n_coeffs(n, at) - n_coeffs(n, order)
    gs = [TruncatedJet(n, at, np.pad(g.truncate(order).coeffs, (0, pad))) for g in inners]
    powers = []
    for g in gs:
        col = [TruncatedJet.constant(1.0, n, at)]
        for _ in range(at):
            col.append(mul(col[-1], g))
        powers.append(col)
    out = TruncatedJet.constant(0.0, n, at)
    for beta, c in zip(multi_indices(m, at), outer.coeffs):
        if c == 0.0:
            continue
        term = TruncatedJet.constant(c, n, at)
        for i, bi in enumerate(beta):
            if bi:
                term = mul(term, powers[i][bi])
        out = out + term
    return out.truncate(order)


def invert_map(fs) -> list[TruncatedJet]:
    n = len(fs)
    order = min(f.order for f in fs)
    J = np.array([f.linear_part() for f in fs])
    det = float(np.linalg.det(J))
    scale = float(np.linalg.norm(J) / math.sqrt(n))
    if det == 0.0 or abs(det) < SINGULAR_RTOL * scale**n:
        raise SingularJacobian(f"|det J|={abs(det):.3e}, scale={scale:.3e}")
    Jinv = np.linalg.inv(J)
    coords = [TruncatedJet.coordinate(i, n, order) for i in range(n)]
    linear = []
    for i in range(n):
        row = TruncatedJet.constant(0.0, n, order)
        for j in range(n):
            if J[i, j] != 0.0:
                row = row + coords[j] * J[i, j]
        linear.append(row)
    high = [fs[i].truncate(order) - linear[i] for i in range(n)]
    zero = TruncatedJet.constant(0.0, n, order)
    g = [sum((coords[j] * Jinv[i, j] for j in range(n)), zero) for i in range(n)]
    for _ in range(order - 1):
        corr = [compose(h, g) for h in high]
        g = [sum(((coords[j] - corr[j]) * Jinv[i, j] for j in range(n)), zero) for i in range(n)]
    return g


def to_poly(j: GraphJet) -> TruncatedJet:
    n, order = j.n, j.order
    terms = {(0,) * n: j.u}
    for i in range(n):
        terms[_exps(n, (i,))] = j.grad[i]
    if order >= 2:
        for i in range(n):
            for k in range(i + 1):
                alpha = _exps(n, (i, k))
                terms[alpha] = j.hess[i, k] / math.prod(math.factorial(a) for a in alpha)
    if order >= 3:
        for ijk in cubic_indices(n):
            alpha = _exps(n, ijk)
            terms[alpha] = j.cubic[ijk] / math.prod(math.factorial(a) for a in alpha)
    return TruncatedJet.from_terms(terms, n, order)


def jet_extend(germ: TruncatedJet, base, order: int, chart: str) -> GraphJet:
    n = germ.n_vars
    hess = cubic = None
    if order >= 2:
        hess = SymMatrix(n, [germ.coeff(_exps(n, (i, j))) * (2.0 if i == j else 1.0)
                             for i in range(n) for j in range(i + 1)])
    if order >= 3:
        cubic = SymCubic(n, [germ.coeff(_exps(n, ijk)) * math.prod(math.factorial(a) for a in _exps(n, ijk))
                             for ijk in cubic_indices(n)])
    return GraphJet(chart, n, order, base, germ.const_term, germ.linear_part(), hess, cubic)


def push_components(g, comps: list[TruncatedJet]) -> list[TruncatedJet]:
    order = comps[0].order
    nv = comps[0].n_vars

    def const(v):
        return TruncatedJet.constant(v, nv, order)

    def linear(M, vec, off=None):
        rows = []
        for i in range(M.shape[0]):
            row = const(off[i] if off is not None else 0.0)
            for j, cj in enumerate(vec):
                if M[i, j] != 0.0:
                    row = row + cj * M[i, j]
            rows.append(row)
        return rows

    if g.kind in ("euclidean", "affine"):
        return linear(g.mat, comps, g.shift)
    if g.kind == "projective":
        out = linear(g.mat, list(comps) + [const(1.0)])
        den = out[-1]
        scale = max(1.0, max(abs(o.const_term) for o in out))
        if abs(den.const_term) < CHART_DENOM_RTOL * scale:
            raise ChartDomain("projective image leaves the affine chart")
        return [divide(o, den) for o in out[:-1]]
    m = mul(comps[0], comps[0])
    for c in comps[1:]:
        m = m + mul(c, c)
    den0 = m + 4.0
    lifted = [const(1.0)] + [divide(c * 4.0, den0) for c in comps] + [divide(4.0 - m, den0)]
    out = linear(g.mat, lifted)
    den = out[-1] + out[0]
    scale = max(1.0, max(abs(o.const_term) for o in out))
    if abs(den.const_term) < CHART_DENOM_RTOL * scale:
        raise ChartDomain("conformal image hits the projection antipode")
    return [divide(o * 2.0, den) for o in out[1:-1]]


def prolong(g, j: GraphJet) -> GraphJet:
    if j.chart != g.geometry.chart or j.n != g.n:
        raise SchemaMismatch("jet does not match the group")
    n, order = j.n, j.order
    comps = [to_poly(j)]
    for i in range(n):
        comps.append(TruncatedJet.coordinate(i, n, order) + float(j.base[i]))
    imgs = push_components(g, comps)
    u_img, x_imgs = imgs[0], imgs[1:]
    new_base = np.array([x.const_term for x in x_imgs])
    try:
        inv = invert_map([x - x.const_term for x in x_imgs])
    except SingularJacobian as exc:
        raise NotGraph(str(exc)) from exc
    return jet_extend(compose(u_img, inv), new_base, order, j.chart)


# -- scalar group elements ---------------------------------------------------


def unimodular(P: np.ndarray) -> np.ndarray:
    det = np.linalg.det(P)
    if det <= 0.0:
        raise SchemaMismatch("cannot rescale a non-positive determinant to 1")
    return P / det ** (1.0 / P.shape[0])


def _expm(M: np.ndarray) -> np.ndarray:
    return expm(M[None])[0]


def random_element(tag, seed, scale: float):
    """One generator, one exponential and one re-projection per element."""
    if scale < 0:
        raise SchemaMismatch("scale must be non-negative")
    rng = np.random.default_rng(seed)
    n = tag.n
    if tag.name == "euclidean":
        K = _skew(rng.standard_normal((n + 1, n + 1))) * scale
        U, _, Vt = np.linalg.svd(_expm(K))
        b = scale * rng.standard_normal(n + 1)
        return euclidean_element(U @ Vt, b)
    if tag.name == "affine":
        A = _expm(scale * rng.standard_normal((n + 1, n + 1)))
        b = scale * rng.standard_normal(n + 1)
        return affine_element(A, b)
    if tag.name == "projective":
        M = scale * rng.standard_normal((n + 2, n + 2))
        M -= np.trace(M) / (n + 2) * np.eye(n + 2)
        return projective_element(unimodular(_expm(M)))
    X = _form_matrix(n) @ _skew(rng.standard_normal((n + 3, n + 3))) * scale
    return conformal_element(_expm(X))


# -- scalar second-order route ----------------------------------------------


def chart_metric(grad) -> tuple[np.ndarray, np.ndarray]:
    """h and its closed-form root R for one gradient, scalar by scalar."""
    grad = np.asarray(grad, dtype=float)
    big = max(1.0, float(np.max(np.abs(grad))))
    t = grad / big
    tt = float(t @ t)
    s = big * math.sqrt(1.0 / big / big + tt)
    p = t / math.sqrt(tt if tt > 0.0 else 1.0)
    P = np.outer(p, p)
    R = (np.eye(grad.size) - P + P / s) / s
    return R @ R, R


def shape_matrix(grad, hess: SymMatrix) -> np.ndarray:
    return chart_metric(grad)[0] @ hess.full()


def tau_d(S, d: int) -> float:
    P = np.linalg.matrix_power(np.asarray(S, dtype=float), d)
    return float(np.trace(P))


def eigenvalues(grad, hess: SymMatrix) -> np.ndarray:
    R = chart_metric(grad)[1]
    return np.linalg.eigvalsh(R @ hess.full() @ R)[::-1]


def elementary_symmetric(lams, i: int) -> float:
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in lams:
        for k in range(n, 0, -1):
            e[k] = e[k] + lam * e[k - 1]
    return float(e[i])


def tracefree_shape(grad, hess: SymMatrix) -> np.ndarray:
    S = shape_matrix(grad, hess)
    return S - (np.trace(S) / S.shape[0]) * np.eye(S.shape[0])


def eval_tree(e: Expr, leaf_value) -> float:
    if e.op == "const":
        return e.value
    if e.op in LEAVES:
        return leaf_value(e)
    vals = [eval_tree(a, leaf_value) for a in e.args]
    if e.op == "add":
        return vals[0] + vals[1]
    if e.op == "sub":
        return vals[0] - vals[1]
    if e.op == "mul":
        return vals[0] * vals[1]
    if e.op == "div":
        if abs(vals[1]) < DIV_EPS:
            raise DivisionByZero("quotient node hit a vanishing denominator")
        return vals[0] / vals[1]
    if e.op == "pow":
        try:
            return vals[0] ** e.index
        except OverflowError:
            return math.copysign(math.inf, vals[0]) if e.index % 2 else math.inf
    raise InvalidExpr(f"unknown node {e.op!r}")


def residual(desc: PdeDescriptor, j: GraphJet) -> float:
    """The residual of one jet, one leaf value at a time."""
    cache: dict = {}
    if desc.geometry.name in ("affine", "projective"):

        def pick_value(e: Expr) -> float:
            if e.op != "pick":
                raise InvalidExpr(f"leaf {e.op!r} unexpected here")
            if "pick" not in cache:
                det = hessian_det(j.hess)
                cache["pick"] = 8.0 * pick_numerator(j.hess, j.cubic) / det**3
            return cache["pick"]

        return eval_tree(desc.expr, pick_value)

    def leaf_value(e: Expr) -> float:
        if e.op == "lam":
            if "lams" not in cache:
                cache["lams"] = eigenvalues(j.grad, j.hess)
            return float(cache["lams"][e.index - 1])
        if e.op == "sigma":
            if "lams" not in cache:
                cache["lams"] = eigenvalues(j.grad, j.hess)
            return elementary_symmetric(cache["lams"], e.index)
        if e.op == "tau":
            if "S" not in cache:
                cache["S"] = shape_matrix(j.grad, j.hess)
            return tau_d(cache["S"], e.index)
        if e.op == "tauring":
            if "S0" not in cache:
                cache["S0"] = tracefree_shape(j.grad, j.hess)
            return tau_d(cache["S0"], e.index)
        raise InvalidExpr(f"leaf {e.op!r} unexpected here")

    return eval_tree(desc.expr, leaf_value)


# -- scalar third-order route -----------------------------------------------


def nondegenerate_det(lams: np.ndarray) -> float:
    det = float(np.prod(lams))
    scale = float(np.max(np.abs(lams))) or 1.0
    if abs(det) < DEGENERATE_HESSIAN_RTOL * scale**lams.size:
        raise DegenerateHessian(f"|det hess| = {abs(det):.3e}")
    return det


def hessian_det(hess: SymMatrix) -> float:
    return nondegenerate_det(np.linalg.eigvalsh(hess.full()))


def pick_numerator(hess: SymMatrix, cubic: SymCubic) -> float:
    lams, V = np.linalg.eigh(hess.full())
    n = lams.size
    spec = lams.tolist()
    cofactors = [math.prod(spec[:i] + spec[i + 1 :]) for i in range(n)]
    A = (V * cofactors) @ V.T
    C = cubic.full()
    s = np.einsum("ij,ijk->k", A, C)
    full = np.einsum("il,jm,kn,ijk,lmn->", A, A, A, C, C)
    return float(full - 3.0 / (n + 2.0) * (s @ A @ s))


def residual_scale(desc: PdeDescriptor, j: GraphJet) -> float:
    degree = homogeneity_degree(desc.expr)
    if j.order < 3:
        return (1.0 + j.hess.norm()) ** degree
    if degree == 0:
        return 1.0
    per_pick = (
        (1.0 + j.hess.norm()) ** (3 * (j.n - 1))
        * (1.0 + j.cubic.norm()) ** 2
        / abs(hessian_det(j.hess)) ** 3
    )
    return per_pick ** (degree / 2)


def sym_outer(w, g: SymMatrix) -> SymCubic:
    """The symmetrized product (w . g)_{ijk} = w_i g_jk + w_j g_ik + w_k g_ij,
    entry by entry."""
    w = np.asarray(w, dtype=float)
    vals = [w[i] * g[j, k] + w[j] * g[i, k] + w[k] * g[i, j] for i, j, k in cubic_indices(g.n)]
    return SymCubic(g.n, vals)


def sample_umbilic(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet:
    """An umbilic 2-jet, hess = c rho (I + grad grad^T), entry by entry."""
    n = desc.geometry.n
    base = jet_scale * rng.standard_normal(n)
    u = jet_scale * rng.standard_normal()
    grad = jet_scale * rng.standard_normal(n)
    c = rng.standard_normal() + np.sign(rng.standard_normal()) * 0.2
    rho = rho_of(grad)
    lower = [c * (rho * ((i == k) + grad[i] * grad[k])) for i in range(n) for k in range(i + 1)]
    return GraphJet(desc.chart, n, 2, base, u, grad, SymMatrix(n, lower))


def sample_affine(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet | None:
    """A third-order draw: a definite Hessian carries cubic = sym_outer(w,
    hess), unchecked only for ``pick()``; an indefinite one solves the pick
    numerator on lines through a drawn cubic, last coefficient first, one
    pick-numerator call per line point."""
    n = desc.geometry.n
    base = jet_scale * rng.standard_normal(n)
    u = jet_scale * rng.standard_normal()
    grad = jet_scale * rng.standard_normal(n)
    hess = None
    for _ in range(20):
        cand = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
        if abs(np.linalg.det(cand.full())) >= 0.3:
            hess = cand
            break
    if hess is None:
        return None
    lams = np.linalg.eigvalsh(hess.full())
    if all(lams > 0.0) or all(lams < 0.0):
        j = GraphJet(desc.chart, n, 3, base, u, grad, hess, sym_outer(rng.standard_normal(n), hess))
        if desc.expr == pick():
            return j
        return j if abs(residual(desc, j)) <= SOUNDNESS_TOL * residual_scale(desc, j) else None
    point = rng.standard_normal(len(SymCubic(n).data))
    point[-1] = 0.0
    direction = np.zeros(point.size)
    direction[-1] = 1.0
    for _ in range(20):
        q0, q1, qm = (pick_numerator(hess, SymCubic(n, point + t * direction)) for t in (0.0, 1.0, -1.0))
        root = verify._line_root(qm, q0, q1, 1.0, 50.0)
        if root is not None:
            j = GraphJet(desc.chart, n, 3, base, u, grad, hess, SymCubic(n, point + root * direction))
            return j if abs(residual(desc, j)) <= SOUNDNESS_TOL * residual_scale(desc, j) else None
        direction = rng.standard_normal(point.size)
    return None


def solve_on_line(f, bracket: float, npts: int = 65):
    """Scan f at npts points, one call each, then Brent on the first cell
    with a zero end or end values of opposite signs (a nan has no sign)."""
    ts = np.linspace(-bracket, bracket, npts)
    vals = [f(t) for t in ts]
    for k in range(npts - 1):
        a, b = vals[k], vals[k + 1]
        if a == 0.0:
            return float(ts[k])
        if a < 0.0 < b or b < 0.0 < a:
            return float(
                scipy.optimize.brentq(f, ts[k], ts[k + 1], xtol=1e-15, rtol=8.9e-16, maxiter=200)
            )
    if vals[-1] == 0.0:
        return float(ts[-1])
    return None


def sample_euclidean(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet | None:
    """A root along the last Hessian entry: from the residual at t = -50, 0,
    50 where it has degree <= 2 along it, else by the scan; then checked."""
    n = desc.geometry.n
    base = jet_scale * rng.standard_normal(n)
    u = jet_scale * rng.standard_normal()
    grad = jet_scale * rng.standard_normal(n)
    hess_entries = rng.standard_normal(n * (n + 1) // 2)

    def with_last(t):
        entries = hess_entries.copy()
        entries[-1] = t
        return GraphJet(desc.chart, n, 2, base, u, grad, SymMatrix(n, entries))

    def f(t):
        return residual(desc, with_last(t))

    degree = line_degree(desc.expr)
    if degree is not None and degree <= 2:
        root = verify._line_root(f(-50.0), f(0.0), f(50.0), 50.0, 50.0)
    else:
        root = solve_on_line(f, bracket=50.0)
    if root is None:
        return None
    j = with_last(root)
    if not abs(residual(desc, j)) <= SOUNDNESS_TOL * residual_scale(desc, j):
        return None
    return j


# -- per-sample invariance report ---------------------------------------------


def ratio_defect(l1: np.ndarray, l2: np.ndarray) -> float:
    s = np.linalg.norm(l1) * np.linalg.norm(l2)
    if s < 1e-12:
        return 0.0

    def cross(a, b):
        worst = 0.0
        for i in range(a.size):
            for k in range(i + 1, a.size):
                worst = max(worst, abs(a[i] * b[k] - a[k] * b[i]))
        return worst

    return min(cross(l1, l2), cross(l1, l2[::-1])) / s


def sample_on_zero_set(desc: PdeDescriptor, rng, jet_scale: float) -> GraphJet | None:
    name = desc.geometry.name
    if name == "conformal" and desc.expr == tauring(2):
        return sample_umbilic(desc, rng, jet_scale)
    if name in ("euclidean", "conformal"):
        return sample_euclidean(desc, rng, jet_scale)
    return sample_affine(desc, rng, jet_scale)


def invariance_report(desc: PdeDescriptor, cfg) -> Report:
    """The report one sample at a time: draw, element, prolong, residual."""
    tag = desc.geometry
    skipped = {k: 0 for k in SKIP_KINDS}
    max_defect = 0.0
    max_ratio = 0.0
    evaluated = 0
    for idx in range(cfg.count):
        rng = np.random.default_rng((cfg.seed, idx))
        j = sample_on_zero_set(desc, rng, cfg.jet_scale)
        if j is None:
            skipped["no_root"] += 1
            continue
        g = random_element(tag, (cfg.seed, idx, 1), cfg.scale)
        try:
            moved = prolong(g, j)
            value = residual(desc, moved)
        except tuple(SKIP_EXCEPTIONS) as exc:
            skipped[SKIP_EXCEPTIONS[type(exc)]] += 1
            continue
        evaluated += 1
        max_defect = max(max_defect, verify._defect(value, residual_scale(desc, moved)))
        if tag.name == "euclidean":
            max_ratio = max(
                max_ratio,
                ratio_defect(eigenvalues(j.grad, j.hess), eigenvalues(moved.grad, moved.hess)),
            )
    return Report(
        desc=desc.desc_id,
        seed=cfg.seed,
        attempted=cfg.count,
        evaluated=evaluated,
        skipped=skipped,
        max_defect=max_defect,
        max_ratio_defect=max_ratio,
        passed=verify._passed(max_defect, cfg.tol, evaluated, cfg.count),
    )

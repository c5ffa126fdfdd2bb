"""Object-level reference for the Taylor kernels and the prolongation.

These are the straightforward jet-by-jet routines the kernel layer of
:mod:`jetpde.taylor` replaced: every product of two jets goes through
``np.add.at`` over the multiplication table, every intermediate is a
:class:`TruncatedJet`, and ``prolong`` builds its germs term by term.
The tests assert that the kernels reproduce them bit for bit; they are
compared live, never against stored numbers, because LAPACK results may
differ in the last bit between builds.
"""

from __future__ import annotations

import math

import numpy as np

from jetpde.errors import ChartDomain, DivisionBySingular, NotGraph, SchemaMismatch, SingularJacobian
from jetpde.groups import CHART_DENOM_RTOL
from jetpde.jetspace import GraphJet, _exps
from jetpde.symtensor import SymCubic, SymMatrix, cubic_indices
from jetpde.taylor import (
    DIVISION_RTOL,
    SINGULAR_RTOL,
    TruncatedJet,
    _binom_shift,
    _mul_table,
    multi_indices,
    n_coeffs,
)


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
    center = np.array([g.const_term for g in inners])
    shifted = _binom_shift(outer, center)
    deltas = [g.truncate(order) - g.const_term for g in inners]
    powers = []
    for d in deltas:
        col = [TruncatedJet.constant(1.0, n, order)]
        for _ in range(order):
            col.append(mul(col[-1], d))
        powers.append(col)
    out = TruncatedJet.constant(0.0, n, order)
    for beta, c in zip(multi_indices(m, outer.order), shifted):
        if c == 0.0 or sum(beta) > order:
            continue
        term = TruncatedJet.constant(c, n, order)
        for i, bi in enumerate(beta):
            if bi:
                term = mul(term, powers[i][bi])
        out = out + term
    return out


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

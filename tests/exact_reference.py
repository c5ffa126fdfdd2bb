"""Exact prolongation in rational arithmetic: the oracle for float ``prolong``.

Every point map of the four geometries is rational in the chart
coordinates, and every float is an exact rational.  So the prolongation of
a float jet by a float group element has an exact answer: this module
computes it in :class:`fractions.Fraction`, with none of the float
routes.  A germ is a dict {multi-index: Fraction} of its nonzero
coefficients, truncated at a total degree.  The jet's germ is pushed
through the exact chart map of its geometry (a linear map plus shift, the
projective quotient, or the conformal lift and projection); the image of
the independent variables, less its base point, is inverted by the exact
fixed point ``g = J^-1 (x - high(f) o g)``, and the image of u is composed
with the inverse.  Meant for n <= 3 and order <= 3, where one call takes
milliseconds to a few tenths of a second.

:func:`prolong_error` compares a float moved jet with the exact one,
entry by entry, as |float - exact| / (1 + |exact|).
"""

from __future__ import annotations

import math
from fractions import Fraction

from jetpde.jetspace import _exps
from jetpde.symtensor import cubic_indices

ZERO = Fraction(0)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return _exps(n, (i,))


def const(c, n: int) -> dict:
    return {(0,) * n: Fraction(c)} if c else {}


def add(*ps) -> dict:
    out: dict = {}
    for p in ps:
        for a, c in p.items():
            out[a] = out.get(a, ZERO) + c
    return {a: c for a, c in out.items() if c}


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {a: c * x for a, x in p.items()} if c else {}


def mul(p: dict, q: dict, order: int) -> dict:
    out: dict = {}
    for a, x in p.items():
        da = sum(a)
        for b, y in q.items():
            if da + sum(b) <= order:
                ab = tuple(i + j for i, j in zip(a, b))
                out[ab] = out.get(ab, ZERO) + x * y
    return {a: c for a, c in out.items() if c}


def reciprocal(b: dict, n: int, order: int) -> dict:
    """1 / b as ``(1/b0) sum_k (-r)^k``, r = (b - b0) / b0; b0 must not be 0."""
    b0 = b.get((0,) * n, ZERO)
    if not b0:
        raise ZeroDivisionError("divisor with zero constant term")
    neg_r = scale({a: c for a, c in b.items() if any(a)}, -1 / b0)
    total, term = const(1, n), const(1, n)
    for _ in range(order):
        term = mul(term, neg_r, order)
        total = add(total, term)
    return scale(total, 1 / b0)


def linear(M, vec: list, n: int, off=None) -> list:
    """Rows ``off[i] + sum_j M[i][j] vec[j]`` for a float matrix M."""
    rows = []
    for i, row in enumerate(M):
        parts = [scale(v, Fraction(float(m))) for m, v in zip(row, vec)]
        if off is not None:
            parts.append(const(Fraction(float(off[i])), n))
        rows.append(add(*parts))
    return rows


def compose(outer: dict, inners: list, n: int, order: int) -> dict:
    """``outer(inners)`` for inner germs with zero constant terms."""
    powers = [[const(1, n)] for _ in inners]
    out: dict = {}
    for beta, c in outer.items():
        term = const(c, n)
        for i, e in enumerate(beta):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], inners[i], order))
            term = mul(term, powers[i][e], order)
        out = add(out, term)
    return out


def inverse_matrix(J: list) -> list:
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination;
    ZeroDivisionError if it is singular."""
    n = len(J)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(J)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular Jacobian")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def invert(fs: list, n: int, order: int) -> list:
    """The inverse germ g of the map germ fs (zero constant terms):
    ``g = J^-1 (x - high(f) o g)``, exact in one more degree per step."""
    J = [[f.get(_unit(n, j), ZERO) for j in range(n)] for f in fs]
    Jinv = inverse_matrix(J)
    coords = [{_unit(n, i): Fraction(1)} for i in range(n)]
    high = [{a: c for a, c in f.items() if sum(a) >= 2} for f in fs]
    g = [add(*(scale(x, Jinv[i][j]) for j, x in enumerate(coords))) for i in range(n)]
    for _ in range(order - 1):
        corr = [compose(h, g, n, order) for h in high]
        rhs = [add(coords[j], scale(corr[j], -1)) for j in range(n)]
        g = [add(*(scale(rhs[j], Jinv[i][j]) for j in range(n))) for i in range(n)]
    return g


def push(kind: str, mat, shift, comps: list, n: int, order: int) -> list:
    """The chart coordinates' germs pushed through the point map."""
    if kind in ("euclidean", "affine"):
        return linear(mat, comps, n, shift)
    one = const(1, n)
    if kind == "projective":
        out = linear(mat, comps + [one], n)
        inv = reciprocal(out[-1], n, order)
        return [mul(o, inv, order) for o in out[:-1]]
    m = add(*(mul(c, c, order) for c in comps))
    inv0 = reciprocal(add(m, const(4, n)), n, order)
    lifted = [one] + [mul(scale(c, 4), inv0, order) for c in comps] + [mul(add(const(4, n), scale(m, -1)), inv0, order)]
    out = linear(mat, lifted, n)
    inv = reciprocal(add(out[-1], out[0]), n, order)
    return [mul(scale(o, 2), inv, order) for o in out[1:-1]]


def jet_poly(j) -> dict:
    """The germ of a float graph jet at its base point, exactly."""
    n = j.n
    terms = [((0,) * n, j.u)] + [(_unit(n, i), j.grad[i]) for i in range(n)]
    if j.order >= 2:
        terms += [(_exps(n, (i, k)), j.hess[i, k]) for i in range(n) for k in range(i + 1)]
    if j.order >= 3:
        terms += [(_exps(n, ijk), j.cubic[ijk]) for ijk in cubic_indices(n)]
    return {a: Fraction(float(c)) / math.prod(math.factorial(e) for e in a) for a, c in terms if c}


def prolong(g, j) -> dict:
    """The exact moved jet, as {"base", "u", "grad", "hess", "cubic"}: lists
    of Fractions laid out as the fields of a GraphJet (hess its lower
    triangle by rows, cubic over ``cubic_indices``).  ZeroDivisionError
    where the image leaves the chart or is not a graph."""
    n, order = j.n, j.order
    comps = [jet_poly(j)] + [add({_unit(n, i): Fraction(1)}, const(Fraction(float(j.base[i])), n)) for i in range(n)]
    imgs = push(g.kind, g.mat, g.shift, comps, n, order)
    zero = (0,) * n
    base = [x.get(zero, ZERO) for x in imgs[1:]]
    deltas = [{a: c for a, c in x.items() if any(a)} for x in imgs[1:]]
    w = compose(imgs[0], invert(deltas, n, order), n, order)

    def entry(which):
        a = _exps(n, which)
        return w.get(a, ZERO) * math.prod(math.factorial(e) for e in a)

    out = {"base": base, "u": [w.get(zero, ZERO)], "grad": [entry((i,)) for i in range(n)]}
    if order >= 2:
        out["hess"] = [entry((i, k)) for i in range(n) for k in range(i + 1)]
    if order >= 3:
        out["cubic"] = [entry(ijk) for ijk in cubic_indices(n)]
    return out


def prolong_error(moved, exact: dict) -> float:
    """The largest |float - exact| / (1 + |exact|) over the moved jet's entries."""
    floats = {"base": moved.base, "u": [moved.u], "grad": moved.grad}
    if moved.hess is not None:
        floats["hess"] = moved.hess.data
    if moved.cubic is not None:
        floats["cubic"] = moved.cubic.data
    worst = 0.0
    for key, want in exact.items():
        for x, e in zip(floats[key], want):
            worst = max(worst, float(abs(Fraction(float(x)) - e) / (1 + abs(e))))
    return worst

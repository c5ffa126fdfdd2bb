"""Points of the jet spaces of hypersurface graphs, in a named chart.

A :class:`GraphJet` is a dumb coordinate record: base point, value,
gradient, Hessian and (at order 3) cubic coefficients of a graph
``u = f(x)``.  Charts are tags only; their geometric meaning lives in
:mod:`jetpde.groups`.  Germs exchanged with :mod:`jetpde.taylor` are in
local coordinates centered at the jet's base point.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DegreeMismatch, OrderUnderflow, SchemaMismatch
from .symtensor import SymCubic, SymMatrix, cubic_indices
from .taylor import (
    TruncatedJet,
    differentiate,
    index_position,
    linear_positions,
    multi_indices,
    n_coeffs,
)

CHARTS = ("euclidean", "affine", "projective_affine_chart", "sphere_stereographic")

# Central-difference steps for the total-derivative tangency diagnostic.
TANGENCY_STEPS = (1e-3, 5e-4)


@dataclasses.dataclass(frozen=True)
class GraphJet:
    """A point of J^k(n, M) in the chart ``chart``."""

    chart: str
    n: int
    order: int
    base: np.ndarray
    u: float
    grad: np.ndarray
    hess: SymMatrix | None = None
    cubic: SymCubic | None = None

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise SchemaMismatch(f"unknown chart {self.chart!r}")
        if self.order not in (1, 2, 3):
            raise SchemaMismatch(f"jet order must be 1, 2 or 3, got {self.order}")
        u = float(self.u)
        base = np.asarray(self.base, dtype=float).reshape(-1)
        grad = np.asarray(self.grad, dtype=float).reshape(-1)
        n = self.n
        if base.size != n or grad.size != n:
            raise SchemaMismatch("base/grad length differs from n")
        if (self.hess is not None) != (self.order >= 2):
            raise SchemaMismatch("hess must be present exactly when order >= 2")
        if (self.cubic is not None) != (self.order == 3):
            raise SchemaMismatch("cubic must be present exactly when order == 3")
        if self.hess is not None and self.hess.n != n:
            raise SchemaMismatch("hess dimension differs from n")
        if self.cubic is not None and self.cubic.n != n:
            raise SchemaMismatch("cubic dimension differs from n")
        # One fresh array holds base and grad, and is checked whole.
        data = np.concatenate([base, grad] + [t.data for t in (self.hess, self.cubic) if t is not None])
        if not (math.isfinite(u) and np.logical_and.reduce(np.isfinite(data))):
            raise SchemaMismatch("jet entries must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "base", data[:n])
        object.__setattr__(self, "grad", data[n : 2 * n])
        object.__setattr__(self, "u", u)

    def point(self) -> np.ndarray:
        """The underlying chart point (u, x^1, ..., x^n)."""
        return np.concatenate(([self.u], self.base))


@functools.lru_cache(maxsize=None)
def _slots(n: int) -> tuple[np.ndarray, ...]:
    """Taylor-table positions of the Hessian (lower triangle, row-major) and
    cubic (``cubic_indices`` order) entries, with their multi-index
    factorials: a derivative is its Taylor coefficient times the factorial.
    """
    pos = index_position(n, 3)
    hess = [_exps(n, (i, k)) for i in range(n) for k in range(i + 1)]
    cubic = [_exps(n, ijk) for ijk in cubic_indices(n)]

    def fact(alpha):
        return float(math.prod(math.factorial(a) for a in alpha))

    return (
        np.array([pos[a] for a in hess]), np.array([fact(a) for a in hess]),
        np.array([pos[a] for a in cubic]), np.array([fact(a) for a in cubic]),
    )


def jet_extend(germ: TruncatedJet, base, order: int, chart: str = "euclidean") -> GraphJet:
    """Jet of the graph of ``germ`` at ``base``.

    The germ is given in local coordinates centered at ``base``; its
    coefficients times the multinomial factorials are the derivatives
    recorded in the jet.
    """
    if germ.order < order:
        raise OrderUnderflow(f"germ order {germ.order} < requested {order}")
    n = germ.n_vars
    base = np.asarray(base, dtype=float).reshape(-1)
    hess = cubic = None
    if order >= 2:
        hess_pos, hess_fact, cubic_pos, cubic_fact = _slots(n)
        hess = SymMatrix(n, germ.coeffs[hess_pos] * hess_fact)
        if order >= 3:
            cubic = SymCubic(n, germ.coeffs[cubic_pos] * cubic_fact)
    return GraphJet(chart, n, order, base, germ.const_term, germ.linear_part(), hess, cubic)


def to_poly(j: GraphJet, order: int | None = None) -> TruncatedJet:
    """Polynomial germ (local at ``j.base``) reconstructing the jet."""
    if order is None:
        order = j.order
    n = j.n
    c = np.zeros(n_coeffs(n, order))
    if order < 1:
        raise OrderUnderflow(f"term {_exps(n, (0,))} exceeds order {order}")
    c[0] = j.u
    c[linear_positions(n)] = j.grad
    if j.order >= 2 and order >= 2:
        hess_pos, hess_fact, cubic_pos, cubic_fact = _slots(n)
        c[hess_pos] = j.hess.data / hess_fact
        if j.order >= 3 and order >= 3:
            c[cubic_pos] = j.cubic.data / cubic_fact
    return TruncatedJet(n, order, c)


def project(j: GraphJet, order: int) -> GraphJet:
    """Truncate the jet to a lower order (the projection pi_{l,m})."""
    if order > j.order:
        raise OrderUnderflow(f"cannot project order {j.order} up to {order}")
    if order == j.order:
        return j
    return GraphJet(
        j.chart, j.n, order, j.base, j.u, j.grad,
        j.hess if order >= 2 else None,
        j.cubic if order >= 3 else None,
    )


@dataclasses.dataclass(frozen=True)
class FiberVector:
    """Element of the vector space modeling a fiber of J^k -> J^{k-1}."""

    degree: int
    components: SymMatrix | SymCubic

    def __post_init__(self):
        want = SymMatrix if self.degree == 2 else SymCubic
        if self.degree not in (2, 3) or not isinstance(self.components, want):
            raise DegreeMismatch(f"degree {self.degree} incompatible with components")


def shift_fiber(j: GraphJet, v: FiberVector) -> GraphJet:
    """Add ``v`` to the top-order coefficients; lower data untouched."""
    if j.order < 2 or v.degree != j.order:
        raise DegreeMismatch(f"fiber degree {v.degree} vs jet order {j.order}")
    if v.components.n != j.n:
        raise DegreeMismatch("fiber dimension differs from n")
    if j.order == 2:
        return dataclasses.replace(j, hess=j.hess + v.components)
    return dataclasses.replace(j, cubic=j.cubic + v.components)


def tangency_check(germ: TruncatedJet, order: int, base=None) -> float:
    """Max defect of the total-derivative tangency of the jet extension.

    Builds the curve x -> (order-1)-jet of the germ at x, differentiates it
    numerically in each direction (central differences with Richardson
    extrapolation) and compares with the top coefficients of the
    order-jet.  A correct jet extension returns ~0; the value is purely
    diagnostic.
    """
    if germ.order < order:
        raise OrderUnderflow(f"germ order {germ.order} < requested {order}")
    n = germ.n_vars

    derivs: dict[tuple[int, ...], TruncatedJet] = {(0,) * n: germ}
    for deg in range(1, order + 1):
        for alpha in multi_indices(n, deg):
            if sum(alpha) != deg or tuple(alpha) in derivs:
                continue
            i = next(k for k, a in enumerate(alpha) if a > 0)
            lower = tuple(a - 1 if k == i else a for k, a in enumerate(alpha))
            derivs[tuple(alpha)] = differentiate(derivs[lower], i)

    defect = 0.0
    for alpha, jet_fn in derivs.items():
        if sum(alpha) > order - 1:
            continue
        for i in range(n):
            exact = derivs[tuple(a + 1 if k == i else a for k, a in enumerate(alpha))].const_term
            estimates = []
            for h in TANGENCY_STEPS:
                step = np.zeros(n)
                step[i] = h
                estimates.append((jet_fn(step) - jet_fn(-step)) / (2.0 * h))
            # Richardson: steps differ by 2, second-order scheme.
            refined = (4.0 * estimates[1] - estimates[0]) / 3.0
            defect = max(defect, abs(refined - exact))
    return defect


# -- JSON wire format ---------------------------------------------------------


def jet_to_json(j: GraphJet) -> dict:
    out = {
        "chart": j.chart,
        "n": j.n,
        "order": j.order,
        "base": [float(v) for v in j.base],
        "u": float(j.u),
        "grad": [float(v) for v in j.grad],
    }
    if j.order >= 2:
        out["hess_lower"] = [float(v) for v in j.hess.data]
    if j.order >= 3:
        out["cubic_lex"] = [float(v) for v in j.cubic.data]
    return out


def jet_from_json(d: dict) -> GraphJet:
    try:
        n = int(d["n"])
        order = int(d["order"])
        hess = SymMatrix(n, d["hess_lower"]) if order >= 2 else None
        cubic = SymCubic(n, d["cubic_lex"]) if order >= 3 else None
        return GraphJet(d["chart"], n, order, d["base"], d["u"], d["grad"], hess, cubic)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"bad jet record: {exc}") from exc


def _exps(n: int, which: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent tuple with one unit per entry of ``which`` (repeats add)."""
    out = [0] * n
    for i in which:
        out[i] += 1
    return tuple(out)

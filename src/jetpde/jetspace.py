"""Points of the jet spaces of hypersurface graphs, in a named chart.

A :class:`GraphJet` is a dumb coordinate record: base point, value,
gradient, Hessian and (at order 3) cubic coefficients of a graph
``u = f(x)``.  Charts are tags only, named in :mod:`jetpde.geometries`;
their geometric meaning lives in :mod:`jetpde.groups`.  Germs exchanged
with :mod:`jetpde.taylor` are in local coordinates centered at the jet's
base point.

A :class:`JetBatch` holds N such jets as arrays with the sample axis
first.  It is internal: the batched prolongation and residual run on it,
and :func:`to_poly`/:func:`jet_extend` gather on it at one sample, while
:class:`GraphJet` stays the public record.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DegreeMismatch, OrderUnderflow, SchemaMismatch, integer_field
from .geometries import CHARTS
from .symtensor import SymCubic, SymMatrix, cubic_indices
from .taylor import TruncatedJet, index_position


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


@dataclasses.dataclass(frozen=True)
class JetBatch:
    """N points of J^k(n, M) in the chart ``chart``, sample axis first.

    ``base`` (N, n), ``u`` (N,), ``grad`` (N, n), and at orders 2 and 3 the
    packed Hessians ``hess`` (N, n(n+1)/2) and cubics ``cubic``
    (N, C(n+2, 3)) in the storage orders of SymMatrix and SymCubic; n and
    the order are read off these arrays.  A batch holds finite entries:
    :meth:`of` takes checked jets, and :func:`extend_rows` keeps only the
    rows whose entries are finite.
    """

    chart: str
    base: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None = None
    cubic: np.ndarray | None = None

    @classmethod
    def of(cls, jets) -> "JetBatch":
        """The batch of the given jets, which share chart, n and order."""
        chart, n, order = jets[0].chart, jets[0].n, jets[0].order
        if any((j.chart, j.n, j.order) != (chart, n, order) for j in jets):
            raise SchemaMismatch("jets of one batch must share chart, n and order")
        return cls(
            chart, np.array([j.base for j in jets]), np.array([j.u for j in jets]),
            np.array([j.grad for j in jets]),
            np.array([j.hess.data for j in jets]) if order >= 2 else None,
            np.array([j.cubic.data for j in jets]) if order == 3 else None,
        )

    @property
    def n(self) -> int:
        return self.base.shape[1]

    @property
    def order(self) -> int:
        """1, 2 or 3, as ``hess`` and ``cubic`` are present."""
        return 1 if self.hess is None else 2 if self.cubic is None else 3

    def __len__(self) -> int:
        return len(self.u)

    def take(self, rows, hess: np.ndarray | None = None, cubic: np.ndarray | None = None) -> "JetBatch":
        """The batch of the given rows (indices, a slice or a mask), in order;
        with ``hess`` the jets over these rows' 1-jets with the given packed
        Hessians (order 2), and cubics (order 3)."""
        if hess is None:
            hess, cubic = (None if a is None else a[rows] for a in (self.hess, self.cubic))
        return JetBatch(self.chart, self.base[rows], self.u[rows], self.grad[rows], hess, cubic)

    def jet(self, i: int) -> GraphJet:
        n = self.n
        return GraphJet(
            self.chart, n, self.order, self.base[i], self.u[i], self.grad[i],
            None if self.hess is None else SymMatrix(n, self.hess[i]),
            None if self.cubic is None else SymCubic(n, self.cubic[i]),
        )


@functools.lru_cache(maxsize=None)
def _columns(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor-table positions of the entries of an order-``order`` jet (u,
    the gradient, the Hessian's lower triangle row-major, the cubic in
    ``cubic_indices`` order), with their multi-index factorials: an entry
    is its Taylor coefficient times the factorial.  The entries are every
    monomial once, so the positions are a permutation of the table; the
    third array is its inverse, the entry of each table position.
    """
    pos = index_position(n, order)
    alphas = [_exps(n, ())] + [_exps(n, (i,)) for i in range(n)]
    if order >= 2:
        alphas += [_exps(n, (i, k)) for i in range(n) for k in range(i + 1)]
    if order >= 3:
        alphas += [_exps(n, ijk) for ijk in cubic_indices(n)]
    cols = np.array([pos[a] for a in alphas])
    return cols, np.array([float(math.prod(math.factorial(e) for e in a)) for a in alphas]), np.argsort(cols)


def extend_rows(coeffs: np.ndarray, base: np.ndarray, order: int, chart: str) -> tuple[JetBatch, np.ndarray]:
    """The jets at ``base`` (N, n) of the graphs of the germs with
    coefficient rows ``coeffs`` (N, size), local at their base points: the
    coefficients times the multinomial factorials.  Returns the jets of the
    rows whose entries and base point are finite (an overflow is inf), and
    which rows those are, as a mask."""
    n = base.shape[1]
    pos, fact, _ = _columns(n, order)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = coeffs.take(pos, axis=1) * fact
    finite = np.isfinite(entries).all(axis=1) & np.isfinite(base).all(axis=1)
    if not finite.all():
        entries, base = entries[finite], base[finite]
    h = n + 1 + n * (n + 1) // 2
    return JetBatch(
        chart, base, entries[:, 0], entries[:, 1 : n + 1],
        entries[:, n + 1 : h] if order >= 2 else None, entries[:, h:] if order >= 3 else None,
    ), finite


def poly_rows(jets: JetBatch) -> np.ndarray:
    """Coefficient rows (N, size) of the germs (local at the base points)
    reconstructing the jets, at the jets' order."""
    n, order = jets.n, jets.order
    _, fact, entry = _columns(n, order)
    parts = [jets.u[:, None], jets.grad] + [jets.hess, jets.cubic][: order - 1]
    return (np.concatenate(parts, axis=1) / fact).take(entry, axis=1)


def jet_extend(germ: TruncatedJet, base, order: int, chart: str = "euclidean") -> GraphJet:
    """Jet of the graph of ``germ`` at ``base``.

    The germ is given in local coordinates centered at ``base``; its
    coefficients times the multinomial factorials are the derivatives
    recorded in the jet.
    """
    if germ.order < order:
        raise OrderUnderflow(f"germ order {germ.order} < requested {order}")
    if order not in (1, 2, 3):
        raise SchemaMismatch(f"jet order must be 1, 2 or 3, got {order}")
    base = np.asarray(base, dtype=float).reshape(1, -1)
    if base.shape[1] != germ.n_vars:
        raise SchemaMismatch("base/grad length differs from n")
    jets, finite = extend_rows(germ.coeffs[None], base, order, chart)
    if not finite[0]:
        raise SchemaMismatch("jet entries must be finite")
    return jets.jet(0)


def to_poly(j: GraphJet) -> TruncatedJet:
    """Polynomial germ (local at ``j.base``) reconstructing the jet."""
    return TruncatedJet(j.n, j.order, poly_rows(JetBatch.of([j]))[0])


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
        n = integer_field(d, "n")
        order = integer_field(d, "order")
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

"""Points of the jet spaces of hypersurface graphs, in a named chart.

A :class:`GraphJet` is a dumb coordinate record: base point, value,
gradient, Hessian and (at order 3) cubic coefficients of a graph
``u = f(x)``.  Charts are tags only; their geometric meaning lives in
:mod:`jetpde.groups`.  Germs exchanged with :mod:`jetpde.taylor` are in
local coordinates centered at the jet's base point.

A :class:`JetBatch` holds N such jets as arrays with the sample axis
first.  It is internal: the batched prolongation and residual run on it,
and :func:`to_poly`/:func:`jet_extend` gather on it at one sample, while
:class:`GraphJet` stays the public record.  Values that depend on the
1-jets alone (the chart metric) are computed once on the whole batch that
:meth:`JetBatch.take` started from and gathered for every batch taken
from it (:meth:`JetBatch.per_row`).
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


@dataclasses.dataclass(frozen=True)
class JetBatch:
    """N points of J^k(n, M) in the chart ``chart``, sample axis first.

    ``base`` (N, n), ``u`` (N,), ``grad`` (N, n), and at orders 2 and 3 the
    packed Hessians ``hess`` (N, n(n+1)/2) and cubics ``cubic``
    (N, C(n+2, 3)) in the storage orders of SymMatrix and SymCubic.  A
    batch holds finite entries: :meth:`of` takes checked jets, and
    :func:`extend_rows` checks the whole batch it makes at once.
    """

    chart: str
    n: int
    order: int
    base: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None = None
    cubic: np.ndarray | None = None
    # per_row's cache: a batch made by take() holds the batch take() started
    # from and its rows there (an index of any kind take() accepts); that
    # source holds the values
    _source: JetBatch | None = dataclasses.field(default=None, kw_only=True, repr=False, compare=False)
    _rows: object = dataclasses.field(default=None, kw_only=True, repr=False, compare=False)
    _kept: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, jets) -> "JetBatch":
        """The batch of the given jets, which share chart, n and order."""
        chart, n, order = jets[0].chart, jets[0].n, jets[0].order
        if any((j.chart, j.n, j.order) != (chart, n, order) for j in jets):
            raise SchemaMismatch("jets of one batch must share chart, n and order")
        return cls(
            chart, n, order, np.array([j.base for j in jets]), np.array([j.u for j in jets]),
            np.array([j.grad for j in jets]),
            np.array([j.hess.data for j in jets]) if order >= 2 else None,
            np.array([j.cubic.data for j in jets]) if order == 3 else None,
        )

    def __len__(self) -> int:
        return len(self.u)

    def take(self, rows, hess: np.ndarray | None = None, cubic: np.ndarray | None = None) -> "JetBatch":
        """The batch of the given rows (indices, a slice or a mask), in order;
        with ``hess`` the jets over these rows' 1-jets with the given packed
        Hessians (order 2), and cubics (order 3)."""
        if hess is None:
            order = self.order
            hess, cubic = (None if a is None else a[rows] for a in (self.hess, self.cubic))
        else:
            order = 2 if cubic is None else 3
        if self._source is None:
            source, index = self, rows
        else:  # the rows of rows, as indices into the source
            source, index = self._source, np.arange(len(self._source))[self._rows][rows]
        return JetBatch(
            self.chart, self.n, order, self.base[rows], self.u[rows], self.grad[rows], hess, cubic,
            _source=source, _rows=index,
        )

    def per_row(self, name: str, compute) -> tuple:
        """``compute(jets)`` at this batch's rows.  ``compute`` maps a batch
        to a tuple of arrays with one row per jet, each row a function of
        that jet's 1-jet alone.  It runs once per ``name`` on the whole
        source, the batch that :meth:`take` started from, the first time
        the source or any batch taken from it asks; the source keeps its
        arrays, read-only, and every later ask gathers this batch's rows
        of them (the source gets the arrays themselves)."""
        source = self if self._source is None else self._source
        values = source._kept.get(name)
        if values is None:
            values = source._kept[name] = compute(source)
            for v in values:
                v.flags.writeable = False
        return values if self._source is None else tuple(v[self._rows] for v in values)

    def jet(self, i: int) -> GraphJet:
        n = self.n
        return GraphJet(
            self.chart, n, self.order, self.base[i], self.u[i], self.grad[i],
            None if self.hess is None else SymMatrix(n, self.hess[i]),
            None if self.cubic is None else SymCubic(n, self.cubic[i]),
        )


@functools.lru_cache(maxsize=None)
def _columns(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor-table positions of the entries of an order-``order`` jet (u,
    the gradient, the Hessian's lower triangle row-major, the cubic in
    ``cubic_indices`` order), with their multi-index factorials: an entry
    is its Taylor coefficient times the factorial.
    """
    pos = index_position(n, order)
    alphas = [_exps(n, ())] + [_exps(n, (i,)) for i in range(n)]
    if order >= 2:
        alphas += [_exps(n, (i, k)) for i in range(n) for k in range(i + 1)]
    if order >= 3:
        alphas += [_exps(n, ijk) for ijk in cubic_indices(n)]
    return (
        np.array([pos[a] for a in alphas]),
        np.array([float(math.prod(math.factorial(e) for e in a)) for a in alphas]),
    )


def extend_rows(coeffs: np.ndarray, base: np.ndarray, order: int, chart: str) -> JetBatch:
    """The jets at ``base`` (N, n) of the graphs of the germs with
    coefficient rows ``coeffs`` (N, size), local at their base points: the
    coefficients times the multinomial factorials."""
    n = base.shape[1]
    pos, fact = _columns(n, order)
    entries = coeffs[:, pos] * fact
    if not (np.isfinite(entries).all() and np.isfinite(base).all()):
        raise SchemaMismatch("jet entries must be finite")
    h = n + 1 + n * (n + 1) // 2
    return JetBatch(
        chart, n, order, base, entries[:, 0], entries[:, 1 : n + 1],
        entries[:, n + 1 : h] if order >= 2 else None, entries[:, h:] if order >= 3 else None,
    )


def poly_rows(jets: JetBatch, order: int) -> np.ndarray:
    """Coefficient rows (N, size) of the germs (local at the base points)
    reconstructing the jets, at the given order >= 1."""
    k = min(order, jets.order)
    pos, fact = _columns(jets.n, k)
    parts = [jets.u[:, None], jets.grad] + [jets.hess, jets.cubic][: k - 1]
    c = np.zeros((len(jets), n_coeffs(jets.n, order)))
    c[:, pos] = np.concatenate(parts, axis=1) / fact
    return c


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
    return extend_rows(germ.coeffs[None], base, order, chart).jet(0)


def to_poly(j: GraphJet, order: int | None = None) -> TruncatedJet:
    """Polynomial germ (local at ``j.base``) reconstructing the jet."""
    if order is None:
        order = j.order
    if order < 1:
        raise OrderUnderflow(f"term {_exps(j.n, (0,))} exceeds order {order}")
    return TruncatedJet(j.n, order, poly_rows(JetBatch.of([j]), order)[0])


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

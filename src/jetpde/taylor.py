"""Truncated multivariate Taylor-series arithmetic.

A :class:`TruncatedJet` holds the coefficients of a polynomial germ in
``n_vars`` variables, truncated at a fixed total degree ``order``.  A
multi-index is a plain tuple of non-negative exponents; coefficients are
stored densely in a float64 array over the graded-lexicographic table
returned by :func:`multi_indices`, so the coefficients of degree <= k form
the same prefix at every order >= k.  The caps ``n_vars <= 8``,
``order <= 4`` keep every table below 495 entries.

The arithmetic is a layer of kernels on raw coefficient arrays, one jet
per row, with a leading batch axis of samples: :func:`mul_rows`,
:func:`divide_rows`, :func:`linear_rows`, :func:`compose_rows` and
:func:`invert_rows`.  Their index work is done once per shape and cached:
gathers are ``take`` calls on cached index arrays, sums are one
``bincount`` over a read-only bin table that later calls slice, and
composition follows one term plan per (m, order).  :class:`TruncatedJet`
and the module-level functions are the public boundary over the kernels
and call them at one sample; :mod:`jetpde.groups` prolongs whole batches
on arrays.

The rule of the kernel layer: every floating-point operation keeps its
operands and its order (products summed in ``_mul_table`` order, terms in
multi-index order, linear combinations in column order).  An operation is
left out only where that is exact for finite data, e.g. adding a zero
product to a sum that starts at +0.0; a term that is not wanted is masked
to -0.0, which adds exactly nothing to any sum.  Results are therefore bit
for bit those of plain jet-by-jet arithmetic.  The batch axis keeps the
rule: each sample's rows see the same operations as a batch of one,
reductions run per row through the same BLAS/LAPACK call
(:func:`sumsq_rows`, stacked ``det``/``inv``), powers go through Python's
``float.__pow__`` (:func:`pow_rows`), and a sample that fails a test (a
singular Jacobian, a divisor too close to zero) is reported for its row,
which computes a placeholder (the identity germ, the unit divisor).

The coefficient of the multi-index ``alpha`` is the Taylor coefficient,
i.e. the partial derivative divided by ``alpha!``.  All operations are
pure and return new jets; instances are never mutated after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionBySingular,
    OrderUnderflow,
    SingularJacobian,
)

MAX_VARS = 8
MAX_ORDER = 4

# |det J| below SINGULAR_RTOL * scale(J)**n means "not invertible".
SINGULAR_RTOL = 1e-10
# |b(0)| below DIVISION_RTOL * max(1, |b|_inf) means "not divisible".
DIVISION_RTOL = 1e-12


def _compositions(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def multi_indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples with total degree <= order, graded lexicographic."""
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        out.extend(sorted(_compositions(deg, n)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def index_position(n: int, order: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(multi_indices(n, order))}


@functools.lru_cache(maxsize=None)
def n_coeffs(n: int, order: int) -> int:
    return math.comb(n + order, order)


@functools.lru_cache(maxsize=None)
def linear_positions(n: int) -> np.ndarray:
    """Table positions of the coordinate monomials x^0, ..., x^{n-1}: the
    graded lexicographic table holds x^i at position n - i."""
    pos = index_position(n, 1)
    return np.array([pos[tuple(1 if k == i else 0 for k in range(n))] for i in range(n)])


@functools.lru_cache(maxsize=None)
def _mul_table(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples (ia, ib, iout) of all products that survive truncation."""
    idx = multi_indices(n, order)
    pos = index_position(n, order)
    ia, ib, iout = [], [], []
    for i, alpha in enumerate(idx):
        da = sum(alpha)
        for j, beta in enumerate(idx):
            if da + sum(beta) > order:
                continue
            ia.append(i)
            ib.append(j)
            iout.append(pos[tuple(a + b for a, b in zip(alpha, beta))])
    return (np.asarray(ia), np.asarray(ib), np.asarray(iout))


@functools.lru_cache(maxsize=None)
def _compose_plan(m: int, order: int, low: int) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """The term plan of :func:`compose_rows` for outer germs in m variables
    with no terms of degree below ``low``.

    The monomials from the first of degree ``low`` on are laid out with
    those of more factors first, in multi-index order otherwise, so that
    the monomials with more than s factors are a prefix.  Returns (cols,
    first, later, back): the table positions of the monomials in that
    layout, the power-table rows ``power * m + var`` of their first
    factors, per later factor stage s = 1, 2, ... the length of that
    prefix with the rows of its s-th factors, variables increasing, and
    the layout position of each monomial in multi-index order.  The
    constant monomial's one factor is row 0, the constant germ 1.
    """
    start = n_coeffs(m, low - 1) if low else 0
    factors = [[e * m + i for i, e in enumerate(beta) if e] or [0] for beta in multi_indices(m, order)[start:]]
    layout = sorted(range(len(factors)), key=lambda b: -len(factors[b]))
    stages = [np.array([factors[b][s] for b in layout if len(factors[b]) > s]) for s in range(len(factors[layout[0]]))]
    cols, back = start + np.array(layout), np.argsort(layout)
    for a in (cols, back, *stages):
        a.setflags(write=False)
    return cols, stages[0], tuple((rows.size, rows) for rows in stages[1:]), back


# -- kernels on coefficient arrays -------------------------------------------


def sumsq_rows(x: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself over the last axis, one BLAS
    ``ddot`` per row.

    Bitwise ``float(x[i] @ x[i])`` for a contiguous row; a numpy sum over
    the axis is not.  The rows are made contiguous first: ``ddot`` takes
    another route for strided vectors.
    """
    x = np.ascontiguousarray(x)
    return x @ x if x.ndim == 1 else (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def norm_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row over the last axis: bitwise
    ``np.linalg.norm`` of the row (or of a C-ordered tensor flattened to it)."""
    return np.sqrt(sumsq_rows(x))


def _float_power(v: float, k):
    try:
        return v**k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 == 1 else math.inf


def pow_rows(x, k) -> np.ndarray:
    """``v ** k`` for every entry by Python's float power (libm ``pow``),
    which numpy's array ``**`` does not always match in the last bit.
    Where the float power overflows, the entry is inf, signed as ``v`` for
    an odd integer ``k``."""
    x = np.asarray(x, dtype=float)
    try:  # the builtin power on every entry, unless one overflows
        out = np.fromiter(map(pow, x.ravel().tolist(), itertools.repeat(k)), float, x.size)
    except OverflowError:
        out = np.array([_float_power(v, k) for v in x.ravel().tolist()])
    return out.reshape(x.shape)


class _Bins:
    """Output bins of weights laid out in rows of ``pattern``: row r's
    weights go to ``pattern + stride * r``.  Calls slice one read-only
    table, which doubles in rows whenever a batch outgrows it."""

    def __init__(self, pattern: np.ndarray, stride: int):
        self.pattern, self.stride, self.table = pattern, stride, pattern[:0]

    def __call__(self, rows: int) -> np.ndarray:
        width = self.pattern.size
        if self.table.size < rows * width:
            held = self.table.size // width
            table = (self.pattern + self.stride * np.arange(max(rows, 2 * held))[:, None]).ravel()
            table.setflags(write=False)
            self.table = table
        return self.table[: rows * width]


@functools.lru_cache(maxsize=None)
def _mul_plan(n: int, order: int) -> tuple[np.ndarray, np.ndarray, int, _Bins]:
    """(ia, ib, size, bins) of :func:`mul_rows`: the gathers and the output
    bins of the products of ``_mul_table``."""
    ia, ib, iout = _mul_table(n, order)
    size = n_coeffs(n, order)
    return ia, ib, size, _Bins(iout, size)


@functools.lru_cache(maxsize=None)
def _sum_bins(terms: int, size: int) -> _Bins:
    """The bins that add the ``terms`` coefficient vectors of each row, in order."""
    return _Bins(np.tile(np.arange(size), terms), size)


@functools.lru_cache(maxsize=None)
def coordinate_rows(n: int, order: int) -> np.ndarray:
    """Coefficient rows (n, size) of the coordinate germs x^0, ..., x^{n-1}, read-only."""
    out = np.zeros((n, n_coeffs(n, order)))
    out[np.arange(n), linear_positions(n)] = 1.0
    out.setflags(write=False)
    return out


def mul_rows(a: np.ndarray, b: np.ndarray, n: int, order: int) -> np.ndarray:
    """Cauchy products of coefficient vectors over any leading shape
    (``b`` broadcasts to ``a``'s).

    Each output coefficient is 0.0 plus its products in ``_mul_table``
    order, the order ``np.add.at`` accumulates them in.
    """
    ia, ib, size, bins = _mul_plan(n, order)
    w = a.take(ia, axis=-1)
    w *= b.take(ib, axis=-1)
    lead = w.shape[:-1]
    rows = math.prod(lead)
    return np.bincount(bins(rows), weights=w.ravel(), minlength=rows * size).reshape(lead + (size,))


def divide_rows(a: np.ndarray, b: np.ndarray, n: int, order: int) -> tuple[np.ndarray, dict]:
    """``a / b`` for N samples: ``b`` holds one divisor per sample (N, size),
    ``a`` one vector (N, size) or rows (N, r, size) per sample.

    ``a`` times the series ``1 - r + r^2 - ...`` of ``r = (b - b(0)) / b(0)``,
    times ``1 / b(0)``.  Returns one quotient per sample, and
    ``{sample: DivisionBySingular}`` for the samples whose divisor fails the
    test: their quotient is ``a``, by the unit divisor put in its place.
    """
    scale = np.fmax(1.0, np.abs(b).max(axis=-1))
    bad = np.abs(b[:, 0]) < DIVISION_RTOL * scale
    errors = {}
    if bad.any():
        errors = {i: DivisionBySingular(f"|b(0)|={abs(b[i, 0]):.3e} below {DIVISION_RTOL * scale[i]:.3e}")
                  for i in np.flatnonzero(bad).tolist()}
        b = np.where(bad[:, None], np.eye(1, b.shape[-1]), b)
    b0 = b[:, 0]
    s = 1.0 / b0
    r = b.copy()
    r[:, 0] += -b0
    neg_r = -(r * s[:, None])
    inv = np.zeros_like(r)
    inv[:, 0] = 1.0
    term = inv
    for _ in range(order):
        term = mul_rows(term, neg_r, n, order)
        inv = inv + term
    per_sample = (len(b),) + (1,) * (a.ndim - 2)
    return mul_rows(a, inv.reshape(per_sample + inv.shape[-1:]), n, order) * s.reshape(per_sample + (1,)), errors


def linear_rows(M: np.ndarray, V: np.ndarray, off=None) -> np.ndarray:
    """Rows ``off[..., i] + sum_j M[..., i, j] V[..., j]``, added in column
    order, over any leading shape (``V`` (c, size) may be shared).

    Terms with ``M[..., i, j] == 0`` are skipped: they become -0.0, which
    leaves every sum bit for bit as it was.
    """
    P = M[..., :, :, None] * V[..., None, :, :]
    np.copyto(P, -0.0, where=(M == 0.0)[..., None])
    out = np.zeros(P.shape[:-2] + P.shape[-1:])
    if off is not None:
        out[..., 0] = off
    for j in range(M.shape[-1]):
        out += P[..., j, :]
    return out


def compose_rows(C: np.ndarray, D: np.ndarray, n: int, order: int, low: int = 0) -> np.ndarray:
    """Rows ``C[s, k](D[s, 0], ..., D[s, m-1])`` of N samples ``s`` for inner
    germs with zero constant terms.

    ``C`` (N, R, K) holds R outer germs per sample, over the m variables of
    the sample's inner germs ``D`` (N, m, size) and of order >= ``order``,
    expanded about the origin, with no terms of degree below ``low``: those
    monomials are left out of the plan.  Each term is its coefficient times the
    inner powers of its monomial, multiplied in increasing variable order;
    the terms of a row are added in multi-index order to 0.0.  Every term
    of the plan is computed, laid out (N, R, M, size), and the terms of
    zero outer coefficients become -0.0 after the products, which adds
    exactly nothing, so an inf or nan inner entry reaches no sum through
    them.
    """
    N, R = C.shape[:2]
    m = D.shape[1]
    size = n_coeffs(n, order)
    cols, first, later, back = _compose_plan(m, order, low)
    # powers[s, p * m + i] is inner germ i of sample s to the power p
    powers = np.empty((N, order + 1, m, size))
    if not low:  # no term of the plan reads power 0 otherwise
        powers[:, 0] = 0.0
        powers[:, 0, :, 0] = 1.0
    if order >= 1:
        powers[:, 1] = D
    for p in range(2, order + 1):
        powers[:, p] = mul_rows(powers[:, p - 1], D, n, order)
    powers = powers.reshape(N, (order + 1) * m, size)
    outer = C.take(cols, axis=2)
    terms = outer[..., None] * powers.take(first, axis=1)[:, None]
    for k, rows in later:
        terms[:, :, :k] = mul_rows(terms[:, :, :k], powers.take(rows, axis=1)[:, None], n, order)
    np.copyto(terms, -0.0, where=(outer == 0.0)[..., None])
    weights = terms.take(back, axis=2).ravel()  # in multi-index order
    return np.bincount(_sum_bins(cols.size, size)(N * R), weights=weights, minlength=N * R * size).reshape(N, R, size)


def invert_rows(F: np.ndarray, n: int, order: int) -> tuple[np.ndarray, dict]:
    """Compositional inverses of N map germs with coefficient rows ``F``.

    ``F`` (N, n, size) holds n rows over n variables with zero constant
    terms per sample; each inverse is the fixed point of
    ``g = J^-1 (x - high(g))``, iterated from ``J^-1 x`` at growing order:
    ``high(g)`` in degree k reads only g's degrees below k, so step
    k = 2, ..., order runs at order k on the rows' degrees up to k and
    fixes them, bit for bit as a full-order step would.
    Returns one inverse per sample, and ``{sample: SingularJacobian}`` for
    the samples whose Jacobian fails the test: their inverse is the
    identity germ, inverted in their place.
    """
    lin = slice(n, 0, -1)  # the positions linear_positions(n) of x^0, ..., x^{n-1}
    J = F[..., lin] if order >= 1 else np.zeros(F.shape[:1] + (n, n))
    with np.errstate(over="ignore"):  # an overflow is inf, which the test below reads
        det = np.linalg.det(J).tolist()
        scale = (norm_rows(J.reshape(-1, n * n)) / math.sqrt(n)).tolist()
    errors = {
        i: SingularJacobian(f"|det J|={abs(d):.3e}, scale={s:.3e}")
        for i, (d, s) in enumerate(zip(det, scale))
        if d == 0.0 or abs(d) < SINGULAR_RTOL * _float_power(s, n)
    }
    if errors:
        F, J = F.copy(), J.copy()
        F[list(errors)] = 0.0
        J[list(errors)] = np.eye(n)
    Jinv = np.linalg.inv(J)
    coords = coordinate_rows(n, order)
    # high(g) composes F's terms of degree 2 and up, and J^-1 x is written
    # directly: for finite J the linear rows give exactly F - J x and J^-1 x,
    # up to the sign of zeros, which neither compose_rows (F - J x has no
    # terms below degree 2) nor the sums after it can see.
    g = np.zeros(F.shape)
    g[..., lin] = Jinv + 0.0
    for k in range(2, order + 1):
        s = n_coeffs(n, k)
        g[..., :s] = linear_rows(Jinv, coords[:, :s] - compose_rows(F[..., :s], g[..., :s], n, k, low=2))
    return g, errors


# -- jets ----------------------------------------------------------------------


class TruncatedJet:
    """Polynomial germ truncated at a total degree.

    Parameters
    ----------
    n_vars : int
        Number of variables, between 1 and 8.
    order : int
        Truncation order, between 0 and 4.
    coeffs : array_like, optional
        Dense coefficient vector over ``multi_indices(n_vars, order)``.
        Defaults to the zero germ.
    """

    __slots__ = ("n_vars", "order", "coeffs")

    def __init__(self, n_vars: int, order: int, coeffs=None):
        if not 1 <= n_vars <= MAX_VARS:
            raise DimensionMismatch(f"n_vars={n_vars} outside [1, {MAX_VARS}]")
        if not 0 <= order <= MAX_ORDER:
            raise OrderUnderflow(f"order={order} outside [0, {MAX_ORDER}]")
        size = n_coeffs(n_vars, order)
        if coeffs is None:
            data = np.zeros(size)
        else:
            data = np.array(coeffs, dtype=float).reshape(-1)
            if data.size != size:
                raise DimensionMismatch(
                    f"expected {size} coefficients for n={n_vars}, order={order}, "
                    f"got {data.size}"
                )
        data.setflags(write=False)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", data)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedJet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, n_vars: int, order: int) -> "TruncatedJet":
        c = np.zeros(n_coeffs(n_vars, order))
        c[0] = value
        return cls(n_vars, order, c)

    @classmethod
    def coordinate(cls, i: int, n_vars: int, order: int) -> "TruncatedJet":
        """The germ of the i-th coordinate function (0-based)."""
        if order < 1:
            raise OrderUnderflow("coordinate germ needs order >= 1")
        c = np.zeros(n_coeffs(n_vars, order))
        e = tuple(1 if k == i else 0 for k in range(n_vars))
        c[index_position(n_vars, order)[e]] = 1.0
        return cls(n_vars, order, c)

    @classmethod
    def from_terms(cls, terms: dict, n_vars: int, order: int) -> "TruncatedJet":
        c = np.zeros(n_coeffs(n_vars, order))
        pos = index_position(n_vars, order)
        for alpha, value in terms.items():
            alpha = tuple(alpha)
            if sum(alpha) > order:
                raise OrderUnderflow(f"term {alpha} exceeds order {order}")
            c[pos[alpha]] = value
        return cls(n_vars, order, c)

    # -- accessors ---------------------------------------------------------

    @property
    def const_term(self) -> float:
        return float(self.coeffs[0])

    def coeff(self, alpha: Iterable[int]) -> float:
        return float(self.coeffs[index_position(self.n_vars, self.order)[tuple(alpha)]])

    def linear_part(self) -> np.ndarray:
        """Gradient of the germ at its base point."""
        if self.order < 1:
            return np.zeros(self.n_vars)
        return self.coeffs[linear_positions(self.n_vars)]

    def truncate(self, order: int) -> "TruncatedJet":
        if order > self.order:
            raise OrderUnderflow(f"cannot raise order {self.order} -> {order}")
        if order == self.order:
            return self
        return TruncatedJet(self.n_vars, order, self.coeffs[: n_coeffs(self.n_vars, order)])

    def __call__(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=float)
        total = 0.0
        for alpha, c in zip(multi_indices(self.n_vars, self.order), self.coeffs):
            if c == 0.0:
                continue
            total += c * math.prod(point[i] ** a for i, a in enumerate(alpha) if a)
        return total

    def __repr__(self):
        return f"TruncatedJet(n={self.n_vars}, order={self.order}, coeffs={self.coeffs})"

    # -- arithmetic --------------------------------------------------------

    def _check_vars(self, other: "TruncatedJet"):
        if self.n_vars != other.n_vars:
            raise DimensionMismatch(
                f"jets over {self.n_vars} and {other.n_vars} variables"
            )

    def _common(self, other: "TruncatedJet"):
        """(order, own coefficients, other's coefficients) at the lower order."""
        self._check_vars(other)
        order = min(self.order, other.order)
        size = n_coeffs(self.n_vars, order)
        return order, self.coeffs[:size], other.coeffs[:size]

    def __add__(self, other):
        if np.isscalar(other):
            c = self.coeffs.copy()
            c[0] += other
            return TruncatedJet(self.n_vars, self.order, c)
        order, a, b = self._common(other)
        return TruncatedJet(self.n_vars, order, a + b)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedJet(self.n_vars, self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedJet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncatedJet(self.n_vars, self.order, self.coeffs * other)
        order, a, b = self._common(other)
        return TruncatedJet(self.n_vars, order, mul_rows(a, b, self.n_vars, order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return self * (1.0 / other)
        return divide(self, other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative jet powers go through divide()")
        out = TruncatedJet.constant(1.0, self.n_vars, self.order)
        for _ in range(k):
            out = out * self
        return out

    def allclose(self, other: "TruncatedJet", tol: float = 1e-12) -> bool:
        order = min(self.order, other.order)
        return bool(
            np.all(
                np.abs(self.truncate(order).coeffs - other.truncate(order).coeffs)
                <= tol
            )
        )


# -- module-level operations ------------------------------------------------


def add(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    """Coefficientwise sum, truncated to the lower of the two orders."""
    return a + b


def mul(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    """Cauchy product, indices above the common order discarded."""
    return a * b


def differentiate(a: TruncatedJet, i: int) -> TruncatedJet:
    """Formal partial derivative with respect to variable ``i`` (0-based)."""
    if a.order < 1:
        raise OrderUnderflow("cannot differentiate an order-0 jet")
    n, order = a.n_vars, a.order
    out = np.zeros(n_coeffs(n, order - 1))
    pos = index_position(n, order - 1)
    for alpha, c in zip(multi_indices(n, order), a.coeffs):
        if alpha[i] == 0 or c == 0.0:
            continue
        beta = tuple(e - 1 if k == i else e for k, e in enumerate(alpha))
        out[pos[beta]] += c * alpha[i]
    return TruncatedJet(n, order - 1, out)


def divide(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    """``a * b**-1`` with the reciprocal expanded as a geometric series."""
    order, num, den = a._common(b)
    q, errors = divide_rows(num[None], den[None], a.n_vars, order)
    if errors:
        raise errors[0]
    return TruncatedJet(a.n_vars, order, q[0])


def _binom_shift(outer: TruncatedJet, center: np.ndarray) -> np.ndarray:
    """Coefficients of ``outer`` re-expanded around ``center`` (exact algebra)."""
    m, order = outer.n_vars, outer.order
    idx = multi_indices(m, order)
    pos = index_position(m, order)
    out = np.zeros_like(outer.coeffs)
    for alpha, c in zip(idx, outer.coeffs):
        if c == 0.0:
            continue
        for beta in multi_indices(m, sum(alpha)):
            if any(b > a for a, b in zip(alpha, beta)):
                continue
            w = c
            for ai, bi, ci in zip(alpha, beta, center):
                if ai > bi:
                    w *= math.comb(ai, bi) * ci ** (ai - bi)
            out[pos[beta]] += w
    return out


def compose(
    outer: TruncatedJet,
    inners: Sequence[TruncatedJet] | TruncatedJet,
    order: int | None = None,
) -> TruncatedJet:
    """Taylor coefficients of ``outer(inner_1, ..., inner_m)``.

    ``outer`` is re-expanded around the inner germs' constant terms before
    substitution, so callers may hold jets at arbitrary base points.
    """
    if isinstance(inners, TruncatedJet):
        inners = [inners]
    m = outer.n_vars
    if len(inners) != m:
        raise DimensionMismatch(f"outer has {m} variables, got {len(inners)} inner germs")
    n = inners[0].n_vars
    for g in inners:
        if g.n_vars != n:
            raise DimensionMismatch("inner germs over differing variable counts")
    native = min(outer.order, min(g.order for g in inners))
    if order is None:
        order = native
    elif order > native:
        raise OrderUnderflow(f"requested order {order} exceeds available {native}")

    size = n_coeffs(n, order)
    D = np.array([g.coeffs[:size] for g in inners])
    center = D[:, 0].copy()
    # About a zero center the re-expansion changes no nonzero coefficient.
    shifted = _binom_shift(outer, center) if np.any(center != 0.0) else outer.coeffs
    D[:, 0] += -center
    return TruncatedJet(n, order, compose_rows(shifted[None, None, :], D[None], n, order)[0, 0])


def compose_map(
    outers: Sequence[TruncatedJet], inners: Sequence[TruncatedJet]
) -> list[TruncatedJet]:
    return [compose(f, inners) for f in outers]


def invert_map(fs: Sequence[TruncatedJet]) -> list[TruncatedJet]:
    """Compositional inverse of a map germ fixing the origin.

    ``fs`` must be ``n`` jets over ``n`` variables with zero constant term
    and invertible linear part; the result ``g`` satisfies
    ``compose(f, g) = id`` and ``compose(g, f) = id`` to the working order.
    """
    n = len(fs)
    if not n:
        raise DimensionMismatch("invert_map needs as many germs as variables, at least one")
    order = min(f.order for f in fs)
    for f in fs:
        if f.n_vars != n:
            raise DimensionMismatch("invert_map needs as many germs as variables")
        if f.const_term != 0.0:
            raise ValueError("invert_map requires zero constant terms")
    size = n_coeffs(n, order)
    F = np.array([f.coeffs[:size] for f in fs])
    g, errors = invert_rows(F[None], n, order)
    if errors:
        raise errors[0]
    return [TruncatedJet(n, order, row) for row in g[0]]

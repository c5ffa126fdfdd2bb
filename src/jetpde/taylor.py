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
:func:`regraph_rows`.  Their index work is done once per shape and
cached: gathers are ``take`` calls on cached index arrays, sums are one
``bincount`` over a read-only bin table that later calls slice, and the
monomial germs of a composition follow one plan per (m, order).
:class:`TruncatedJet` and the module-level functions are the public
boundary over the kernels and call them at one sample; :mod:`jetpde.groups`
prolongs whole batches on arrays.  :func:`compose` goes through
:func:`compose_rows`, at any inner constant terms.
:func:`regraph_rows` solves ``w o F = U`` for w degree by degree, on the
same monomial germs of F and the symmetric powers of the inverse
Jacobian: :func:`invert_map` is that solve for ``U = x``, and the
prolongation is that solve for the image of u.

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


def _is_int(i) -> bool:
    """An integer that is not a bool: ``True`` is not the index 1."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _check_var(i: int, n: int) -> None:
    if not (_is_int(i) and 0 <= i < n):
        raise DimensionMismatch(f"variable index {i!r} is not an integer in [0, {n})")


def _position(alpha, n: int, order: int) -> int:
    """Table position of the multi-index ``alpha`` over n variables."""
    alpha = tuple(alpha)
    if len(alpha) != n or not all(_is_int(a) and a >= 0 for a in alpha):
        raise DimensionMismatch(f"{alpha} is not a multi-index over {n} variables")
    if sum(alpha) > order:
        raise OrderUnderflow(f"term {alpha} exceeds order {order}")
    return index_position(n, order)[alpha]


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
def _compose_plan(m: int, order: int, low: int) -> tuple[np.ndarray, tuple]:
    """The plan of the monomials in m variables of degree ``low`` to
    ``order``, in table order: the terms of :func:`compose_rows` (low 0)
    and the monomial germs of :func:`regraph_rows` (low 1).

    Returns (first, later): the power-table rows ``power * m + var`` of the
    monomials' first factors, and per later factor stage s = 1, 2, ... the
    monomials with more than s factors with the rows of their s-th
    factors, variables increasing.  The constant monomial's one factor is
    row 0, the constant germ 1.
    """
    start = n_coeffs(m, low - 1) if low else 0
    factors = [[e * m + i for i, e in enumerate(beta) if e] or [0] for beta in multi_indices(m, order)[start:]]
    stages = [np.array([(b, f[s]) for b, f in enumerate(factors) if len(f) > s]).T
              for s in range(max(map(len, factors)))]
    for a in stages:
        a.setflags(write=False)
    return stages[0][1], tuple(stages[1:])


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
    """``a / b`` for N samples: ``a`` holds rows (N, r, size) per sample,
    ``b`` one divisor (N, size) per sample.

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
    return mul_rows(a, inv[:, None], n, order) * s[:, None, None], errors


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


def _monomial_rows(D: np.ndarray, n: int, order: int, top: int, low: int) -> np.ndarray:
    """Germs ``D^alpha`` (N, M, size), truncated at ``order``, of the
    monomials alpha of degree ``low`` to ``top`` in the m variables of the
    inner germs ``D`` (N, m, size), in table order.  Each is the inner
    powers of its monomial, multiplied in increasing variable order
    (``_compose_plan(m, top, low)``).
    """
    N, m = D.shape[:2]
    size = n_coeffs(n, order)
    first, later = _compose_plan(m, top, low)
    # powers[s, p * m + i] is inner germ i of sample s to the power p
    powers = np.empty((N, top + 1, m, size))
    if not low:  # no monomial reads power 0 otherwise
        powers[:, 0] = 0.0
        powers[:, 0, :, 0] = 1.0
    if top >= 1:
        powers[:, 1] = D
    for p in range(2, top + 1):
        powers[:, p] = mul_rows(powers[:, p - 1], D, n, order)
    powers = powers.reshape(N, (top + 1) * m, size)
    mono = powers.take(first, axis=1)
    for at, rows in later:
        mono[:, at] = mul_rows(mono[:, at], powers.take(rows, axis=1), n, order)
    return mono


def compose_rows(C: np.ndarray, D: np.ndarray, n: int, order: int) -> np.ndarray:
    """Rows ``C[s, k](D[s, 0], ..., D[s, m-1])`` of N samples ``s``, truncated
    at ``order``.

    ``C`` (N, R, K) holds R outer germs per sample, over the m variables of
    the sample's inner germs ``D`` (N, m, size) and of order >= ``order``,
    expanded about the origin.  Outer terms above degree ``order``
    are not read: with nonzero inner constant terms, pass C's own order.
    Each term is its coefficient times the germ of its monomial
    (:func:`_monomial_rows`); the terms of a row are added in multi-index
    order to 0.0.  Every term is computed, laid out (N, R, M, size), and
    the terms of zero outer coefficients become -0.0 after the products,
    which adds exactly nothing, so an inf or nan inner entry reaches no
    sum through them.
    """
    N, R = C.shape[:2]
    size = n_coeffs(n, order)
    outer = C[..., : n_coeffs(D.shape[1], order)]
    terms = outer[..., None] * _monomial_rows(D, n, order, order, 0)[:, None]
    np.copyto(terms, -0.0, where=(outer == 0.0)[..., None])
    return np.bincount(_sum_bins(outer.shape[2], size)(N * R), weights=terms.ravel(),
                       minlength=N * R * size).reshape(N, R, size)


@functools.lru_cache(maxsize=None)
def _sym_plan(n: int, d: int) -> tuple[np.ndarray, np.ndarray, _Bins]:
    """(ia, ib, bins) that build the degree-d symmetric power of a matrix A,
    laid out (delta, gamma) over the degree-d monomials in table order,
    from its degree d - 1 power: entry [delta, gamma] is the coefficient of
    x^gamma in L^delta, for the linear germs ``L_i = sum_j A[i, j] x^j``.
    ``L^delta`` is ``L^(delta - e_i) L_i`` for the last variable i of
    delta, its products enumerated as :func:`mul_rows` adds them: for each
    gamma' in table order, then each x^j in table order, entry [delta -
    e_i, gamma'] (gathered by ``ia``) times ``A[i, j]`` (by ``ib``), added
    into [delta, gamma' + e_j].
    """
    lower, here = (multi_indices(n, d)[n_coeffs(n, k - 1) : n_coeffs(n, k)] for k in (d - 1, d))
    at_lower, at_here = ({a: k for k, a in enumerate(t)} for t in (lower, here))
    ia, ib, out = [], [], []
    for k, delta in enumerate(here):
        i = max(v for v, e in enumerate(delta) if e)
        prev = at_lower[tuple(e - (v == i) for v, e in enumerate(delta))]
        for g, gamma in enumerate(lower):
            for j in range(n - 1, -1, -1):
                ia.append(prev * len(lower) + g)
                ib.append(i * n + j)
                out.append(k * len(here) + at_here[tuple(e + (v == j) for v, e in enumerate(gamma))])
    ia, ib = np.array(ia), np.array(ib)
    for a in (ia, ib):
        a.setflags(write=False)
    return ia, ib, _Bins(np.array(out), len(here) ** 2)


def _singular_rows(J: np.ndarray) -> dict:
    """{sample: SingularJacobian} for the Jacobians (N, n, n) with
    ``|det J| < SINGULAR_RTOL * scale(J)**n``, scale the RMS entry.

    The test reads J times 2^-e, e the exponent of its largest entry: that
    scaling is exact and leaves the test as it was, and neither the det
    nor the scale of the scaled matrix overflows or underflows.
    """
    n = J.shape[-1]
    J = np.ldexp(J, -np.frexp(np.abs(J).max(axis=(-2, -1)))[1][:, None, None])
    det = np.linalg.det(J).tolist()
    scale = (norm_rows(J.reshape(-1, n * n)) / math.sqrt(n)).tolist()
    return {
        i: SingularJacobian(f"|det J|={abs(d):.3e} at scale={s:.3e}, J scaled to entries below 1")
        for i, (d, s) in enumerate(zip(det, scale))
        if d == 0.0 or abs(d) < SINGULAR_RTOL * s**n
    }


def regraph_rows(U: np.ndarray, F: np.ndarray, n: int, order: int) -> tuple[np.ndarray, dict]:
    """Germs w with ``w o F = U`` for N samples, truncated at ``order``.

    ``F`` (N, n, size) holds a map germ over n variables with zero constant
    terms per sample, ``U`` (N, R, size) R germs per sample.  With J the
    Jacobian of F and A = J^-1, w o F = U is w o G = V for G = F o A and
    V = U o A, where G's linear part is the identity.  There, with the
    lower degrees fixed, the degree-d terms of ``w o G`` are w_d plus the
    degree-d terms of w's lower-degree monomials in G.  So degree by degree

        w_d = V_d - sum over 1 <= |alpha| < d of w_alpha (G^alpha)_d,

    the lower terms added in multi-index order to 0.0 and those of a zero
    w_alpha masked to -0.0.  The degree-d terms of V and of G are those of
    U and of F times Sym^d(A), added in column order with the terms of zero
    entries masked to -0.0; G's linear part is written as the identity,
    never computed as J A.  So no product of J with A rounds, and a linear
    map's w has exactly zero terms above degree 1, even where Sym^d(A) or a
    G^alpha overflows to inf: the masked 0 * inf adds nothing (the caller's
    ``np.errstate`` says whether it warns).  J is inverted once, and
    Sym^d(A) is built from A (:func:`_sym_plan`), never solved on: its
    condition number is cond(J)^d.  Returns one germ per sample, and
    ``{sample: SingularJacobian}`` for the samples whose Jacobian fails the
    test (:func:`_singular_rows`): their germ is U, regraphed by the
    identity map put in their place.
    """
    N, R = U.shape[:2]
    lin = slice(n, 0, -1)  # the positions linear_positions(n) of x^0, ..., x^{n-1}
    errors = _singular_rows(F[..., lin] if order >= 1 else np.zeros((N, n, n)))
    if errors:
        F = F.copy()
        F[list(errors)] = coordinate_rows(n, order)
    P = np.concatenate((U, F), axis=1)
    Q = np.empty(P.shape)  # V, then G, whose linear part is the identity
    Q[:, R:] = coordinate_rows(n, order)
    Q[:, :R, 0] = U[..., 0]
    if order < 1:
        return Q[:, :R], errors
    A = np.linalg.inv(F[..., lin])
    sym = A[:, ::-1, ::-1]  # Sym^1(A), laid out as _sym_plan lays it out
    for d in range(1, order + 1):
        lo, hi = n_coeffs(n, d - 1), n_coeffs(n, d)
        width, rows = hi - lo, R + n if d >= 2 else R
        if d >= 2:
            ia, ib, bins = _sym_plan(n, d)
            sym = sym.reshape(N, -1).take(ia, axis=1) * A.reshape(N, -1).take(ib, axis=1)
            sym = np.bincount(bins(N), weights=sym.ravel(), minlength=N * width**2).reshape(N, width, width)
        p = P[:, :rows, lo:hi]
        terms = sym[:, None] * p[..., None]
        np.copyto(terms, -0.0, where=(p == 0.0)[..., None])
        Q[:, :rows, lo:hi] = np.bincount(_sum_bins(width, width)(N * rows), weights=terms.ravel(),
                                         minlength=N * rows * width).reshape(N, rows, width)
    w = Q[:, :R]
    if order >= 2:  # T[s, a - 1] is G^alpha for the monomial alpha at table position a
        T = _monomial_rows(Q[:, R:], n, order, order - 1, 1)
    for d in range(2, order + 1):
        lo, hi = n_coeffs(n, d - 1), n_coeffs(n, d)
        terms = w[..., 1:lo, None] * T[:, None, : lo - 1, lo:hi]
        np.copyto(terms, -0.0, where=(w[..., 1:lo] == 0.0)[..., None])
        w[..., lo:hi] -= np.bincount(_sum_bins(lo - 1, hi - lo)(N * R), weights=terms.ravel(),
                                     minlength=N * R * (hi - lo)).reshape(N, R, hi - lo)
    return w, errors


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
        _check_var(i, n_vars)
        c = np.zeros(n_coeffs(n_vars, order))
        c[linear_positions(n_vars)[i]] = 1.0
        return cls(n_vars, order, c)

    @classmethod
    def from_terms(cls, terms: dict, n_vars: int, order: int) -> "TruncatedJet":
        c = np.zeros(n_coeffs(n_vars, order))
        for alpha, value in terms.items():
            c[_position(alpha, n_vars, order)] = value
        return cls(n_vars, order, c)

    # -- accessors ---------------------------------------------------------

    @property
    def const_term(self) -> float:
        return float(self.coeffs[0])

    def coeff(self, alpha: Iterable[int]) -> float:
        return float(self.coeffs[_position(alpha, self.n_vars, self.order)])

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
        if point.shape != (self.n_vars,):
            raise DimensionMismatch(f"a point of {self.n_vars} coordinates, got shape {point.shape}")
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
    _check_var(i, n)
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
    q, errors = divide_rows(num[None, None], den[None], a.n_vars, order)
    if errors:
        raise errors[0]
    return TruncatedJet(a.n_vars, order, q[0, 0])


def compose(
    outer: TruncatedJet,
    inners: Sequence[TruncatedJet] | TruncatedJet,
    order: int | None = None,
) -> TruncatedJet:
    """Taylor coefficients of ``outer(inner_1, ..., inner_m)``, constant terms
    included: one :func:`compose_rows` call.  A nonzero constant term
    carries every outer term down to degree 0, so then it evaluates at
    ``outer``'s own order, on inner germs zero-padded to it, and truncates.
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
    at = outer.order if D[:, 0].any() else order
    D = np.pad(D, ((0, 0), (0, n_coeffs(n, at) - size)))
    return TruncatedJet(n, order, compose_rows(outer.coeffs[None, None], D[None], n, at)[0, 0, :size])


def compose_map(
    outers: Sequence[TruncatedJet], inners: Sequence[TruncatedJet]
) -> list[TruncatedJet]:
    return [compose(f, inners) for f in outers]


def invert_map(fs: Sequence[TruncatedJet]) -> list[TruncatedJet]:
    """Compositional inverse of a map germ fixing the origin.

    ``fs`` must be ``n`` jets over ``n`` variables with zero constant term
    and invertible linear part; the result ``g`` satisfies
    ``compose(f, g) = id`` and ``compose(g, f) = id`` to the working order:
    :func:`regraph_rows` of the coordinate germs.  A term of ``g`` out of
    floating-point range is inf or nan, without a warning.
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
    with np.errstate(over="ignore", invalid="ignore"):  # masked products may overflow or be 0 * inf
        g, errors = regraph_rows(coordinate_rows(n, order)[None], F[None], n, order)
    if errors:
        raise errors[0]
    return [TruncatedJet(n, order, row) for row in g[0]]

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
:func:`invert_rows`, driven by index tables built lazily and cached per
(n, order).  :class:`TruncatedJet` and the module-level functions are the
public boundary over them and call them at one sample; :mod:`jetpde.groups`
prolongs whole batches on arrays.

The rule of the kernel layer: every floating-point operation keeps its
operands and its order (products summed in ``_mul_table`` order, terms in
multi-index order, linear combinations in column order).  An operation is
left out only where that is exact for finite data, e.g. adding a zero
product to a sum that starts at +0.0.  Results are therefore bit for bit
those of plain jet-by-jet arithmetic.  The batch axis keeps the rule: each
sample's rows see the same operations as a batch of one, reductions run
per row through the same BLAS/LAPACK call (:func:`sumsq_rows`, stacked
``det``/``inv``), powers go through Python's ``float.__pow__``
(:func:`pow_rows`), and a sample that fails a test (a singular Jacobian)
is reported for its row and dropped from the rows that go on.

The coefficient of the multi-index ``alpha`` is the Taylor coefficient,
i.e. the partial derivative divided by ``alpha!``.  All operations are
pure and return new jets; instances are never mutated after construction.
"""

from __future__ import annotations

import functools
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
    """Table positions of the coordinate monomials x^0, ..., x^{n-1}."""
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
def _factor_table(m: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of the monomials of degree <= order in m variables.

    Returns (count, var, power): monomial ``b`` is the product over
    ``s < count[b]`` of ``x[var[b, s]] ** power[b, s]``, variables
    increasing; the constant monomial has count 0 and power 0.
    """
    idx = multi_indices(m, order)
    width = max(1, min(m, order))
    count = np.zeros(len(idx), dtype=np.intp)
    var = np.zeros((len(idx), width), dtype=np.intp)
    power = np.zeros((len(idx), width), dtype=np.intp)
    for b, beta in enumerate(idx):
        factors = [(i, e) for i, e in enumerate(beta) if e]
        count[b] = len(factors)
        for s, (i, e) in enumerate(factors):
            var[b, s], power[b, s] = i, e
    return count, var, power


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


def pow_rows(x, k) -> np.ndarray:
    """``v ** k`` for every entry by Python's float power (libm ``pow``),
    which numpy's array ``**`` does not always match in the last bit; an
    overflow raises as the float power does."""
    x = np.asarray(x, dtype=float)
    return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)


def _unit_rows(rows: int, size: int, cols) -> np.ndarray:
    out = np.zeros((rows, size))
    out[np.arange(rows), cols] = 1.0
    return out


_BINS: dict = {}


def _bins(n: int, order: int, rows: int) -> np.ndarray:
    """Output bin of each product of each of ``rows`` rows laid end to end:
    a prefix of one read-only table per (n, order), which doubles in rows
    whenever a batch outgrows it."""
    iout = _mul_table(n, order)[2]
    table = _BINS.get((n, order))
    if table is None or table.size < rows * iout.size:
        held = 0 if table is None else table.size // iout.size
        table = (iout + n_coeffs(n, order) * np.arange(max(rows, 2 * held))[:, None]).ravel()
        table.setflags(write=False)
        _BINS[(n, order)] = table
    return table[: rows * iout.size]


def mul_rows(a: np.ndarray, b: np.ndarray, n: int, order: int) -> np.ndarray:
    """Cauchy products of coefficient vectors over any leading shape
    (``a`` and ``b`` broadcast).

    Each output coefficient is 0.0 plus its products in ``_mul_table``
    order, the order ``np.add.at`` accumulates them in.
    """
    ia, ib, _ = _mul_table(n, order)
    size = n_coeffs(n, order)
    w = a[..., ia] * b[..., ib]
    lead = w.shape[:-1]
    rows = math.prod(lead)
    out = np.bincount(_bins(n, order, rows), weights=w.ravel(), minlength=rows * size)
    return out.reshape(lead + (size,))


def divide_rows(a: np.ndarray, b: np.ndarray, n: int, order: int,
                tol: float = DIVISION_RTOL) -> np.ndarray:
    """``a / b`` for N samples: ``b`` holds one divisor per sample (N, size),
    ``a`` one vector (N, size) or rows (N, r, size) per sample.

    ``a`` times the series ``1 - r + r^2 - ...`` of ``r = (b - b(0)) / b(0)``,
    times ``1 / b(0)``.  Raises DivisionBySingular when any sample's divisor
    fails the test, naming the first.
    """
    b0 = b[:, 0]
    scale = np.fmax(1.0, np.abs(b).max(axis=-1))
    bad = np.abs(b0) < tol * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise DivisionBySingular(f"|b(0)|={abs(b0[i]):.3e} below {tol * scale[i]:.3e}")
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
    return mul_rows(a, inv.reshape(per_sample + inv.shape[-1:]), n, order) * s.reshape(per_sample + (1,))


def linear_rows(M: np.ndarray, V: np.ndarray, off=None) -> np.ndarray:
    """Rows ``off[..., i] + sum_j M[..., i, j] V[..., j]``, added in column
    order, over any leading shape (``V`` (c, size) may be shared).

    Terms with ``M[..., i, j] == 0`` are skipped: they become -0.0, which
    leaves every sum bit for bit as it was.
    """
    P = M[..., :, :, None] * V[..., None, :, :]
    P[M == 0.0] = -0.0
    out = np.zeros(P.shape[:-2] + P.shape[-1:])
    if off is not None:
        out[..., 0] = off
    for j in range(M.shape[-1]):
        out += P[..., j, :]
    return out


def compose_rows(C: np.ndarray, D: np.ndarray, n: int, order: int) -> np.ndarray:
    """Rows ``C[s, k](D[s, 0], ..., D[s, m-1])`` of N samples ``s`` for inner
    germs with zero constant terms.

    ``C`` (N, R, K) holds R outer germs per sample, over the m variables of
    the sample's inner germs ``D`` (N, m, size) and of order >= ``order``,
    expanded about the origin.  Each term is its coefficient times the
    inner powers of its monomial, multiplied in increasing variable order;
    the terms of a row are added in multi-index order to 0.0.  The rows of
    all samples are concatenated, so zero outer terms are masked per row.
    """
    N, R = C.shape[:2]
    m = D.shape[1]
    size = n_coeffs(n, order)
    count, var, power = _factor_table(m, order)
    # inner germ i of sample s is row s * m + i of the power tables
    D = D.reshape(N * m, size)
    powers = np.empty((order + 1, N * m, size))
    powers[0] = 0.0
    powers[0, :, 0] = 1.0
    if order >= 1:
        powers[1] = D
    for p in range(2, order + 1):
        powers[p] = mul_rows(powers[p - 1], D, n, order)
    outer = C[:, :, : count.size].reshape(N * R, count.size)
    row, mono = np.nonzero(outer != 0.0)
    var, power, count = var[mono], power[mono], count[mono]
    var = var + ((row // R) * m)[:, None]
    terms = outer[row, mono][:, None] * powers[power[:, 0], var[:, 0]]
    for s in range(1, var.shape[1]):
        more = np.flatnonzero(count > s)
        if more.size == 0:
            break
        terms[more] = mul_rows(terms[more], powers[power[more, s], var[more, s]], n, order)
    flat = (size * row[:, None] + np.arange(size)).ravel()
    out = np.bincount(flat, weights=terms.ravel(), minlength=N * R * size)
    return out.reshape(N, R, size)


def invert_rows(F: np.ndarray, n: int, order: int) -> tuple[np.ndarray, dict]:
    """Compositional inverses of N map germs with coefficient rows ``F``.

    ``F`` (N, n, size) holds n rows over n variables with zero constant
    terms per sample; each inverse is the fixed point of
    ``g = J^-1 (x - high(g))``, iterated order - 1 times from ``J^-1 x``.
    Returns the inverses of the samples with an invertible Jacobian, in
    order, and ``{sample: SingularJacobian}`` for the others.
    """
    lin = linear_positions(n)
    J = F[..., lin] if order >= 1 else np.zeros(F.shape[:1] + (n, n))
    det = np.linalg.det(J).tolist()
    scale = (norm_rows(J.reshape(-1, n * n)) / math.sqrt(n)).tolist()
    errors = {
        i: SingularJacobian(f"|det J|={abs(d):.3e}, scale={s:.3e}")
        for i, (d, s) in enumerate(zip(det, scale))
        if d == 0.0 or abs(d) < SINGULAR_RTOL * s**n
    }
    if errors:
        keep = np.delete(np.arange(len(F)), list(errors))
        F, J = F[keep], J[keep]
    Jinv = np.linalg.inv(J)
    coords = _unit_rows(n, F.shape[-1], lin)
    # F - J x and J^-1 x, written directly: for finite J the linear rows
    # give exactly these values, up to the sign of zeros, which neither
    # compose_rows (it skips zero terms) nor the sums after it can see.
    high = F.copy()
    high[..., lin] = 0.0
    g = np.zeros(F.shape)
    g[..., lin] = Jinv + 0.0
    for _ in range(order - 1):
        g = linear_rows(Jinv, coords - compose_rows(high, g, n, order))
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


def divide(a: TruncatedJet, b: TruncatedJet, tol: float = DIVISION_RTOL) -> TruncatedJet:
    """``a * b**-1`` with the reciprocal expanded as a geometric series."""
    order, num, den = a._common(b)
    return TruncatedJet(a.n_vars, order, divide_rows(num[None], den[None], a.n_vars, order, tol)[0])


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

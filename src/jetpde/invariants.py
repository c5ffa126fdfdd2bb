"""Scalar differential invariants of second- and third-order jet data.

Conventions (fixed once, used everywhere):

* ``rho = 1 + |grad|^2``.
* Chart metric ``h = rho**-2 (rho I - grad grad^T)``, the pullback of the
  round metric under central projection of the unit sphere onto the
  Darboux chart.
* Shape matrix ``S = rho**-2 (rho I - grad grad^T) @ hess`` (= h @ hess);
  its eigenvalues are real because S is conjugate to the symmetric matrix
  ``R hess R`` with ``R = h^(1/2)``, which has the closed form of
  :func:`_chart_metric_rows`.
* ``det S = rho**-(n+1) det(hess)``; for n = 2 this is rho**-3 det(hess),
  with no extra constant factor.

All functions are pure; consumers of these invariants use only zero sets
and eigenvalue ratios, which are insensitive to global positive factors.

Stack axis: :func:`shape_matrix`, :func:`tracefree_shape` and
:func:`eigenvalues` take either a :class:`SymMatrix` or a stack of full
Hessians of shape (m, n, n), with one gradient (n,) shared by the stack,
one per row (m, n), or a :class:`~jetpde.jetspace.JetBatch` in place of
its gradients, whose chart metrics it keeps per row (:func:`_chart_metric`);
:func:`tau_d` takes an (n, n) or (m, n, n) matrix and
:func:`elementary_symmetric` an (n,) or (m, n) spectrum.
:func:`hessian_dets` and :func:`pick_numerators` are the stacked forms of
:func:`hessian_det` and :func:`pick_numerator`, which are their stacks of
one.  A stack gives one value (or matrix, or spectrum) per row, each
bitwise equal to the single-matrix result: the rows go through the same
per-matrix BLAS/LAPACK calls (dot products included, see
:func:`~jetpde.taylor.sumsq_rows`), the same float powers and the same
elementwise operations in the same order.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import numpy as np

from .errors import DegenerateHessian, SingularMetric, WrongDimension
from .exactpoly import Poly
from .jetspace import GraphJet, JetBatch
from .symtensor import SymCubic, SymMatrix, cubic_indices
from .taylor import pow_rows, sumsq_rows

SINGULAR_METRIC_RTOL = 1e-12

# Hessians with |det| below this times |hess|_2^n count as degenerate: the
# third-order invariants carry det(hess)^-3 and the normalizing congruence
# needs every eigenvalue away from zero.
DEGENERATE_HESSIAN_RTOL = 1e-8

# The 13-term scalar third-order invariant at n = 2, as monomials over
# (u_xx, u_xy, u_yy, u_xxx, u_xxy, u_xyy, u_yyy): the storage order of the
# Hessian followed by the cubic.
F_AFF3_MONOMIALS = {
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


@dataclasses.dataclass(frozen=True)
class Signature:
    """Inertia (d, n-d) of a normalized nondegenerate quadratic form."""

    d: int
    n: int

    def __post_init__(self):
        if not 0 <= self.d <= self.n:
            raise WrongDimension(f"signature d={self.d} outside 0..{self.n}")

    def metric(self) -> SymMatrix:
        """diag(1_d, -1_{n-d})."""
        return SymMatrix.diag([1.0] * self.d + [-1.0] * (self.n - self.d))


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _chart_metric_rows(grad: np.ndarray):
    """h and its root R = h^(1/2), for a gradient (n,) or per row of (m, n).

    With s = sqrt(rho) and P = p p^T for the unit vector p along grad (0 at
    grad = 0), R = (I - P + P / s) / s: eigenvalue 1/rho along grad, added
    to I - P rather than taken off I, so exact on a coordinate axis, and
    1/sqrt(rho) across it.  s comes from grad scaled by its largest entry,
    so it is finite wherever sqrt(rho) is."""
    big = np.maximum(1.0, np.abs(grad).max(axis=-1))
    t = grad / big[..., None]
    tt = sumsq_rows(t)
    s = (big * np.sqrt(1.0 / big / big + tt))[..., None, None]
    p = t / np.sqrt(np.where(tt > 0.0, tt, 1.0))[..., None]
    P = p[..., :, None] * p[..., None, :]
    R = (_identity(grad.shape[-1]) - P + P / s) / s
    return R @ R, R


def _chart_metric(grad):
    """h and R of :func:`_chart_metric_rows` for a gradient (n,), one per row
    (m, n) or the rows of a :class:`~jetpde.jetspace.JetBatch`, which
    gathers them (:meth:`~jetpde.jetspace.JetBatch.per_row`) from the batch
    it was taken from, where they are computed once for every row."""
    if isinstance(grad, JetBatch):
        return grad.per_row("chart_metric", lambda jets: _chart_metric_rows(jets.grad))
    return _chart_metric_rows(np.asarray(grad, dtype=float))


def chart_metric_h(grad) -> SymMatrix:
    """Round-metric pullback h = rho^-2 (rho I - grad grad^T)."""
    return SymMatrix.from_full(_chart_metric(grad)[0])


def _full(hess) -> np.ndarray:
    """The full (n, n) matrix of a SymMatrix, or the given (m, n, n) stack."""
    return hess.full() if isinstance(hess, SymMatrix) else hess


def _trace(P: np.ndarray):
    """Trace over the last two axes, summing the diagonal as ``np.trace``
    sums it; a scalar for one matrix, an (m,) array for a stack."""
    n = P.shape[-1]
    return P.reshape(P.shape[:-2] + (n * n,))[..., :: n + 1].sum(axis=-1)


def shape_matrix(grad, hess) -> np.ndarray:
    """Endomorphism h . hess measuring the Hessian against the chart metric."""
    return _chart_metric(grad)[0] @ _full(hess)


def tau_d(S, d: int):
    """Trace of the d-th matrix power: a float, or (m,) values for a stack."""
    if d < 1:
        raise ValueError("tau_d needs d >= 1")
    S = np.asarray(S, dtype=float)
    t = _trace(np.linalg.matrix_power(S, d))
    return float(t) if S.ndim == 2 else t


def eigenvalues(grad, hess) -> np.ndarray:
    """Real spectrum of the shape matrix, sorted descending along the last axis.

    Computed through the symmetric congruence R hess R with R = h^(1/2)
    (:func:`_chart_metric_rows`), which is similar to h . hess and
    guarantees a real spectrum.  h and R depend on the gradient only, so
    they are shared per row: a stack of Hessians with one gradient shares
    them, and a JetBatch gathers them from the batch it was taken from,
    where each row's are computed once for the line draws' repeated rows
    and a report's later stages (:func:`_chart_metric`).
    """
    R = _chart_metric(grad)[1]
    lams = np.linalg.eigvalsh(R @ _full(hess) @ R)
    return lams[..., ::-1]


def elementary_symmetric(lams, i: int):
    """e_i of the given values (e_0 = 1), over the last axis: a float for
    an (n,) spectrum, (m,) values for an (m, n) stack."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    if not 0 <= i <= n:
        raise ValueError(f"elementary symmetric index {i} outside [0, {n}]")
    # e_k += lam e_{k-1} for every k at once reads only the old e_{k-1}, as
    # the downward in-place recurrence does; entries above e_i never feed it.
    e = np.zeros((i + 1,) + lams.shape[:-1])
    e[0] = 1.0
    for k in range(n):
        e[1:] += lams[..., k] * e[:-1]
    return float(e[i]) if lams.ndim == 1 else e[i]


def tracefree_shape(grad, hess) -> np.ndarray:
    """Trace-free part of the shape matrix."""
    S = shape_matrix(grad, hess)
    n = S.shape[-1]
    return S - (_trace(S) / n)[..., None, None] * _identity(n)


def conformal_discriminant(grad, hess: SymMatrix) -> float:
    """The n=2 umbilic detector 2 rho^4 tr(S_0^2), expanded in jet coordinates.

    Equals ((1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy)^2
    - 4 (1+u_x^2+u_y^2)(u_xx u_yy - u_xy^2), which is proportional to
    H^2 - K; it vanishes exactly at umbilic points.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.size != 2 or hess.n != 2:
        raise WrongDimension("conformal_discriminant is defined for n = 2 only")
    ux, uy = grad
    a, b, c = hess[0, 0], hess[1, 0], hess[1, 1]
    rho = 1.0 + ux * ux + uy * uy
    lin = (1.0 + uy * uy) * a - 2.0 * ux * uy * b + (1.0 + ux * ux) * c
    return float(lin * lin - 4.0 * rho * (a * c - b * b))


def _metric_inverse(g: SymMatrix) -> np.ndarray:
    G = g.full()
    det = float(np.linalg.det(G))
    scale = float(np.linalg.norm(G, 2)) or 1.0
    if abs(det) < SINGULAR_METRIC_RTOL * scale**g.n:
        raise SingularMetric(f"|det g| = {abs(det):.3e}")
    return np.linalg.inv(G)


def cubic_trace(g: SymMatrix, C: SymCubic) -> np.ndarray:
    """Covector (tr_g C)_k = g^{ij} C_{ijk}."""
    ginv = _metric_inverse(g)
    return np.einsum("ij,ijk->k", ginv, C.full())


@functools.lru_cache(maxsize=None)
def _sym_outer_columns(n: int) -> np.ndarray:
    """Per stored cubic entry (i, j, k): i, j, k and the storage positions of g_jk, g_ik, g_ij."""
    at = [[max(a, b) * (max(a, b) + 1) // 2 + min(a, b) for b in range(n)] for a in range(n)]
    return np.array([(i, j, k, at[j][k], at[i][k], at[i][j]) for i, j, k in cubic_indices(n)]).T


def sym_outers(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The stored cubics of :func:`sym_outer` for the rows of covectors W
    (m, n) and of stored symmetric matrices G (m, n(n+1)/2)."""
    i, j, k, jk, ik, ij = _sym_outer_columns(W.shape[-1])
    return W[:, i] * G[:, jk] + W[:, j] * G[:, ik] + W[:, k] * G[:, ij]


def sym_outer(w, g: SymMatrix) -> SymCubic:
    """The symmetrized product (w . g)_{ijk} = w_i g_jk + w_j g_ik + w_k g_ij."""
    return SymCubic(g.n, sym_outers(np.asarray(w, dtype=float)[None], g.data[None])[0])


def tracefree_cubic(g: SymMatrix, C: SymCubic) -> SymCubic:
    """g-trace-free part of C: the section of the quotient by {w . g}.

    Uses tr_g(w . g) = (n+2) w, so the projection subtracts (w . g) with
    w = tr_g(C) / (n+2).
    """
    w = cubic_trace(g, C) / (g.n + 2.0)
    return C - sym_outer(w, g)


def pick_norm(g: SymMatrix, C: SymCubic) -> float:
    """Full g-contraction g^{ii'} g^{jj'} g^{kk'} C_{ijk} C_{i'j'k'}."""
    ginv = _metric_inverse(g)
    Cf = C.full()
    return float(np.einsum("il,jm,kn,ijk,lmn->", ginv, ginv, ginv, Cf, Cf))


def _nondegenerate_dets(lams: np.ndarray) -> tuple[np.ndarray, dict]:
    """Products of the Hessian spectra (m, n), and {row: DegenerateHessian}
    for the rows on the degenerate locus."""
    det = lams.prod(axis=-1)
    scale = np.abs(lams).max(axis=-1)
    scale[scale == 0.0] = 1.0
    bad = np.abs(det) < DEGENERATE_HESSIAN_RTOL * pow_rows(scale, lams.shape[-1])
    if not bad.any():
        return det, {}
    return det, {int(i): DegenerateHessian(f"|det hess| = {abs(det[i]):.3e}") for i in np.flatnonzero(bad)}


def hessian_dets(H: np.ndarray) -> tuple[np.ndarray, dict]:
    """det of each full Hessian of the stack (m, n, n), and {row:
    DegenerateHessian} for the rows with |det| below
    DEGENERATE_HESSIAN_RTOL * |hess|_2^n."""
    return _nondegenerate_dets(np.linalg.eigvalsh(H))


def hessian_det(hess: SymMatrix) -> float:
    """det(hess), raising DegenerateHessian when |det| is below
    DEGENERATE_HESSIAN_RTOL * |hess|_2^n."""
    det, errors = hessian_dets(hess.full()[None])
    if errors:
        raise errors[0]
    return float(det[0])


def hessian_congruence(hess: SymMatrix) -> tuple[np.ndarray, Signature]:
    """B with det B > 0 and hess = 2 B^T eps B, eps = diag(1_d, -1_{n-d}).

    Positive directions come first; raises DegenerateHessian as
    :func:`hessian_det` does.
    """
    lams, Q = np.linalg.eigh(hess.full())
    _, errors = _nondegenerate_dets(lams[None])
    if errors:
        raise errors[0]
    idx = np.argsort(-lams)  # descending: positive directions first
    lams, Q = lams[idx], Q[:, idx]
    n = lams.size
    B = np.diag(np.sqrt(np.abs(lams) / 2.0)) @ Q.T
    if np.linalg.det(B) < 0.0:
        B = np.diag([1.0] * (n - 1) + [-1.0]) @ B
    return B, Signature(int(np.sum(lams > 0.0)), n)


@functools.lru_cache(maxsize=None)
def _others(n: int) -> np.ndarray:
    """Row i lists the indices other than i, increasing: cofactor i of a
    diagonal matrix is the product of those eigenvalues, in that order."""
    return np.array([[k for k in range(n) if k != i] for i in range(n)]).reshape(n, n - 1)


def pick_numerators(H: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Q = det(hess)^3 pick_norm(hess, tracefree_cubic(hess, cubic)), a polynomial,
    for each full Hessian of the stack H (m, n, n) and full cubic of C
    (m, n, n, n).

    With A = adj(hess) and s_k = A^{ij} C_{ijk},
    Q = A^{il} A^{jm} A^{kn} C_{ijk} C_{lmn} - 3/(n+2) s.A.s; the adjugate
    comes from the spectrum without dividing by det, so Q is defined on the
    degenerate locus too.
    """
    lams, V = np.linalg.eigh(H)
    n = lams.shape[-1]
    others = _others(n)
    cofactors = lams[:, others[:, 0]] if n > 1 else np.ones_like(lams)
    for k in range(1, n - 1):
        cofactors = cofactors * lams[:, others[:, k]]
    A = (V * cofactors[:, None, :]) @ V.swapaxes(1, 2)
    s = np.einsum("xij,xijk->xk", A, C)
    full = np.einsum("xil,xjm,xkn,xijk,xlmn->x", A, A, A, C, C)
    return full - 3.0 / (n + 2.0) * (s[:, None, :] @ A @ s[:, :, None])[:, 0, 0]


def pick_numerator(hess: SymMatrix, cubic: SymCubic) -> float:
    """The stack of one of :func:`pick_numerators`."""
    return float(pick_numerators(hess.full()[None], cubic.full()[None])[0])


def F_aff3(j: GraphJet) -> float:
    """The 13-term third-order polynomial invariant (n = 2, order 3).

    Equals 4 det(hess)^3 times the g-norm-squared of the trace-free cubic
    taken against g = hess, hence shares its zero set with the trace-free
    cubic quotient off the locus det(hess) = 0.
    """
    if j.n != 2 or j.order != 3:
        raise WrongDimension("F_aff3 needs a two-variable order-3 jet")
    return Poly(7, F_AFF3_MONOMIALS).evaluate(j.hess.data.tolist() + j.cubic.data.tolist())

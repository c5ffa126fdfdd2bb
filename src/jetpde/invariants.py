"""Scalar differential invariants of second- and third-order jet data.

Conventions (fixed once, used everywhere):

* ``rho = 1 + |grad|^2``.
* Chart metric ``h = rho**-2 (rho I - grad grad^T)``, the pullback of the
  round metric under central projection of the unit sphere onto the
  Darboux chart.
* Shape matrix ``S = rho**-2 (rho I - grad grad^T) @ hess`` (= h @ hess);
  its eigenvalues are real because S is conjugate to the symmetric matrix
  ``L^T hess L`` with ``h = L L^T``.
* ``det S = rho**-(n+1) det(hess)``; for n = 2 this is rho**-3 det(hess),
  with no extra constant factor.

All functions are pure; consumers of these invariants use only zero sets
and eigenvalue ratios, which are insensitive to global positive factors.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateHessian, SingularMetric, WrongDimension
from .jetspace import GraphJet
from .symtensor import SymCubic, SymMatrix, cubic_indices

SINGULAR_METRIC_RTOL = 1e-12

# Hessians with |det| below this times |hess|_2^n count as degenerate: the
# third-order invariants carry det(hess)^-3 and the normalizing congruence
# needs every eigenvalue away from zero.
DEGENERATE_HESSIAN_RTOL = 1e-8


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


def rho_of(grad) -> float:
    grad = np.asarray(grad, dtype=float)
    return 1.0 + float(grad @ grad)


def chart_metric_h(grad) -> SymMatrix:
    """Round-metric pullback h = rho^-2 (rho I - grad grad^T)."""
    grad = np.asarray(grad, dtype=float)
    rho = rho_of(grad)
    full = (rho * np.eye(grad.size) - np.outer(grad, grad)) / rho**2
    return SymMatrix.from_full(full)


def shape_matrix(grad, hess: SymMatrix) -> np.ndarray:
    """Endomorphism h . hess measuring the Hessian against the chart metric."""
    grad = np.asarray(grad, dtype=float)
    rho = rho_of(grad)
    return (rho * np.eye(grad.size) - np.outer(grad, grad)) @ hess.full() / rho**2


def tau_d(S: np.ndarray, d: int) -> float:
    """Trace of the d-th matrix power."""
    if d < 1:
        raise ValueError("tau_d needs d >= 1")
    P = np.linalg.matrix_power(np.asarray(S, dtype=float), d)
    return float(np.trace(P))


def eigenvalues(grad, hess: SymMatrix) -> np.ndarray:
    """Real spectrum of the shape matrix, sorted descending.

    Computed through the symmetric congruence L^T hess L with h = L L^T
    (Cholesky of the positive-definite chart metric), which is similar to
    h . hess and guarantees a real spectrum.
    """
    grad = np.asarray(grad, dtype=float)
    h = chart_metric_h(grad).full()
    L = np.linalg.cholesky(h)
    lams = np.linalg.eigvalsh(L.T @ hess.full() @ L)
    return lams[::-1]


def elementary_symmetric(lams, i: int) -> float:
    """e_i of the given values (e_0 = 1)."""
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    if not 0 <= i <= n:
        raise ValueError(f"elementary symmetric index {i} outside [0, {n}]")
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in lams:
        # downward update keeps the recurrence in place
        for k in range(n, 0, -1):
            e[k] = e[k] + lam * e[k - 1]
    return float(e[i])


def tracefree_shape(grad, hess: SymMatrix) -> np.ndarray:
    """Trace-free part of the shape matrix."""
    S = shape_matrix(grad, hess)
    return S - (np.trace(S) / S.shape[0]) * np.eye(S.shape[0])


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


def sym_outer(w, g: SymMatrix) -> SymCubic:
    """The symmetrized product (w . g)_{ijk} = w_i g_jk + w_j g_ik + w_k g_ij."""
    w = np.asarray(w, dtype=float)
    vals = []
    for i, j, k in cubic_indices(g.n):
        vals.append(w[i] * g[j, k] + w[j] * g[i, k] + w[k] * g[i, j])
    return SymCubic(g.n, vals)


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


def _nondegenerate_det(lams: np.ndarray) -> float:
    """Product of the Hessian spectrum; raises on the degenerate locus."""
    det = float(np.prod(lams))
    scale = float(np.max(np.abs(lams))) or 1.0
    if abs(det) < DEGENERATE_HESSIAN_RTOL * scale**lams.size:
        raise DegenerateHessian(f"|det hess| = {abs(det):.3e}")
    return det


def hessian_det(hess: SymMatrix) -> float:
    """det(hess), raising DegenerateHessian when |det| is below
    DEGENERATE_HESSIAN_RTOL * |hess|_2^n."""
    return _nondegenerate_det(np.linalg.eigvalsh(hess.full()))


def hessian_congruence(hess: SymMatrix) -> tuple[np.ndarray, Signature]:
    """B with det B > 0 and hess = 2 B^T eps B, eps = diag(1_d, -1_{n-d}).

    Positive directions come first; raises DegenerateHessian as
    :func:`hessian_det` does.
    """
    lams, Q = np.linalg.eigh(hess.full())
    _nondegenerate_det(lams)
    idx = np.argsort(-lams)  # descending: positive directions first
    lams, Q = lams[idx], Q[:, idx]
    n = lams.size
    B = np.diag(np.sqrt(np.abs(lams) / 2.0)) @ Q.T
    if np.linalg.det(B) < 0.0:
        B = np.diag([1.0] * (n - 1) + [-1.0]) @ B
    return B, Signature(int(np.sum(lams > 0.0)), n)


def pick_numerator(hess: SymMatrix, cubic: SymCubic) -> float:
    """Q = det(hess)^3 pick_norm(hess, tracefree_cubic(hess, cubic)), a polynomial.

    With A = adj(hess) and s_k = A^{ij} C_{ijk},
    Q = A^{il} A^{jm} A^{kn} C_{ijk} C_{lmn} - 3/(n+2) s.A.s; the adjugate
    comes from the spectrum without dividing by det, so Q is defined on the
    degenerate locus too.
    """
    lams, V = np.linalg.eigh(hess.full())
    n = lams.size
    spec = lams.tolist()
    cofactors = [math.prod(spec[:i] + spec[i + 1 :]) for i in range(n)]
    A = (V * cofactors) @ V.T
    C = cubic.full()
    s = np.einsum("ij,ijk->k", A, C)
    full = np.einsum("il,jm,kn,ijk,lmn->", A, A, A, C, C)
    return float(full - 3.0 / (n + 2.0) * (s @ A @ s))


def F_aff3(j: GraphJet) -> float:
    """The 13-term third-order polynomial invariant (n = 2, order 3).

    Equals 4 det(hess)^3 times the g-norm-squared of the trace-free cubic
    taken against g = hess, hence shares its zero set with the trace-free
    cubic quotient off the locus det(hess) = 0.
    """
    if j.n != 2 or j.order != 3:
        raise WrongDimension("F_aff3 needs a two-variable order-3 jet")
    a, b, c = j.hess[0, 0], j.hess[1, 0], j.hess[1, 1]
    p = j.cubic[0, 0, 0]
    q = j.cubic[0, 0, 1]
    r = j.cubic[0, 1, 1]
    s = j.cubic[1, 1, 1]
    return float(
        6 * a * p * b * c * s
        - 6 * a * p * r * c * c
        - 18 * a * q * b * r * c
        + 12 * a * q * b * b * s
        - 6 * a * a * q * c * s
        + 9 * a * q * q * c * c
        - 6 * a * a * b * r * s
        + 9 * a * a * r * r * c
        + a * a * a * s * s
        - 6 * p * q * b * c * c
        + 12 * p * b * b * r * c
        - 8 * p * b * b * b * s
        + p * p * c * c * c
    )

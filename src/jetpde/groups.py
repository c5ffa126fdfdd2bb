"""Point transformations of the four geometries and their jet prolongations.

A :class:`GroupElement` is a tagged matrix payload:

* ``euclidean``  -- rigid motions p -> A p + b of R^{n+1}, A in SO(n+1);
* ``affine``     -- invertible affine maps p -> A p + b;
* ``projective`` -- (n+2) x (n+2) unimodular matrices acting by fractional
  linear maps in the affine chart t = 1 of [u : x^1 : ... : x^n : t];
* ``conformal``  -- (n+3) x (n+3) matrices preserving the quadratic form
  -lambda^2 + u^2 + |x|^2 + t^2, acting on the stereographic chart of the
  sphere (projection center at the excluded antipode -e_+).

Prolongation transforms a graph jet by pushing the parametrized germ
through the point map, re-graphing over the image base point, and reading
the jet there (transform, invert, compose, extend).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .errors import (
    ChartDomain,
    NotGraph,
    OrderUnderflow,
    SchemaMismatch,
    SingularJacobian,
)
from .invariants import Signature, hessian_congruence
from .jetspace import GraphJet, jet_extend, to_poly
from .taylor import (
    TruncatedJet,
    compose,
    divide_rows,
    invert_map,
    linear_positions,
    linear_rows,
    mul_rows,
)

GEOMETRIES = ("euclidean", "affine", "projective", "conformal")

CHART_FOR_GEOMETRY = {
    "euclidean": "euclidean",
    "affine": "affine",
    "projective": "projective_affine_chart",
    "conformal": "sphere_stereographic",
}

ORTHOGONALITY_TOL = 1e-10
AFFINE_DET_TOL = 1e-10
# Relative tolerances: det(P) must be 1 up to this times |det P| times the
# condition number of P, and C^T J C must be J up to this times |C|^2 (the
# condition number of C), the size of the rounding error in either.
PROJECTIVE_DET_TOL = 1e-8
CONFORMAL_FORM_TOL = 1e-8

# Chart denominators closer to zero than this (relative) are rejected
# rather than divided through; keeps prolonged coefficients representable.
CHART_DENOM_RTOL = 1e-3


@dataclasses.dataclass(frozen=True)
class GeometryTag:
    name: str
    n: int

    def __post_init__(self):
        if self.name not in GEOMETRIES:
            raise SchemaMismatch(f"unknown geometry {self.name!r}")
        if self.n < 1:
            raise SchemaMismatch("need at least one independent variable")

    @property
    def chart(self) -> str:
        return CHART_FOR_GEOMETRY[self.name]


def _form_matrix(n: int) -> np.ndarray:
    J = np.eye(n + 3)
    J[0, 0] = -1.0
    return J


@dataclasses.dataclass(frozen=True)
class GroupElement:
    kind: str
    n: int
    mat: np.ndarray
    shift: np.ndarray | None = None

    def __post_init__(self):
        mat = np.array(self.mat, dtype=float)
        if not np.isfinite(mat).all():
            raise SchemaMismatch("group element entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if self.shift is not None:
            shift = np.array(self.shift, dtype=float).reshape(-1)
            shift.setflags(write=False)
            object.__setattr__(self, "shift", shift)
        n = self.n
        if self.kind == "euclidean":
            A = self.mat
            if A.shape != (n + 1, n + 1) or self.shift is None or self.shift.size != n + 1:
                raise SchemaMismatch("euclidean element needs (n+1)x(n+1) A and b")
            if np.linalg.norm(A.T @ A - np.eye(n + 1)) > ORTHOGONALITY_TOL:
                raise SchemaMismatch("A is not orthogonal")
            if abs(np.linalg.det(A) - 1.0) > ORTHOGONALITY_TOL:
                raise SchemaMismatch("A is not special orthogonal")
        elif self.kind == "affine":
            A = self.mat
            if A.shape != (n + 1, n + 1) or self.shift is None or self.shift.size != n + 1:
                raise SchemaMismatch("affine element needs (n+1)x(n+1) A and b")
            if abs(np.linalg.det(A)) < AFFINE_DET_TOL:
                raise SchemaMismatch("affine matrix is singular")
        elif self.kind == "projective":
            P = self.mat
            if P.shape != (n + 2, n + 2):
                raise SchemaMismatch("projective element needs an (n+2)x(n+2) matrix")
            det = np.linalg.det(P)
            if not abs(det - 1.0) <= PROJECTIVE_DET_TOL * np.linalg.cond(P) * abs(det):
                raise SchemaMismatch("projective matrix is not unimodular")
        elif self.kind == "conformal":
            C = self.mat
            if C.shape != (n + 3, n + 3):
                raise SchemaMismatch("conformal element needs an (n+3)x(n+3) matrix")
            J = _form_matrix(n)
            if not np.linalg.norm(C.T @ J @ C - J) <= CONFORMAL_FORM_TOL * np.linalg.norm(C) ** 2:
                raise SchemaMismatch("matrix does not preserve the ambient form")
        else:
            raise SchemaMismatch(f"unknown group element kind {self.kind!r}")

    @property
    def geometry(self) -> GeometryTag:
        return GeometryTag(self.kind, self.n)


def euclidean_element(A, b) -> GroupElement:
    A = np.asarray(A, dtype=float)
    return GroupElement("euclidean", A.shape[0] - 1, A, np.asarray(b, dtype=float))


def affine_element(A, b) -> GroupElement:
    A = np.asarray(A, dtype=float)
    return GroupElement("affine", A.shape[0] - 1, A, np.asarray(b, dtype=float))


def projective_element(P) -> GroupElement:
    P = np.asarray(P, dtype=float)
    return GroupElement("projective", P.shape[0] - 2, P)


def conformal_element(C) -> GroupElement:
    C = np.asarray(C, dtype=float)
    return GroupElement("conformal", C.shape[0] - 3, C)


def identity_element(tag: GeometryTag) -> GroupElement:
    n = tag.n
    if tag.name == "euclidean":
        return euclidean_element(np.eye(n + 1), np.zeros(n + 1))
    if tag.name == "affine":
        return affine_element(np.eye(n + 1), np.zeros(n + 1))
    if tag.name == "projective":
        return projective_element(np.eye(n + 2))
    return conformal_element(np.eye(n + 3))


def compose_elements(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The element acting as g1 after g2."""
    if g1.kind != g2.kind or g1.n != g2.n:
        raise SchemaMismatch("cannot compose elements of different groups")
    if g1.kind in ("euclidean", "affine"):
        return GroupElement(g1.kind, g1.n, g1.mat @ g2.mat, g1.mat @ g2.shift + g1.shift)
    if g1.kind == "projective":
        return GroupElement("projective", g1.n, _unimodular(g1.mat @ g2.mat))
    return GroupElement("conformal", g1.n, g1.mat @ g2.mat)


def inverse_element(g: GroupElement) -> GroupElement:
    if g.kind in ("euclidean", "affine"):
        Ainv = np.linalg.inv(g.mat)
        return GroupElement(g.kind, g.n, Ainv, -Ainv @ g.shift)
    if g.kind == "projective":
        return GroupElement("projective", g.n, _unimodular(np.linalg.inv(g.mat)))
    J = _form_matrix(g.n)
    return GroupElement("conformal", g.n, J @ g.mat.T @ J)


def _unimodular(P: np.ndarray) -> np.ndarray:
    det = np.linalg.det(P)
    if det <= 0.0:
        raise SchemaMismatch("cannot rescale a non-positive determinant to 1")
    return P / det ** (1.0 / P.shape[0])


# -- chart maps ---------------------------------------------------------------


def act_point(g: GroupElement, p) -> np.ndarray:
    """Image of a chart point (u, x^1, ..., x^n) under the point map."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != g.n + 1:
        raise SchemaMismatch(f"chart point needs {g.n + 1} components")
    if g.kind in ("euclidean", "affine"):
        return g.mat @ p + g.shift
    if g.kind == "projective":
        hom = np.concatenate([p, [1.0]])
        out = g.mat @ hom
        den = out[-1]
        if abs(den) < CHART_DENOM_RTOL * max(1.0, float(np.linalg.norm(out))):
            raise ChartDomain("projective image leaves the affine chart")
        return out[:-1] / den
    # conformal: chart -> cone (lambda = 1) -> act -> rescale -> chart
    m = float(p @ p)
    w = np.concatenate([[1.0], 4.0 * p / (m + 4.0), [(4.0 - m) / (m + 4.0)]])
    w = g.mat @ w
    den = w[-1] + w[0]
    if abs(den) < CHART_DENOM_RTOL * max(1.0, float(np.linalg.norm(w))):
        raise ChartDomain("conformal image hits the projection antipode")
    return 2.0 * w[1:-1] / den


def _chart_denominator(out: np.ndarray, den: np.ndarray, what: str) -> None:
    """Raise ChartDomain when the image denominator is too close to zero."""
    scale = max(1.0, max(abs(v) for v in out[:, 0].tolist()))
    if abs(float(den[0])) < CHART_DENOM_RTOL * scale:
        raise ChartDomain(what)


def _push_components(g: GroupElement, comps: np.ndarray, order: int) -> np.ndarray:
    """Apply the point map to an ambient-jet parametrization (u, x)(delta).

    ``comps`` holds the coefficient rows of the n + 1 chart coordinates as
    germs in n variables; so does the result.
    """
    n = comps.shape[0] - 1
    one = np.zeros(comps.shape[1])
    one[0] = 1.0

    if g.kind in ("euclidean", "affine"):
        return linear_rows(g.mat, comps, g.shift)

    if g.kind == "projective":
        out = linear_rows(g.mat, np.vstack([comps, one]))
        _chart_denominator(out, out[-1], "projective image leaves the affine chart")
        return divide_rows(out[:-1], out[-1], n, order)

    # conformal
    squares = mul_rows(comps, comps, n, order)
    m = squares[0]
    for sq in squares[1:]:
        m = m + sq
    den0 = m.copy()
    den0[0] += 4.0
    last = -m
    last[0] += 4.0
    lifted = divide_rows(np.vstack([comps * 4.0, last]), den0, n, order)
    out = linear_rows(g.mat, np.vstack([one, lifted]))
    den = out[-1] + out[0]
    _chart_denominator(out, den, "conformal image hits the projection antipode")
    return divide_rows(out[1:-1] * 2.0, den, n, order)


def prolong(g: GroupElement, j: GraphJet) -> GraphJet:
    """Jet of the transformed hypersurface at the transformed point.

    Reconstructs the germ (u(delta), x0 + delta), pushes it through the
    point map, inverts the image of the independent variables and reads
    the jet of the composed graph at the image base point.
    """
    if j.chart != g.geometry.chart:
        raise SchemaMismatch(f"jet chart {j.chart!r} does not match {g.kind} geometry")
    if j.n != g.n:
        raise SchemaMismatch("jet and group dimension differ")
    n, order = j.n, j.order
    poly = to_poly(j)
    comps = np.zeros((n + 1, poly.coeffs.size))
    comps[0] = poly.coeffs
    comps[np.arange(1, n + 1), linear_positions(n)] = 1.0
    comps[1:, 0] += j.base
    imgs = _push_components(g, comps, order)
    new_base = imgs[1:, 0].copy()
    deltas = imgs[1:].copy()
    deltas[:, 0] += -new_base
    try:
        inv = invert_map([TruncatedJet(n, order, d) for d in deltas])
    except SingularJacobian as exc:
        raise NotGraph(str(exc)) from exc
    regraphed = compose(TruncatedJet(n, order, imgs[0]), inv)
    return jet_extend(regraphed, new_base, order, j.chart)


# -- deterministic pseudorandom elements --------------------------------------


def _skew(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M - M.T)


def random_element(tag: GeometryTag, seed, scale: float) -> GroupElement:
    """Deterministic pseudorandom element at the given generator scale.

    Exponentials of scaled random Lie-algebra elements, re-projected onto
    the constraint set where cheap; scale = 0 yields the identity.
    """
    if scale < 0:
        raise SchemaMismatch("scale must be non-negative")
    rng = np.random.default_rng(seed)
    n = tag.n
    if tag.name == "euclidean":
        K = _skew(rng.standard_normal((n + 1, n + 1))) * scale
        A = scipy.linalg.expm(K)
        U, _, Vt = np.linalg.svd(A)
        A = U @ Vt
        b = scale * rng.standard_normal(n + 1)
        return euclidean_element(A, b)
    if tag.name == "affine":
        A = scipy.linalg.expm(scale * rng.standard_normal((n + 1, n + 1)))
        b = scale * rng.standard_normal(n + 1)
        return affine_element(A, b)
    if tag.name == "projective":
        M = scale * rng.standard_normal((n + 2, n + 2))
        M -= np.trace(M) / (n + 2) * np.eye(n + 2)
        return projective_element(_unimodular(scipy.linalg.expm(M)))
    J = _form_matrix(n)
    X = J @ _skew(rng.standard_normal((n + 3, n + 3))) * scale
    return conformal_element(scipy.linalg.expm(X))


# -- normalization to the origin ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class Normalization:
    element: GroupElement
    jet: GraphJet
    signature: Signature | None = None


def _minimal_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation mapping unit vector a to unit vector b, identity on their
    orthogonal complement (well-defined because a . b > -1 here)."""
    c = float(a @ b)
    v = a + b
    return np.eye(a.size) - np.outer(v, v) / (1.0 + c) + 2.0 * np.outer(b, a)


def normalize_to_origin(tag: GeometryTag, j: GraphJet) -> Normalization:
    """Group element carrying the jet to the origin in normal form.

    Euclidean: base to the origin and tangent plane to the horizontal
    (minimal rotation of the upward unit normal onto e_0); needs order >= 2.
    Affine/projective: additionally kills the gradient by a fiber shear and
    brings the Hessian to 2 diag(1_d, -1_{n-d}) by congruence; needs order 3
    and det(hess) bounded away from zero.  The returned jet is the actual
    prolongation of the returned element, so the postcondition is
    self-checking.
    """
    if j.chart != tag.chart or j.n != tag.n:
        raise SchemaMismatch("jet chart does not match the geometry")
    n = j.n
    p0 = j.point()

    if tag.name == "euclidean":
        if j.order < 2:
            raise OrderUnderflow("euclidean normalization needs order >= 2")
        rho = 1.0 + float(j.grad @ j.grad)
        nu = np.concatenate([[1.0], -j.grad]) / math.sqrt(rho)
        e0 = np.zeros(n + 1)
        e0[0] = 1.0
        R = _minimal_rotation(nu, e0)
        U, _, Vt = np.linalg.svd(R)
        R = U @ Vt
        g = euclidean_element(R, -R @ p0)
        return Normalization(g, prolong(g, j), None)

    if tag.name in ("affine", "projective"):
        if j.order != 3:
            raise OrderUnderflow("third-order normalization needs order 3")
        B, signature = hessian_congruence(j.hess)
        A = np.zeros((n + 1, n + 1))
        A[0, 0] = 1.0
        A[0, 1:] = -j.grad
        A[1:, 1:] = B
        b = -A @ p0
        if tag.name == "affine":
            g = affine_element(A, b)
        else:
            P = np.zeros((n + 2, n + 2))
            P[: n + 1, : n + 1] = A
            P[: n + 1, n + 1] = b
            P[n + 1, n + 1] = 1.0
            g = projective_element(_unimodular(P))
        return Normalization(g, prolong(g, j), signature)

    raise SchemaMismatch("conformal normalization is not provided")


# -- JSON wire format ----------------------------------------------------------


def element_to_json(g: GroupElement) -> dict:
    out = {"type": g.kind, "n": g.n}
    if g.kind in ("euclidean", "affine"):
        out["A"] = g.mat.tolist()
        out["b"] = g.shift.tolist()
    elif g.kind == "projective":
        out["P"] = g.mat.tolist()
    else:
        out["C"] = g.mat.tolist()
    return out


def element_from_json(d: dict) -> GroupElement:
    try:
        kind = d["type"]
        if kind in ("euclidean", "affine"):
            return GroupElement(kind, int(d["n"]), np.array(d["A"]), np.array(d["b"]))
        if kind == "projective":
            return GroupElement(kind, int(d["n"]), np.array(d["P"]))
        if kind == "conformal":
            return GroupElement(kind, int(d["n"]), np.array(d["C"]))
        raise SchemaMismatch(f"unknown element type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"bad group element record: {exc}") from exc

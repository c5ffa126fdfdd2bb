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
the jet there (transform, invert, compose, extend).  It runs on a batch:
:func:`prolong_batch` moves N jets by N elements of one group, given as an
:class:`Elements` stack, and :func:`prolong` is its batch of one.  Likewise
:func:`random_elements` draws one element per seed and
:func:`random_element` is its batch of one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    ChartDomain,
    NotGraph,
    OrderUnderflow,
    SchemaMismatch,
)
from .invariants import Signature, hessian_congruence
from .jetspace import GraphJet, JetBatch, extend_rows, poly_rows
from .taylor import (
    compose_rows,
    divide_rows,
    invert_rows,
    linear_positions,
    linear_rows,
    mul_rows,
    norm_rows,
    pow_rows,
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
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if self.shift is not None:
            shift = np.array(self.shift, dtype=float).reshape(-1)
            shift.setflags(write=False)
            object.__setattr__(self, "shift", shift)
        _check_elements(Elements(self.kind, self.n, mat[None],
                                 None if self.shift is None else self.shift[None]))

    @property
    def geometry(self) -> GeometryTag:
        return GeometryTag(self.kind, self.n)


class Elements(NamedTuple):
    """N elements of one group as stacks: ``mat`` (N, k, k) and, for the
    Euclidean and affine groups, ``shift`` (N, n + 1)."""

    kind: str
    n: int
    mat: np.ndarray
    shift: np.ndarray | None = None


def _check_elements(g: Elements) -> None:
    """The GroupElement validators, run on every element of the stack;
    raises SchemaMismatch when any element fails."""
    kind, n, mat, shift = g
    count = len(mat)
    if not np.isfinite(mat).all():
        raise SchemaMismatch("group element entries must be finite")
    if kind in ("euclidean", "affine"):
        if mat.shape[1:] != (n + 1, n + 1) or shift is None or shift.shape[1:] != (n + 1,):
            raise SchemaMismatch(f"{kind} element needs (n+1)x(n+1) A and b")
        det = np.linalg.det(mat)
        if kind == "affine":
            if (np.abs(det) < AFFINE_DET_TOL).any():
                raise SchemaMismatch("affine matrix is singular")
            return
        gram = (mat.swapaxes(1, 2) @ mat - np.eye(n + 1)).reshape(count, -1)
        if (norm_rows(gram) > ORTHOGONALITY_TOL).any():
            raise SchemaMismatch("A is not orthogonal")
        if (np.abs(det - 1.0) > ORTHOGONALITY_TOL).any():
            raise SchemaMismatch("A is not special orthogonal")
    elif kind == "projective":
        if mat.shape[1:] != (n + 2, n + 2):
            raise SchemaMismatch("projective element needs an (n+2)x(n+2) matrix")
        det = np.linalg.det(mat)
        if not (np.abs(det - 1.0) <= PROJECTIVE_DET_TOL * np.linalg.cond(mat) * np.abs(det)).all():
            raise SchemaMismatch("projective matrix is not unimodular")
    elif kind == "conformal":
        if mat.shape[1:] != (n + 3, n + 3):
            raise SchemaMismatch("conformal element needs an (n+3)x(n+3) matrix")
        J = _form_matrix(n)
        defect = (mat.swapaxes(1, 2) @ J @ mat - J).reshape(count, -1)
        bound = CONFORMAL_FORM_TOL * pow_rows(norm_rows(mat.reshape(count, -1)), 2)
        if not (norm_rows(defect) <= bound).all():
            raise SchemaMismatch("matrix does not preserve the ambient form")
    else:
        raise SchemaMismatch(f"unknown group element kind {kind!r}")


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
    """P (or each matrix of a stack) rescaled to determinant 1."""
    det = np.linalg.det(P)
    if (det <= 0.0).any():
        raise SchemaMismatch("cannot rescale a non-positive determinant to 1")
    return P / pow_rows(det, 1.0 / P.shape[-1])[..., None, None]


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


def _chart_domain(out: np.ndarray, den: np.ndarray, what: str) -> dict:
    """{sample: ChartDomain} for the samples whose image denominator
    ``den[s, 0]`` is too close to zero against the image ``out[s, :, 0]``."""
    scale = np.fmax(1.0, np.abs(out[:, :, 0]).max(axis=1))
    bad = np.abs(den[:, 0]) < CHART_DENOM_RTOL * scale
    return {int(i): ChartDomain(what) for i in np.flatnonzero(bad)} if bad.any() else {}


def _drop(rows: np.ndarray, errors: dict) -> np.ndarray:
    """The rows whose positions are not keys of ``errors``."""
    return np.delete(rows, list(errors), axis=0) if errors else rows


def _push_components(g: Elements, comps: np.ndarray, order: int) -> tuple[np.ndarray, dict]:
    """Apply the point maps to ambient-jet parametrizations (u, x)(delta).

    ``comps`` (N, n + 1, size) holds the coefficient rows of the n + 1
    chart coordinates of each sample as germs in n variables; so does the
    result, for the samples whose image stays in the chart.  The others
    are returned as {sample: ChartDomain}.
    """
    count, n = comps.shape[0], comps.shape[1] - 1
    one = np.zeros((count, 1, comps.shape[2]))
    one[:, :, 0] = 1.0

    if g.kind in ("euclidean", "affine"):
        return linear_rows(g.mat, comps, g.shift), {}

    if g.kind == "projective":
        out = linear_rows(g.mat, np.concatenate([comps, one], axis=1))
        errors = _chart_domain(out, out[:, -1], "projective image leaves the affine chart")
        out = _drop(out, errors)
        return divide_rows(out[:, :-1], out[:, -1], n, order), errors

    # conformal
    squares = mul_rows(comps, comps, n, order)
    m = squares[:, 0]
    for k in range(1, n + 1):
        m = m + squares[:, k]
    den0 = m.copy()
    den0[:, 0] += 4.0
    last = -m
    last[:, 0] += 4.0
    lifted = divide_rows(np.concatenate([comps * 4.0, last[:, None]], axis=1), den0, n, order)
    out = linear_rows(g.mat, np.concatenate([one, lifted], axis=1))
    den = out[:, -1] + out[:, 0]
    errors = _chart_domain(out, den, "conformal image hits the projection antipode")
    out, den = _drop(out, errors), _drop(den, errors)
    return divide_rows(out[:, 1:-1] * 2.0, den, n, order), errors


def prolong_batch(g: Elements, jets: JetBatch) -> tuple[JetBatch, dict]:
    """Jets of the transformed hypersurfaces at the transformed points.

    Sample s moves ``jets`` row s by element s of ``g``: the germ
    (u(delta), x0 + delta) is pushed through the point map, the image of
    the independent variables inverted and the composed graph's jet read
    at the image base point.  Returns the moved jets of the samples that
    stay graphs in the chart, in order, and {sample: NotGraph or
    ChartDomain} for the others, which no later step sees.
    """
    n, order = jets.n, jets.order
    poly = poly_rows(jets, order)
    comps = np.zeros((len(jets), n + 1, poly.shape[1]))
    comps[:, 0] = poly
    comps[:, np.arange(1, n + 1), linear_positions(n)] = 1.0
    comps[:, 1:, 0] += jets.base
    imgs, skips = _push_components(g, comps, order)
    new_base = imgs[:, 1:, 0].copy()
    deltas = imgs[:, 1:].copy()
    deltas[:, :, 0] += -new_base
    inv, singular = invert_rows(deltas, n, order)
    if singular:
        rows = _drop(np.arange(len(jets)), skips)
        for i, exc in singular.items():
            skips[int(rows[i])] = err = NotGraph(str(exc))
            err.__cause__ = exc
        keep = _drop(np.arange(len(rows)), singular)
        imgs, new_base = imgs[keep], new_base[keep]
    # the inverse germs have zero constant terms, so the outer germ is
    # composed as it is, about the origin
    regraphed = compose_rows(imgs[:, :1], inv, n, order)[:, 0]
    return extend_rows(regraphed, new_base, order, jets.chart), skips


def prolong(g: GroupElement, j: GraphJet) -> GraphJet:
    """Jet of the transformed hypersurface at the transformed point: the
    batch of one of :func:`prolong_batch`, raising its skip."""
    if j.chart != g.geometry.chart:
        raise SchemaMismatch(f"jet chart {j.chart!r} does not match {g.kind} geometry")
    if j.n != g.n:
        raise SchemaMismatch("jet and group dimension differ")
    shift = None if g.shift is None else g.shift[None]
    moved, skips = prolong_batch(Elements(g.kind, g.n, g.mat[None], shift), JetBatch.of([j]))
    if skips:
        raise skips[0]
    return moved.jet(0)


# -- deterministic pseudorandom elements --------------------------------------


def _skew(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M - M.T)


def _draw_elements(tag: GeometryTag, seeds, scale: float) -> Elements:
    """Unchecked elements, one per seed: each seed's generator draws the
    Lie-algebra element (and shift), then one stacked ``expm`` and
    re-projection make the group elements."""
    if scale < 0:
        raise SchemaMismatch("scale must be non-negative")
    n = tag.n
    gens, shifts = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        if tag.name == "euclidean":
            gens.append(_skew(rng.standard_normal((n + 1, n + 1))) * scale)
        elif tag.name == "affine":
            gens.append(scale * rng.standard_normal((n + 1, n + 1)))
        elif tag.name == "projective":
            M = scale * rng.standard_normal((n + 2, n + 2))
            M -= np.trace(M) / (n + 2) * np.eye(n + 2)
            gens.append(M)
        else:
            gens.append(_form_matrix(n) @ _skew(rng.standard_normal((n + 3, n + 3))) * scale)
        if tag.name in ("euclidean", "affine"):
            shifts.append(scale * rng.standard_normal(n + 1))
    mat = scipy.linalg.expm(np.array(gens))
    if tag.name == "euclidean":
        U, _, Vt = np.linalg.svd(mat)
        mat = U @ Vt
    elif tag.name == "projective":
        mat = _unimodular(mat)
    return Elements(tag.name, n, mat, np.array(shifts) if shifts else None)


def random_elements(tag: GeometryTag, seeds, scale: float) -> Elements:
    """Deterministic pseudorandom elements, one per seed, at the given
    generator scale, checked by the GroupElement validators.

    Exponentials of scaled random Lie-algebra elements, re-projected onto
    the constraint set where cheap; scale = 0 yields the identity.
    """
    g = _draw_elements(tag, seeds, scale)
    _check_elements(g)
    return g


def random_element(tag: GeometryTag, seed, scale: float) -> GroupElement:
    """The batch of one of :func:`random_elements`."""
    g = _draw_elements(tag, [seed], scale)
    return GroupElement(g.kind, g.n, g.mat[0], None if g.shift is None else g.shift[0])


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

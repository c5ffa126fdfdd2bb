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
:func:`random_elements` draws one element per generator and
:func:`random_element` is its batch of one, from ``default_rng(seed)``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ChartDomain,
    NotGraph,
    OrderUnderflow,
    SchemaMismatch,
    integer_field,
)
from .geometries import GEOMETRIES, GEOMETRY, Geometry
from .invariants import Signature, _trace, hessian_congruence
from .jetspace import GraphJet, JetBatch, extend_rows, poly_rows
from .taylor import (
    MAX_VARS,
    compose_rows,
    coordinate_rows,
    divide_rows,
    invert_rows,
    linear_rows,
    mul_rows,
    norm_rows,
    pow_rows,
)

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

# A normalized jet sits in normal form up to this times 1 + max|entry| of
# the entries each part is computed from: the base point and u against the
# jet's point, the gradient against its gradient, hess - 2 eps against the
# moved Hessian.  Rounding leaves about 1e-8 of the last at the edge of
# DEGENERATE_HESSIAN_RTOL, and up to 5e-10 of the first two on jets with
# 1-jet entries up to 1e6 and Hessian entries up to 1e12.
NORMAL_FORM_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class GeometryTag:
    name: str
    n: int

    def __post_init__(self):
        if self.name not in GEOMETRIES:
            raise SchemaMismatch(f"unknown geometry {self.name!r}")
        if self.n < 1:
            raise SchemaMismatch("need at least one independent variable")
        if self.n > MAX_VARS:
            raise SchemaMismatch(f"n = {self.n} exceeds the Taylor engine's limit of {MAX_VARS} variables")

    @property
    def facts(self) -> Geometry:
        return GEOMETRY[self.name]

    @property
    def chart(self) -> str:
        return self.facts.chart


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
    groups whose record has a shift, ``shift`` (N, n + 1)."""

    kind: str
    n: int
    mat: np.ndarray
    shift: np.ndarray | None = None


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays if a is not None):
        raise SchemaMismatch("group element entries must be finite")


def _check_elements(g: Elements) -> None:
    """The GroupElement validators, run on every element of the stack;
    raises SchemaMismatch when any element fails."""
    kind, n, mat, shift = g
    count = len(mat)
    _check_finite(mat, shift)
    if kind not in GEOMETRIES:
        raise SchemaMismatch(f"unknown group element kind {kind!r}")
    facts = GEOMETRY[kind]
    k = facts.size(n)
    shift_ok = shift is not None and shift.shape[1:] == (n + 1,) if facts.shifted else shift is None
    if mat.shape[1:] != (k, k) or not shift_ok:
        with_shift = "a shift b of length n+1" if facts.shifted else "no shift"
        raise SchemaMismatch(f"{kind} element needs a {k}x{k} matrix and {with_shift}")
    if kind in ("euclidean", "affine"):
        det = np.linalg.det(mat)
        if kind == "affine":
            if (np.abs(det) < AFFINE_DET_TOL).any():
                raise SchemaMismatch("affine matrix is singular")
            return
        gram = (mat.swapaxes(1, 2) @ mat - np.eye(k)).reshape(count, k * k)
        if (norm_rows(gram) > ORTHOGONALITY_TOL).any():
            raise SchemaMismatch("A is not orthogonal")
        if (np.abs(det - 1.0) > ORTHOGONALITY_TOL).any():
            raise SchemaMismatch("A is not special orthogonal")
    elif kind == "projective":
        det = np.linalg.det(mat)
        if not (np.abs(det - 1.0) <= PROJECTIVE_DET_TOL * np.linalg.cond(mat) * np.abs(det)).all():
            raise SchemaMismatch("projective matrix is not unimodular")
    else:
        J = _form_matrix(n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect or bound fails
            defect = norm_rows((mat.swapaxes(1, 2) @ J @ mat - J).reshape(count, k * k))
            bound = CONFORMAL_FORM_TOL * pow_rows(norm_rows(mat.reshape(count, k * k)), 2)
        if not (np.isfinite(bound) & (defect <= bound)).all():
            raise SchemaMismatch("matrix does not preserve the ambient form")


def _element(kind: str, mat, shift=None) -> GroupElement:
    mat = np.asarray(mat, dtype=float)
    return GroupElement(kind, mat.shape[0] - GEOMETRY[kind].extra, mat, shift)


def euclidean_element(A, b) -> GroupElement:
    return _element("euclidean", A, b)


def affine_element(A, b) -> GroupElement:
    return _element("affine", A, b)


def projective_element(P) -> GroupElement:
    return _element("projective", P)


def conformal_element(C) -> GroupElement:
    return _element("conformal", C)


def identity_element(tag: GeometryTag) -> GroupElement:
    facts = tag.facts
    shift = np.zeros(tag.n + 1) if facts.shifted else None
    return GroupElement(tag.name, tag.n, np.eye(facts.size(tag.n)), shift)


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


def _off_chart(out: np.ndarray, den) -> np.ndarray:
    """Whether each image denominator ``den`` is too close to zero against
    the largest entry of its image, the last axis of ``out``."""
    return np.abs(den) < CHART_DENOM_RTOL * np.fmax(1.0, np.abs(out).max(axis=-1))


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
        if _off_chart(out, den):
            raise ChartDomain("projective image leaves the affine chart")
        return out[:-1] / den
    # conformal: chart -> cone (lambda = 1) -> act -> rescale -> chart
    m = float(p @ p)
    w = np.concatenate([[1.0], 4.0 * p / (m + 4.0), [(4.0 - m) / (m + 4.0)]])
    w = g.mat @ w
    den = w[-1] + w[0]
    if _off_chart(w, den):
        raise ChartDomain("conformal image hits the projection antipode")
    return 2.0 * w[1:-1] / den


def _chart_domain(errors: dict, bad: np.ndarray, what: str) -> None:
    """Records ChartDomain(what) under each sample of the mask ``bad`` that
    has not failed yet."""
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            errors.setdefault(i, ChartDomain(what))


def _caused(errors: dict, found: dict, kind) -> None:
    """Records a ``kind`` error caused by each error ``found`` under its
    sample, unless that sample has failed already."""
    for i, exc in found.items():
        if i not in errors:
            errors[i] = kind(str(exc))
            errors[i].__cause__ = exc


def _push_components(g: Elements, comps: np.ndarray, order: int) -> tuple[np.ndarray, dict]:
    """Apply the point maps to ambient-jet parametrizations (u, x)(delta).

    ``comps`` (N, n + 1, size) holds the coefficient rows of the n + 1
    chart coordinates of each sample as germs in n variables; so does the
    result, one row per sample.  The samples whose image leaves the chart
    are returned as {sample: ChartDomain}, under their first error: an
    image denominator too close to zero, or a divisor that fails the
    division test (the ChartDomain is caused by its DivisionBySingular).
    """
    count, n = comps.shape[0], comps.shape[1] - 1
    if g.kind in ("euclidean", "affine"):
        return linear_rows(g.mat, comps, g.shift), {}
    one = np.zeros((count, 1, comps.shape[2]))
    one[:, :, 0] = 1.0
    errors: dict = {}

    if g.kind == "projective":
        out = linear_rows(g.mat, np.concatenate([comps, one], axis=1))
        _chart_domain(errors, _off_chart(out[:, :, 0], out[:, -1, 0]), "projective image leaves the affine chart")
        quotients, singular = divide_rows(out[:, :-1], out[:, -1], n, order)
        _caused(errors, singular, ChartDomain)
        return quotients, errors

    # conformal
    squares = mul_rows(comps, comps, n, order)
    m = squares[:, 0]
    for k in range(1, n + 1):
        m = m + squares[:, k]
    den0 = m.copy()
    den0[:, 0] += 4.0
    last = -m
    last[:, 0] += 4.0
    lifted, singular = divide_rows(np.concatenate([comps * 4.0, last[:, None]], axis=1), den0, n, order)
    _caused(errors, singular, ChartDomain)
    out = linear_rows(g.mat, np.concatenate([one, lifted], axis=1))
    den = out[:, -1] + out[:, 0]
    _chart_domain(errors, _off_chart(out[:, :, 0], den[:, 0]), "conformal image hits the projection antipode")
    quotients, singular = divide_rows(out[:, 1:-1] * 2.0, den, n, order)
    _caused(errors, singular, ChartDomain)
    return quotients, errors


def prolong_batch(g: Elements, jets: JetBatch) -> tuple[JetBatch, dict]:
    """Jets of the transformed hypersurfaces at the transformed points.

    Sample s moves ``jets`` row s by element s of ``g``: the germ
    (u(delta), x0 + delta) is pushed through the point map, the image of
    the independent variables inverted and the composed graph's jet read
    at the image base point.  Every step runs on every sample, and a
    sample keeps its first error; one that has failed inverts the identity
    germ.  Returns the moved jets of the samples that stay graphs in the
    chart, in order, and {sample: NotGraph or ChartDomain} for the others,
    which are dropped once, as their jets are read.  A sample whose image
    or moved jet overflows is a ChartDomain skip, found without a warning.
    """
    n, order = jets.n, jets.order
    poly = poly_rows(jets)
    comps = np.empty((len(jets), n + 1, poly.shape[1]))
    comps[:, 0] = poly
    comps[:, 1:] = coordinate_rows(n, order)
    comps[:, 1:, 0] += jets.base
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sample is skipped
        imgs, skips = _push_components(g, comps, order)
        _chart_domain(skips, ~np.isfinite(imgs).all(axis=(1, 2)), "prolongation overflows")
        new_base = imgs[:, 1:, 0].copy()
        deltas = imgs[:, 1:].copy()
        deltas[:, :, 0] += -new_base
        if skips:
            deltas[list(skips)] = coordinate_rows(n, order)
        inv, singular = invert_rows(deltas, n, order)
        _caused(skips, singular, NotGraph)
        # the inverse germs have zero constant terms, so the outer germ is
        # composed as it is, about the origin
        regraphed = compose_rows(imgs[:, :1], inv, n, order)[:, 0]
    if skips:  # a failed sample has no base point, so extend_rows drops it
        new_base[list(skips)] = np.nan
    moved, finite = extend_rows(regraphed, new_base, order, jets.chart)
    _chart_domain(skips, ~finite, "prolongation overflows")
    return moved, skips


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
    """The skew part of a matrix (k, k), or of each matrix of a stack (N, k, k)."""
    return 0.5 * (M - M.swapaxes(-1, -2))


def _draw_elements(tag: GeometryTag, rngs, scale: float) -> Elements:
    """Unchecked elements, one per generator: each generator fills its
    Lie-algebra element's normals (then its shift's) in one preallocated
    stack, then the stack is made into Lie-algebra elements and one stacked
    ``expm`` and re-projection make the group elements.  The scale must be
    finite, and an exponential that overflows raises before the
    re-projection."""
    import scipy.linalg  # imported by its one caller: runs that draw no element never load it

    if scale < 0:
        raise SchemaMismatch("scale must be non-negative")
    if not math.isfinite(scale):
        raise SchemaMismatch("scale must be finite")
    n, k = tag.n, tag.facts.size(tag.n)
    gens = np.empty((len(rngs), k, k))
    shifts = np.empty((len(rngs), n + 1)) if tag.facts.shifted else None
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=gens[i])
        if shifts is not None:
            rng.standard_normal(out=shifts[i])
    # an overflow to inf or nan is caught by _check_finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if tag.name == "euclidean":
            gens = _skew(gens) * scale
        elif tag.name == "affine":
            gens = scale * gens
        elif tag.name == "projective":
            gens = scale * gens
            gens -= (_trace(gens) / (n + 2))[:, None, None] * np.eye(n + 2)
        else:
            gens = _form_matrix(n) @ _skew(gens) * scale
        if shifts is not None:
            shifts = scale * shifts
        mat = scipy.linalg.expm(gens)
    _check_finite(mat)
    if tag.name == "euclidean":
        U, _, Vt = np.linalg.svd(mat)
        mat = U @ Vt
    elif tag.name == "projective":
        mat = _unimodular(mat)
    return Elements(tag.name, n, mat, shifts)


def random_elements(tag: GeometryTag, rngs, scale: float) -> Elements:
    """Pseudorandom elements, one drawn from each generator, at the given
    generator scale, checked by the GroupElement validators.

    Exponentials of scaled random Lie-algebra elements, re-projected onto
    the constraint set where cheap; scale = 0 yields the identity.
    """
    g = _draw_elements(tag, rngs, scale)
    _check_elements(g)
    return g


def random_element(tag: GeometryTag, seed, scale: float) -> GroupElement:
    """The batch of one of :func:`random_elements`, drawn from
    ``np.random.default_rng(seed)``."""
    g = _draw_elements(tag, [np.random.default_rng(seed)], scale)
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


def _normalizing_element(tag: GeometryTag, j: GraphJet) -> tuple[GroupElement, Signature | None]:
    """The element of :func:`normalize_to_origin`, and at third order the Hessian's signature."""
    n = j.n
    p0 = j.point()
    if tag.name == "euclidean":
        rho = 1.0 + float(j.grad @ j.grad)
        nu = np.concatenate([[1.0], -j.grad]) / math.sqrt(rho)
        e0 = np.zeros(n + 1)
        e0[0] = 1.0
        R = _minimal_rotation(nu, e0)
        U, _, Vt = np.linalg.svd(R)
        R = U @ Vt
        return euclidean_element(R, -R @ p0), None
    B, signature = hessian_congruence(j.hess)
    A = np.zeros((n + 1, n + 1))
    A[0, 0] = 1.0
    A[0, 1:] = -j.grad
    A[1:, 1:] = B
    b = -A @ p0
    if tag.name == "affine":
        return affine_element(A, b), signature
    P = np.zeros((n + 2, n + 2))
    P[: n + 1, : n + 1] = A
    P[: n + 1, n + 1] = b
    P[n + 1, n + 1] = 1.0
    return projective_element(_unimodular(P)), signature


def normalize_to_origin(tag: GeometryTag, j: GraphJet) -> Normalization:
    """Group element carrying the jet to the origin in normal form.

    Euclidean: base to the origin and tangent plane to the horizontal
    (minimal rotation of the upward unit normal onto e_0); needs order >= 2.
    Affine/projective: additionally kills the gradient by a fiber shear and
    brings the Hessian to 2 diag(1_d, -1_{n-d}) by congruence; needs order 3
    and det(hess) bounded away from zero.  The returned jet is the
    prolongation of the returned element, checked against that normal form
    within NORMAL_FORM_RTOL, each part relative to the entries it is
    computed from, so that a huge Hessian cannot hide a gradient left in
    place: a jet that misses it, or whose element fails its checks (an
    overflow, say), raises ChartDomain.
    """
    if j.chart != tag.chart or j.n != tag.n:
        raise SchemaMismatch("jet chart does not match the geometry")
    if not tag.facts.normal_form:
        raise SchemaMismatch(f"{tag.name} normalization is not provided")
    if tag.name == "euclidean" and j.order < 2:
        raise OrderUnderflow("euclidean normalization needs order >= 2")
    if tag.name != "euclidean" and j.order != 3:
        raise OrderUnderflow("third-order normalization needs order 3")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or nan, which the checks read
        try:
            g, signature = _normalizing_element(tag, j)
        except SchemaMismatch as exc:
            raise ChartDomain(f"no normalizing element: {exc}") from exc
    out = prolong(g, j)
    # each part of the normal form against the entries its rounding scales with
    parts = [(out.point(), j.point()), (out.grad, j.grad)]
    if signature is not None:
        parts.append((out.hess.data - 2.0 * signature.metric().data, out.hess.data))  # hess - 2 eps
    if not all(np.abs(off).max() <= NORMAL_FORM_RTOL * (1.0 + np.abs(size).max()) for off, size in parts):
        raise ChartDomain("the moved jet misses the normal form")
    return Normalization(g, out, signature)


# -- JSON wire format ----------------------------------------------------------


def element_to_json(g: GroupElement) -> dict:
    out = {"type": g.kind, "n": g.n, GEOMETRY[g.kind].json_key: g.mat.tolist()}
    if g.shift is not None:
        out["b"] = g.shift.tolist()
    return out


def element_from_json(d: dict) -> GroupElement:
    """The element of a record; a ``"b"`` is read whenever present, so that
    the element check rejects it for a group without a shift."""
    try:
        kind = d["type"]
        if kind not in GEOMETRIES:
            raise SchemaMismatch(f"unknown element type {kind!r}")
        facts = GEOMETRY[kind]
        shift = np.array(d["b"]) if facts.shifted or "b" in d else None
        return GroupElement(kind, integer_field(d, "n"), np.array(d[facts.json_key]), shift)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"bad group element record: {exc}") from exc

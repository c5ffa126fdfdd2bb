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
import functools
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
    """Image of a chart point (u, x^1, ..., x^n) under the point map.  A
    non-finite point is a SchemaMismatch; an image that overflows is a
    ChartDomain, found without a warning, as :func:`prolong_batch` finds it."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != g.n + 1:
        raise SchemaMismatch(f"chart point needs {g.n + 1} components")
    if not np.isfinite(p).all():
        raise SchemaMismatch("chart point must be finite")
    with np.errstate(all="ignore"):  # an overflow is a non-finite image, read below
        if g.kind in ("euclidean", "affine"):
            image = g.mat @ p + g.shift
        elif g.kind == "projective":
            out = g.mat @ np.concatenate([p, [1.0]])
            if _off_chart(out, out[-1]):
                raise ChartDomain("projective image leaves the affine chart")
            image = out[:-1] / out[-1]
        else:  # conformal: chart -> cone (lambda = 1) -> act -> rescale -> chart
            m = float(p @ p)
            w = g.mat @ np.concatenate([[1.0], 4.0 * p / (m + 4.0), [(4.0 - m) / (m + 4.0)]])
            den = w[-1] + w[0]
            if _off_chart(w, den):
                raise ChartDomain("conformal image hits the projection antipode")
            image = 2.0 * w[1:-1] / den
    if not np.isfinite(image).all():
        raise ChartDomain("point image overflows")
    return image


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
    if j.chart != GEOMETRY[g.kind].chart:
        raise SchemaMismatch(f"jet chart {j.chart!r} does not match {g.kind} geometry")
    if j.n != g.n:
        raise SchemaMismatch("jet and group dimension differ")
    shift = None if g.shift is None else g.shift[None]
    moved, skips = prolong_batch(Elements(g.kind, g.n, g.mat[None], shift), JetBatch.one(j))
    if skips:
        raise skips[0]
    return moved.jet(0)


# -- the matrix exponential ---------------------------------------------------
#
# Scaling and squaring with a Pade approximant, as scipy.linalg.expm (1.17)
# runs it on a general matrix: Al-Mohy and Higham, "A new scaling and
# squaring algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl.
# 31(3), 2009.  The degree m is the first of 3, 5, 7, 9 whose eta is at most
# _THETA and whose ell is 0, else 13 with the scaling
# s = max(ceil(log2(min(max(d6, d8), max(d8, d10)) / 4.25)), 0) + ell(2^-s A, 13);
# ell(A, m) is the ceiling of log2(||(|A|)^(2m+1)||_1 / (||A||_1 c_m u)) / 2m,
# at least 0, where c_m = C(2m, m) (2m + 1)! and u = 2^-53.

_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE = (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
     110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
     129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
     40840800.0, 960960.0, 16380.0, 182.0, 1.0),
)
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                   2.097847961257068])
_THETA_13 = 4.25
_ELL = np.array([2.0**-53 * math.comb(2 * m, m) * math.factorial(2 * m + 1) for m in _PADE_DEGREES])
# One stack L holds A4, A6, A8, A10, |A|, A, A2, |A|^2, |A|^4, |A|^8, in an
# order that makes each stage of products one matmul over strided views.
# eta of degrees 3, 5 is max(d4, d6) and of 7, 9 max(d6, d8), with
# d_p = ||A^p||_1^(1/p); ell reads e^T |A|^p for p = 1, 3, 7, 11, 15, 19, 27.
_ROOTS = np.array([1 / 4, 1 / 6, 1 / 8, 1 / 10])
_ETA = np.array([0, 0, 1, 1])
# The terms of Z and Y, in the order scipy sums them:
#   U = A (A6 Z_U + Y_U),  V = A6 Z_V + Y_V,
#   Z = b A6 + b A4 + b A2 (degree 13 only),  Y = b A8 + b A6 + b A4 + b A2 + b I.
# The four Z terms end in 0 A2, and the degrees that lack a term have b = 0:
# adding a zero product changes no sum.  Degree 13 scales A^p by 2^-ps.
_TERMS = np.array([[1, 0, 6, 6], [2, 1, 0, 6]])
_SCALING = -np.array([[6, 4, 2, 2], [8, 6, 4, 2]])


def _pade_table() -> tuple[np.ndarray, np.ndarray]:
    """Per degree, the coefficients of the _TERMS of [Z, Y] x [U, V], and
    of I in [Y_U, Y_V]."""
    terms = np.zeros((len(_PADE), 2, 2, 4))
    unit = np.zeros((len(_PADE), 2))
    for i, b in enumerate(_PADE):
        m = len(b) - 1
        for side in (0, 1):  # U takes the odd coefficients, V the even ones
            if m == 13:
                terms[i, 0, side, :3] = b[13 - side], b[11 - side], b[9 - side]
                terms[i, 1, side, 1:] = b[7 - side], b[5 - side], b[3 - side]
            else:
                terms[i, 1, side] = [b[p + 1 - side] if p < m else 0.0 for p in (8, 6, 4, 2)]
            unit[i, side] = b[1 - side]
    return terms, unit


_PADE_TERMS, _PADE_UNIT = _pade_table()


def _max_entry(x: np.ndarray) -> np.ndarray:
    """The largest entry along the last axis of (N, M, k), reduced over a
    leading axis (numpy reduces a short last axis much more slowly)."""
    return x.swapaxes(0, -1).copy().max(axis=0).T


def _abs_power_norms(B2: np.ndarray, B4: np.ndarray, B8: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Given v[:, 0] = e^T B (N, k) and the squares of B (N, k, k), e^T B^p
    for p = 3, 7, 11, 15, 19, 27 into v[:, 1:7]; returns v."""
    np.matmul(v[:, 0:1], B2, out=v[:, 1:2])
    np.matmul(v[:, 1:2], B4, out=v[:, 2:3])
    np.matmul(v[:, 1:3], B8, out=v[:, 3:5])
    np.matmul(v[:, 3:4], B8, out=v[:, 5:6])
    np.matmul(v[:, 5:6], B8, out=v[:, 6:7])
    return v


@functools.lru_cache(maxsize=None)
def _ones_and_eye(k: int) -> tuple[np.ndarray, np.ndarray]:
    ones, eye = np.ones(k), np.eye(k)
    ones.setflags(write=False)
    eye.setflags(write=False)
    return ones, eye


def _pade_structure(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The powers L of each matrix of a stack A (N, k, k), the index of its
    degree in _PADE_DEGREES, its scaling s, and whether it has no
    exponential to compute (a non-finite entry or power); s and that mask
    are None when no matrix takes degree 13, as then every s is 0 and every
    entry finite.  The norms of a non-finite matrix are inf or nan: they
    are read quietly, never cast to int."""
    N, k = A.shape[:2]
    one = _ones_and_eye(k)[0]
    L = np.empty((N, 10, k, k))
    np.abs(A, out=L[:, 4])
    L[:, 5] = A
    v = np.empty((N, 11, k))
    with np.errstate(all="ignore"):
        np.matmul(L[:, 5:3:-1], L[:, 5:3:-1], out=L[:, 6:8])  # A2, |A|^2
        np.matmul(L[:, 6:8], L[:, 6:8], out=L[:, 0:9:8])  # A4, |A|^4
        np.matmul(L[:, 6:9:2], L[:, 0:9:8], out=L[:, 1:10:8])  # A6 = A2 A4, |A|^8
        np.matmul(L[:, 0:1], L[:, 0:2], out=L[:, 2:4])  # A8 = A4 A4, A10 = A4 A6
        np.matmul(one, np.abs(L[:, :5]), out=v[:, :5])
        _abs_power_norms(L[:, 7], L[:, 8], L[:, 9], v[:, 4:])
        norms = _max_entry(v)
        d = norms[:, :4] ** _ROOTS
        eta = np.maximum(d[:, :3], d[:, 1:])
        ok = np.ones((N, 5), dtype=bool)
        np.logical_and(eta[:, _ETA] <= _THETA, norms[:, 6:10] <= norms[:, 4:5] * _ELL[:4], out=ok[:, :4])
    degree = ok.argmax(axis=1)
    top = degree == 4
    if not top.any():  # a nan or inf norm fails every test of degrees 3-9
        return L, degree, None, None
    with np.errstate(all="ignore"):
        s = np.ceil(np.log2(np.minimum(eta[:, 1], eta[:, 2]) / _THETA_13))
    bad = ~(s < np.inf)
    s = np.where(bad, 0.0, np.fmax(s, 0.0)).astype(np.int64)
    # ell of 2^-s A: its |.|-power norms are those of A times 2^-ps, unless
    # those of A overflow
    with np.errstate(all="ignore"):
        ratio = np.ldexp(norms[:, 10] / (norms[:, 4] * _ELL[4]), -26 * s)
        if (top & ~bad & ~(ratio < np.inf)).any():
            B = np.empty((N, 4, k, k))
            np.ldexp(L[:, 4], -s[:, None, None], out=B[:, 0])
            for i in (1, 2, 3):
                np.matmul(B[:, i - 1], B[:, i - 1], out=B[:, i])
            w = np.empty((N, 7, k))
            np.matmul(one, B[:, 0], out=w[:, 0])
            w = _max_entry(_abs_power_norms(B[:, 1], B[:, 2], B[:, 3], w))
            ratio = w[:, 6] / (w[:, 0] * _ELL[4])
        ell = np.fmax(np.ceil(np.log2(ratio) / 26.0), 0.0)
    bad |= top & (ell == np.inf)
    s = np.where(top & ~bad, s + np.where(bad, 0.0, ell), 0.0).astype(np.int64)
    return L, degree, s, bad


def expm(A) -> np.ndarray:
    """The exponential of each matrix of a stack (N, k, k).

    Each matrix gets scipy.linalg.expm's Pade degree and scaling, and U and
    V summed in scipy's order; R = I + 2 U (V - U)^-1 is squared s times.
    Every step acts on each matrix alone, so row i of a stack is the stack
    of that one matrix, bit for bit.  A matrix with a non-finite entry, or
    whose powers overflow, has an all-nan exponential; an exponential that
    overflows has inf or nan entries.  Neither warns.
    """
    A = np.asarray(A, dtype=float)
    N, k = A.shape[:2]
    L, degree, s, bad = _pade_structure(A)
    scaled = s is not None and bool(s.any())
    any_bad = bad is not None and bool(bad.any())
    with np.errstate(all="ignore"):  # an overflowing exponential is a value, read by the caller
        terms, X = L[:, _TERMS], A  # (N, [Z, Y], 4, k, k)
        if scaled:
            terms = np.ldexp(terms, (s[:, None, None] * _SCALING)[..., None, None])
            X = np.ldexp(A, -s[:, None, None])
        if any_bad:
            terms[bad] = 0.0
            X = np.where(bad[:, None, None], 0.0, X)
        # the terms of each sum added in order, after one product each
        T = (_PADE_TERMS[degree][..., None, None] * terms[:, :, None]).sum(axis=3)
        T[:, 1].reshape(N, 2, k * k)[:, :, :: k + 1] += _PADE_UNIT[degree][..., None]
        W = np.matmul(terms[:, 0, None, 0], T[:, 0])  # A6 Z, for U and V
        W += T[:, 1]
        U = np.matmul(X, W[:, 0])
        R = np.linalg.solve((W[:, 1] - U).swapaxes(1, 2), (2.0 * U).swapaxes(1, 2))
        R = R.swapaxes(1, 2) + _ones_and_eye(k)[1]
        for i in range(int(s.max()) if scaled else 0):
            R = np.where((s > i)[:, None, None], R @ R, R)
        if any_bad:
            R[bad] = np.nan
    return R


# -- deterministic pseudorandom elements --------------------------------------


def _skew(M: np.ndarray) -> np.ndarray:
    """The skew part of a matrix (k, k), or of each matrix of a stack (N, k, k)."""
    return 0.5 * (M - M.swapaxes(-1, -2))


def _draw_elements(tag: GeometryTag, rngs, scale: float) -> Elements:
    """Unchecked elements, one per generator: each generator fills its
    Lie-algebra element's normals (then its shift's) in one preallocated
    stack, then the stack is made into Lie-algebra elements and one stacked
    :func:`expm` and re-projection make the group elements.  The scale must
    be finite, and an exponential that overflows raises before the
    re-projection."""
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
    mat = expm(gens)
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

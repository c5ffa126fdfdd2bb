"""The Taylor kernels and the prolongation reproduce the object-level
reference (``jet_reference``) bit for bit.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise
from jetpde.errors import JetError
from jetpde.groups import GEOMETRIES, GeometryTag, prolong, random_element
from jetpde.jetspace import GraphJet
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import (
    TruncatedJet,
    compose,
    compose_rows,
    divide,
    divide_rows,
    invert_map,
    invert_rows,
    linear_rows,
    mul,
    mul_rows,
    n_coeffs,
)

DIMS = (1, 2, 3, 4)
DRAWS = 3


def random_jet(rng, n, order, sparse=False):
    """Gaussian coefficients; ``sparse`` also plants exact zeros of both signs."""
    c = rng.standard_normal(n_coeffs(n, order))
    if sparse:
        c[rng.random(c.size) < 0.3] = 0.0
        c[rng.random(c.size) < 0.2] *= -0.0
    return TruncatedJet(n, order, c)


def outcome(fn, *args):
    """Coefficient arrays of the result, or the type of the JetError raised."""
    try:
        out = fn(*args)
    except JetError as exc:
        return type(exc)
    if isinstance(out, TruncatedJet):
        return [out.coeffs]
    if isinstance(out, GraphJet):
        return [out.base, [out.u], out.grad] + [t.data for t in (out.hess, out.cubic) if t is not None]
    return [g.coeffs for g in out]


def assert_same_outcome(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert_bitwise(x, y)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("order", range(5))
def test_mul_divide_compose(n, order):
    rng = np.random.default_rng((n, order))
    for draw in range(DRAWS):
        sparse = draw % 2 == 1
        a, b = random_jet(rng, n, order, sparse), random_jet(rng, n, order, sparse)
        assert_bitwise(mul(a, b).coeffs, ref.mul(a, b).coeffs)
        assert_same_outcome(outcome(divide, a, b), outcome(ref.divide, a, b))
        m = int(rng.integers(1, 5))
        outer = random_jet(rng, m, order, sparse)
        inners = [random_jet(rng, n, order, sparse) for _ in range(m)]
        centered = [g - g.const_term for g in inners]
        for gs in (inners, centered):
            assert_bitwise(compose(outer, gs).coeffs, ref.compose(outer, gs).coeffs)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("order", range(1, 5))
def test_invert_map(n, order):
    rng = np.random.default_rng((n, order, 1))
    for draw in range(DRAWS):
        fs = [g - g.const_term for g in (random_jet(rng, n, order, draw % 2 == 1) for _ in range(n))]
        assert_same_outcome(outcome(invert_map, fs), outcome(ref.invert_map, fs))


def test_invert_map_zero_entries():
    # A Jacobian with exact zeros exercises the skipped terms of the linear rows.
    f = TruncatedJet.from_terms({(1, 0): 2.0, (0, 1): 0.0, (2, 0): 1.0, (1, 2): -0.5}, 2, 3)
    g = TruncatedJet.from_terms({(0, 1): -3.0, (1, 0): -0.0, (1, 1): 0.25}, 2, 3)
    assert_same_outcome(outcome(invert_map, [f, g]), outcome(ref.invert_map, [f, g]))


def random_graph_jet(rng, geometry, n, order):
    hess = SymMatrix(n, rng.standard_normal(n * (n + 1) // 2))
    cubic = SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order == 3 else None
    return GraphJet(GeometryTag(geometry, n).chart, n, order, 0.5 * rng.standard_normal(n),
                    0.5 * rng.standard_normal(), 0.5 * rng.standard_normal(n), hess, cubic)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("n,order", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_prolong(geometry, n, order):
    tag = GeometryTag(geometry, n)
    for scale in (0.3, 0.5):
        rng = np.random.default_rng((n, order, int(10 * scale)))
        for draw in range(20):
            g = random_element(tag, (draw, n, order), scale)
            j = random_graph_jet(rng, geometry, n, order)
            assert_same_outcome(outcome(prolong, g, j), outcome(ref.prolong, g, j))


@pytest.mark.parametrize("n,order", [(1, 3), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_batch_axis_is_per_row(n, order):
    """Each sample of a batch gets bitwise what a batch of one gets."""
    rng = np.random.default_rng((n, order, 2))
    N, R, size = 6, 3, n_coeffs(n, order)

    def rows(*shape):
        c = rng.standard_normal(shape + (size,))
        c[rng.random(c.shape) < 0.2] = 0.0
        return c

    def per_row(fn, *args):
        return [fn(*(a[i : i + 1] for a in args)) for i in range(N)]

    a, b = rows(N, R), rows(N)
    b[:, 0] = 3.0 + np.abs(b[:, 0])
    for got, want in ((mul_rows(a, b[:, None], n, order), per_row(lambda x, y: mul_rows(x, y[:, None], n, order), a, b)),
                      (divide_rows(a, b, n, order), per_row(lambda x, y: divide_rows(x, y, n, order), a, b)),
                      (linear_rows(a[..., :R], a, b[..., :R]), per_row(lambda x, y: linear_rows(x[..., :R], x, y[..., :R]), a, b))):
        for i in range(N):
            assert_bitwise(got[i], want[i][0])

    C = rng.standard_normal((N, R, n_coeffs(2, order)))
    C[rng.random(C.shape) < 0.3] = 0.0
    D = rows(N, 2)
    D[..., 0] = 0.0
    got = compose_rows(C, D, n, order)
    for i in range(N):
        assert_bitwise(got[i], compose_rows(C[i : i + 1], D[i : i + 1], n, order)[0])

    F = rng.standard_normal((N, n, size))
    F[..., 0] = 0.0
    F[2] = 0.0  # a singular Jacobian: reported for its row, dropped from the rest
    got, errors = invert_rows(F, n, order)
    assert list(errors) == [2]
    kept = [i for i in range(N) if i != 2]
    for k, i in enumerate(kept):
        single, none = invert_rows(F[i : i + 1], n, order)
        assert not none
        assert_bitwise(got[k], single[0])

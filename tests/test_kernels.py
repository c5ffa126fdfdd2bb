"""The Taylor kernels and the prolongation reproduce the object-level
reference (``jet_reference``) bit for bit.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise
from jetpde.errors import DivisionBySingular, JetError
from jetpde.groups import GEOMETRIES, GeometryTag, prolong, random_element
from jetpde.jetspace import GraphJet
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import (
    TruncatedJet,
    compose,
    compose_rows,
    coordinate_rows,
    divide,
    divide_rows,
    invert_map,
    linear_positions,
    linear_rows,
    mul,
    mul_rows,
    n_coeffs,
    pow_rows,
    regraph_rows,
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


def inverse_rows(F, n, order):
    """The compositional inverses of the map germs ``F`` (N, n, size) and
    their errors: :func:`regraph_rows` on the coordinate rows."""
    return regraph_rows(np.broadcast_to(coordinate_rows(n, order), F.shape), F, n, order)


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
                      (divide_rows(a, b, n, order)[0], per_row(lambda x, y: divide_rows(x, y, n, order)[0], a, b)),
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
    F[2] = 0.0  # a singular Jacobian: reported for its row, which keeps its index
    got, errors = inverse_rows(F, n, order)
    assert list(errors) == [2]
    assert len(got) == N
    for i in range(N):
        if i != 2:
            single, none = inverse_rows(F[i : i + 1], n, order)
            assert not none
            assert_bitwise(got[i], single[0])


def test_failing_divisors_are_reported_for_their_rows():
    # a divisor that fails the test names its row; the other rows divide as alone
    n, order, N = 2, 3, 6
    rng = np.random.default_rng(41)
    a = rng.standard_normal((N, 2, n_coeffs(n, order)))
    b = rng.standard_normal((N, n_coeffs(n, order)))
    b[:, 0] = 3.0 + np.abs(b[:, 0])
    b[1, 0], b[4, 0] = 0.0, 1e-13
    got, errors = divide_rows(a, b, n, order)
    assert sorted(errors) == [1, 4]
    assert all(type(e) is DivisionBySingular for e in errors.values())
    assert len(got) == N
    for i in (0, 2, 3, 5):
        single, none = divide_rows(a[i : i + 1], b[i : i + 1], n, order)
        assert not none
        assert_bitwise(got[i], single[0])
    # the division of two jets still raises for its one row
    with pytest.raises(DivisionBySingular):
        divide(TruncatedJet(n, order, a[1, 0]), TruncatedJet(n, order, b[1]))


@pytest.mark.filterwarnings("error")
def test_failed_rows_compute_placeholders():
    # a failed row keeps its index: its inverse is the identity germ and its
    # quotient is the dividend, whatever huge terms it held, with no warning
    n, order = 2, 3
    F = np.zeros((2, n, n_coeffs(n, order)))
    F[0, :, n + 1 :] = 1e300  # a zero Jacobian beside terms whose powers overflow
    F[1][:, linear_positions(n)] = np.eye(n)
    g, errors = inverse_rows(F, n, order)
    assert list(errors) == [0] and len(g) == 2
    assert np.array_equal(g[0], coordinate_rows(n, order)) and np.array_equal(g[1], g[0])
    a, b = np.ones((2, 1, n_coeffs(n, order))), np.full((2, n_coeffs(n, order)), 1e300)
    b[0, 0], b[1, 0] = 0.0, 2e300
    q, errors = divide_rows(a, b, n, order)
    assert list(errors) == [0] and len(q) == 2
    assert_bitwise(q[0], a[0])


@pytest.mark.filterwarnings("error")
def test_overflow_is_a_value():
    # an overflowing float power is inf, signed as the base for odd powers
    x = np.array([1e200, -1e200, 2.0])
    assert_bitwise(pow_rows(x, 2), np.array([np.inf, np.inf, 4.0]))
    assert_bitwise(pow_rows(x, 3), np.array([np.inf, -np.inf, 8.0]))
    assert_bitwise(pow_rows(1e300, 1.5), np.array(np.inf))
    # a Jacobian whose det and norm overflow passes the singularity test
    F = np.zeros((1, 3, n_coeffs(3, 2)))
    F[0][:, linear_positions(3)] = 1e120 * np.eye(3)
    g, errors = inverse_rows(F, 3, 2)
    assert not errors
    np.testing.assert_allclose(g[0][:, linear_positions(3)], 1e-120 * np.eye(3), rtol=1e-15)


def assert_bitwise_nans_aside(x, y):
    """Bit for bit where finite or infinite, and nan where the other is nan:
    which nan operand's payload a numpy loop propagates is not fixed."""
    nan = np.isnan(x)
    assert np.array_equal(nan, np.isnan(y))
    assert_bitwise(x[~nan], y[~nan])


@pytest.mark.parametrize("N", [1, 6, 300])
@pytest.mark.parametrize("n,order", [(1, 3), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_zero_outer_terms_mask_nonfinite_inner_entries(n, order, N):
    """A zero outer coefficient adds nothing, even beside an inf or nan
    inner entry: composition computes every term and masks these after the
    products, so their 0 * inf never reaches a sum."""
    rng = np.random.default_rng((n, order, N, 3))
    size, M = n_coeffs(n, order), n_coeffs(2, order)
    reads_x0 = np.array([alpha[0] > 0 for alpha in ref.multi_indices(2, order)])
    C = rng.standard_normal((N, 2, M))
    C[rng.random(C.shape) < 0.3] = 0.0
    C[rng.random(C.shape) < 0.2] *= -0.0
    C[:, 0, reads_x0] = rng.choice([0.0, -0.0], size=(N, reads_x0.sum()))  # row 0 reads no x0 term
    D = rng.standard_normal((N, 2, size))
    D[..., 0] = 0.0
    planted = rng.random((N, size - 1)) < 0.4
    D[:, 0, 1:][planted] = rng.choice([np.inf, -np.inf, np.nan], size=planted.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        got = compose_rows(C, D, n, order)
        for s in range(N):
            assert_bitwise_nans_aside(got[s], compose_rows(C[s : s + 1], D[s : s + 1], n, order)[0])
            inners = [TruncatedJet(n, order, d) for d in D[s]]
            # row 0 only multiplies the non-finite inner germ by zeros
            assert_bitwise(got[s, 0], ref.compose(TruncatedJet(2, order, C[s, 0]), inners).coeffs)
    assert np.isfinite(got[:, 0]).all()

    # inversion multiplies F's terms of degree 2 and up, zeros among them,
    # into monomial germs whose entries overflow to inf or nan in the rows
    # with a 1e300 coefficient
    F = rng.standard_normal((N, n, size))
    F[..., 0] = 0.0
    high = F[..., n + 1 :]
    high[rng.random(high.shape) < 0.3] = 0.0
    high[rng.random(high.shape) < 0.2] *= -0.0
    huge = rng.random(high.shape) < 0.1
    high[huge] = rng.choice([1e300, -1e300], size=huge.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        got, errors = inverse_rows(F, n, order)
        assert not errors
        for s in range(N):
            assert_bitwise_nans_aside(got[s], inverse_rows(F[s : s + 1], n, order)[0][0])
            # where the reference overflows nowhere, the rows are bit for
            # bit its jet-by-jet solve
            want = [g.coeffs for g in ref.invert_map([TruncatedJet(n, order, row) for row in F[s]])]
            if np.isfinite(want).all():
                assert_bitwise(got[s], want)

    # a zero coefficient of the inverse adds nothing either: inverting
    # (x0 + 1e308 x0^2, x1, ...), whose monomial germs overflow from order 3
    # on (2 * 1e308 = inf), keeps x1, ... exact
    F = np.broadcast_to(coordinate_rows(n, order), (N, n, size)).copy()
    F[:, 0, ref.multi_indices(n, order).index((2,) + (0,) * (n - 1))] = 1e308
    with np.errstate(invalid="ignore", over="ignore"):
        got, errors = inverse_rows(F, n, order)
        want = np.array([g.coeffs for g in ref.invert_map([TruncatedJet(n, order, row) for row in F[0]])])
    assert not errors
    assert_bitwise(got[:, 1:], F[:, 1:])
    for s in range(N):
        assert_bitwise_nans_aside(got[s], want)


@pytest.mark.parametrize("N", [1, 6, 300])
@pytest.mark.parametrize("n,order", [(1, 3), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_regraph_rows_per_row(n, order, N):
    """Row i of a batch is bitwise the batch of one, beside a singular
    Jacobian's row, and bitwise the reference's jet-by-jet solve."""
    rng = np.random.default_rng((n, order, N, 4))
    size = n_coeffs(n, order)
    U = rng.standard_normal((N, 2, size))
    F = rng.standard_normal((N, n, size))
    F[..., 0] = 0.0
    for a in (U, F[..., n + 1 :]):  # exact zeros of both signs, the Jacobians left whole
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.1] *= -0.0
    bad = [N // 2] if N > 1 else []
    for s in bad:
        F[s][:, linear_positions(n)] = 0.0
    got, errors = regraph_rows(U, F, n, order)
    assert list(errors) == bad and len(got) == N
    for s in range(N):
        single, _ = regraph_rows(U[s : s + 1], F[s : s + 1], n, order)
        assert_bitwise(got[s], single[0])
        if s < 12 and s not in bad:
            want = ref.regraph([TruncatedJet(n, order, u) for u in U[s]], [TruncatedJet(n, order, f) for f in F[s]])
            assert_bitwise(got[s], [w.coeffs for w in want])

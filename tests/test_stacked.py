"""The stacked invariants, the batched second-order residual and the
batched line draws of the Euclidean sampler reproduce the scalar reference
(``jet_reference``) bit for bit.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise
from jetpde import invariants
from jetpde.errors import DivisionByZero
from jetpde.groups import GeometryTag
from jetpde.jetspace import GraphJet, JetBatch
from jetpde.pde import (
    _power,
    build,
    const,
    lam,
    residual,
    residuals,
    sigma,
    tau,
    tauring,
)
from jetpde.symtensor import SymMatrix, _matrix_gather
from jetpde.verify import sample_on_zero_set

DIMS = (1, 2, 3, 4)
ROWS = 9


def random_line(rng, n, m=ROWS):
    """A gradient and m Hessians as lower-triangle rows and as full stacks;
    a few entries are planted exact zeros of both signs."""
    grad = 0.5 * rng.standard_normal(n)
    entries = rng.standard_normal((m, n * (n + 1) // 2))
    entries[rng.random(entries.shape) < 0.1] = 0.0
    entries[rng.random(entries.shape) < 0.1] *= -0.0
    return grad, entries, entries[:, _matrix_gather(n)]


def line_batch(tag, grad, entries) -> JetBatch:
    """The second-order jets at the origin with the gradient and the
    Hessian rows of a line, as one batch with one gradient per row."""
    m, n = len(entries), tag.n
    return JetBatch(tag.chart, np.zeros((m, n)), np.zeros(m), np.tile(grad, (m, 1)), entries)


def euclidean_exprs(n):
    leaves = [lam(i) for i in range(1, n + 1)] + [sigma(i) for i in range(1, n + 1)]
    leaves += [tau(d) for d in range(1, 5)]
    return leaves + [
        lam(1) + sigma(n),
        tau(1) - tau(2),
        lam(n) * tau(3),
        sigma(1) / (const(2.0) + tau(2)),
        tau(1) ** 2,
        (lam(1) - const(0.3)) ** 3,
        (const(1e200) * tau(1)) ** 2 - (const(1e200) * tau(1)) ** 2,
        const(1.5),
    ]


def conformal_exprs(n):
    return [tauring(d) for d in range(2, 5)] + [
        tauring(2) + tauring(3),
        tauring(2) ** 2 - tauring(3),
        tauring(3) * const(-2.0),
        tauring(2) / (const(1.0) + tauring(4)),
        (const(1e120) * tauring(2)) ** 3,
    ]


@pytest.mark.parametrize("n", DIMS)
def test_invariants_on_a_stack(n):
    rng = np.random.default_rng((n, 21))
    for _ in range(3):
        grad, entries, H = random_line(rng, n)
        S, S0 = invariants.shape_matrix(grad, H), invariants.tracefree_shape(grad, H)
        lams = invariants.eigenvalues(grad, H)
        for row, h in enumerate(entries):
            hess = SymMatrix(n, h)
            for stacked, single in ((S, ref.shape_matrix(grad, hess)),
                                    (S0, ref.tracefree_shape(grad, hess)),
                                    (lams, ref.eigenvalues(grad, hess))):
                assert_bitwise(stacked[row], single)
            for d in range(1, 5):
                assert_bitwise(invariants.tau_d(S, d)[row], ref.tau_d(S[row], d))
            for i in range(n + 1):
                assert_bitwise(invariants.elementary_symmetric(lams, i)[row],
                               ref.elementary_symmetric(lams[row], i))
        # the SymMatrix form is the same route
        hess = SymMatrix(n, entries[0])
        assert_bitwise(invariants.eigenvalues(grad, hess), ref.eigenvalues(grad, hess))
        assert_bitwise(invariants.tracefree_shape(grad, hess), ref.tracefree_shape(grad, hess))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("geometry", ("euclidean", "conformal"))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_second_order_residuals_rows(geometry, n):
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, len(geometry)))
    exprs = euclidean_exprs(n) if geometry == "euclidean" else conformal_exprs(n)
    for expr in exprs:
        desc = build(tag, expr)
        for _ in range(2):
            grad, entries, _ = random_line(rng, n)
            values, skipped = residuals(desc, line_batch(tag, grad, entries))
            assert values.shape == (ROWS,) and not skipped
            for row, h in enumerate(entries):
                j = GraphJet(tag.chart, n, 2, np.zeros(n), 0.0, grad, SymMatrix(n, h))
                want = ref.residual(desc, j)
                assert_bitwise(values[row], want)
                assert_bitwise(residual(desc, j), want)


def test_vanishing_denominator_in_any_row_raises():
    tag = GeometryTag("euclidean", 2)
    desc = build(tag, tau(1) / tau(2))
    entries = np.array([[3.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(DivisionByZero):
        residuals(desc, line_batch(tag, np.zeros(2), entries))


def test_power_is_float_power_row_by_row():
    # numpy's ``x ** k`` squares by x * x and takes other integer powers
    # its own way; both can differ from libm's pow in the last bit.
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20000) * 10.0 ** rng.integers(-120, 120, 20000)
    for k in range(6):
        want = []
        for v in x.tolist():
            try:
                want.append(v**k)
            except OverflowError:
                want.append(np.copysign(np.inf, v) if k % 2 else np.inf)
        with np.errstate(all="raise"):
            assert_bitwise(_power(x, k), np.array(want))


SAMPLER_CASES = [
    ("euclidean", 2, "minimal_surface"),
    ("euclidean", 3, "minimal_surface"),
    ("euclidean", 2, "monge_ampere"),
    ("euclidean", 3, "monge_ampere"),
    ("conformal", 2, (tauring(2) - const(10.0)) / (const(1.0) + tauring(2) ** 2)),
    ("conformal", 3, (tauring(2) - const(10.0)) / (const(1.0) + tauring(2) ** 2)),
]


@pytest.mark.parametrize("geometry,n,expr", SAMPLER_CASES)
def test_sampler_matches_scalar_scan(geometry, n, expr):
    desc = build(GeometryTag(geometry, n), expr)
    found = 0
    for seed in range(60):
        got = sample_on_zero_set(desc, np.random.default_rng((seed, 3)), 0.5)
        want = ref.sample_euclidean(desc, np.random.default_rng((seed, 3)), 0.5)
        assert (got is None) == (want is None)
        if want is not None:
            found += 1
            for x, y in ((got.base, want.base), (got.u, want.u), (got.grad, want.grad),
                         (got.hess.data, want.hess.data)):
                assert_bitwise(x, y)
    assert found >= 30

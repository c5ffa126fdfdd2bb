"""The single-jet calls are row 0 of their batched forms, bit for bit.

``prolong``, ``residual``, ``normalize_to_origin``, ``sample_on_zero_set``,
``to_poly`` and ``jet_extend`` each run a batch of one; here each is
compared with the batch of two that holds its inputs in row 0.  The jets
they return are checked records: read-only arrays, SymMatrix and SymCubic
parts, and a row that is not finite raises as a checked jet does.
"""

import numpy as np
import pytest

from jet_reference import assert_bitwise
from jetpde.errors import ChartDomain, JetError, SchemaMismatch
from jetpde.groups import (
    Elements,
    GeometryTag,
    affine_element,
    normalize_to_origin,
    prolong,
    prolong_batch,
    random_element,
)
from jetpde.jetspace import GraphJet, JetBatch, extend_rows, jet_extend, poly_rows, to_poly
from jetpde.pde import PRESETS, build, residual, residuals
from jetpde.symtensor import SymCubic, SymMatrix
from jetpde.taylor import TruncatedJet, n_coeffs
from jetpde.verify import generators, sample_on_zero_set, sample_rows, seed_states

GEOMETRIES = ("euclidean", "affine", "projective", "conformal")
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))  # the (n, order) of the benchmark's prolong ops
DRAWS = 6


def random_jet(rng, tag: GeometryTag, order: int) -> GraphJet:
    n = tag.n
    return GraphJet(tag.chart, n, order, 0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(),
                    0.5 * rng.standard_normal(n), SymMatrix(n, rng.standard_normal(n * (n + 1) // 2)),
                    SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order == 3 else None)


def entries(j: GraphJet) -> list:
    return [j.base, j.u, j.grad] + [t.data for t in (j.hess, j.cubic) if t is not None]


def assert_checked(j: GraphJet, tag: GeometryTag, order: int):
    """A record of the right shape whose arrays nothing can write."""
    assert (j.chart, j.n, j.order) == (tag.chart, tag.n, order)
    assert isinstance(j.hess, SymMatrix) == (order >= 2) and isinstance(j.cubic, SymCubic) == (order == 3)
    for a in [j.base, j.grad] + [t.data for t in (j.hess, j.cubic) if t is not None]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def assert_row_zero(got: GraphJet, batch: JetBatch):
    for x, y in zip(entries(got), entries(batch.jet(0))):
        assert_bitwise(x, y)


def stack(*gs) -> Elements:
    shift = None if gs[0].shift is None else np.array([g.shift for g in gs])
    return Elements(gs[0].kind, gs[0].n, np.array([g.mat for g in gs]), shift)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("n,order", SHAPES)
def test_prolong_is_row_zero(geometry, n, order):
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, order, 1))
    for draw in range(DRAWS):
        g, other = random_element(tag, (draw, n, order), 0.5), random_element(tag, (draw, n, order, 1), 0.5)
        j, k = random_jet(rng, tag, order), random_jet(rng, tag, order)
        moved, skips = prolong_batch(stack(g, other), JetBatch.of([j, k]))
        try:
            got = prolong(g, j)
        except JetError as exc:
            assert type(skips[0]) is type(exc) and str(skips[0]) == str(exc)
            continue
        assert 0 not in skips
        assert_checked(got, tag, order)
        assert_row_zero(got, moved)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", (2, 3))
def test_residual_is_row_zero(preset, n):
    desc = build(GeometryTag(PRESETS[preset][0], n), preset)
    rng = np.random.default_rng((n, 2))
    for _ in range(DRAWS):
        jets = [random_jet(rng, desc.geometry, desc.order) for _ in range(2)]
        values, skipped = residuals(desc, JetBatch.of(jets))
        try:
            got = residual(desc, jets[0])
        except JetError as exc:
            assert type(skipped[0]) is type(exc)
            continue
        assert isinstance(got, float)
        assert_bitwise(got, values[0])


@pytest.mark.parametrize("geometry,order", [("euclidean", 2), ("affine", 3), ("projective", 3)])
@pytest.mark.parametrize("n", (2, 3))
def test_normalize_is_row_zero(geometry, order, n):
    # the normalized jet is row 0 of the batched prolongation by the
    # normalizing element, and it is a checked record
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, order, 3))
    for draw in range(DRAWS):
        j, k = random_jet(rng, tag, order), random_jet(rng, tag, order)
        try:
            res = normalize_to_origin(tag, j)
        except JetError:
            continue
        moved, skips = prolong_batch(stack(res.element, random_element(tag, draw, 0.5)), JetBatch.of([j, k]))
        assert 0 not in skips
        assert_checked(res.jet, tag, order)
        assert_row_zero(res.jet, moved)
        if res.signature is not None:
            assert res.signature.metric() is res.signature.metric()  # one immutable matrix
            assert not res.signature.metric().data.flags.writeable


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("n", (2, 3))
def test_sample_is_row_zero(preset, n):
    desc = build(GeometryTag(PRESETS[preset][0], n), preset)
    states = seed_states(11, 2 * DRAWS)
    for i in range(DRAWS):
        rows, jets = sample_rows(desc, generators(states[[i, DRAWS + i]]), 0.5)
        got = sample_on_zero_set(desc, generators(states[[i]])[0], 0.5)
        if rows.size == 0 or rows[0] != 0:
            assert got is None
            continue
        assert_checked(got, desc.geometry, desc.order)
        assert_row_zero(got, jets)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("n,order", SHAPES)
def test_poly_and_extend_are_row_zero(geometry, n, order):
    tag = GeometryTag(geometry, n)
    rng = np.random.default_rng((n, order, 4))
    j, k = random_jet(rng, tag, order), random_jet(rng, tag, order)
    germ = to_poly(j)
    assert_bitwise(germ.coeffs, poly_rows(JetBatch.of([j, k]))[0])
    other = TruncatedJet(n, order, rng.standard_normal(n_coeffs(n, order)))
    got = jet_extend(germ, j.base, order, tag.chart)
    batch, finite = extend_rows(np.array([germ.coeffs, other.coeffs]), np.array([j.base, k.base]), order, tag.chart)
    assert finite.all()
    assert_checked(got, tag, order)
    assert_row_zero(got, batch)
    for x, y in zip(entries(got), entries(j)):  # the round trip, to rounding
        np.testing.assert_allclose(x, y, rtol=1e-14, atol=1e-15)


def test_overflowing_prolong_raises_as_before():
    # u scaled by 1e200 under a Hessian of 1e200: the moved jet overflows,
    # a ChartDomain skip and no jet
    tag = GeometryTag("affine", 2)
    g = affine_element(np.diag([1e200, 1.0, 1.0]), np.zeros(3))
    j = GraphJet(tag.chart, 2, 3, [0.1, 0.2], 0.3, [0.4, 0.5], SymMatrix(2, [1e200, 0.0, 1.0]), SymCubic(2))
    with pytest.raises(ChartDomain, match="prolongation overflows"):
        prolong(g, j)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_rows_raise_as_checked_jets_do(bad):
    # jet_extend of a germ with a non-finite coefficient, and a batch row
    # that is not finite, raise what GraphJet raises for such entries
    for n, order in SHAPES:
        coeffs = np.zeros(n_coeffs(n, order))
        coeffs[-1] = bad
        with pytest.raises(SchemaMismatch, match="finite"):
            jet_extend(TruncatedJet(n, order, coeffs), np.zeros(n), order)
        j = random_jet(np.random.default_rng(n), GeometryTag("euclidean", n), order)
        for field in ("base", "u", "grad", "hess", "cubic"):
            if order == 2 and field == "cubic":
                continue
            batch = JetBatch.of([j, j])
            getattr(batch, field).reshape(2, -1)[1, 0] = bad
            batch.jet(0)
            with pytest.raises(SchemaMismatch, match="finite"):
                batch.jet(1)
    with pytest.raises(SchemaMismatch, match="chart"):
        JetBatch("nowhere", np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2))).jet(0)

"""Compound expression trees: the JSON record gives back the tree, and the
batched residual of any tree, quotients and powers included, is the scalar
reference's (``jet_reference.residual``) row by row, bit for bit.

Both sides run live in this process on the same inputs, so the comparison
holds whatever BLAS/LAPACK build the wheels carry.
"""

import json

import numpy as np
import pytest

import jet_reference as ref
from jet_reference import assert_bitwise
from jetpde.errors import DegenerateHessian, DivisionByZero
from jetpde.geometries import GEOMETRIES
from jetpde.groups import GeometryTag
from jetpde.jetspace import GraphJet, JetBatch
from jetpde.pde import (
    Expr,
    build,
    const,
    expr_from_json,
    expr_to_json,
    lam,
    pick,
    residuals,
    sigma,
    tau,
    tauring,
)
from jetpde.symtensor import SymCubic, SymMatrix

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ROWS = 8
# the constants a tree may hold: zeros of both signs make quotients vanish
CONSTANTS = st.sampled_from((0.0, -0.0, 1.0, -2.5, 0.1, 3.0, 1e-3, 7e5))


def invariant_leaves(geometry: str, n: int) -> list:
    return {
        "euclidean": [lam(i) for i in range(1, n + 1)] + [sigma(i) for i in range(1, n + 1)]
                     + [tau(d) for d in (1, 2, 3)],
        "conformal": [tauring(2), tauring(3)],
        "affine": [pick()],
        "projective": [pick()],
    }[geometry]


def trees(leaves: list, depth: int):
    """Trees of depth at most ``depth`` over the leaves and const, with
    every node."""
    leaf = st.one_of(st.sampled_from(leaves), CONSTANTS.map(const))
    if depth == 0:
        return leaf
    sub = trees(leaves, depth - 1)
    ops = st.sampled_from(("add", "sub", "mul", "div"))
    binary = st.builds(lambda op, a, b: Expr(op, args=(a, b)), ops, sub, sub)
    return st.one_of(leaf, binary, st.builds(lambda a, k: a**k, sub, st.integers(0, 4)))


@st.composite
def cases(draw):
    geometry, n = draw(st.sampled_from(GEOMETRIES)), draw(st.sampled_from((2, 3)))
    tree = draw(trees(invariant_leaves(geometry, n), 4))
    return GeometryTag(geometry, n), tree, draw(st.integers(0, 2**32 - 1))


def random_jets(tag: GeometryTag, order: int, seed: int) -> list:
    """Jets around the origin; at order 3 every fourth Hessian is rank one,
    on the degenerate locus."""
    rng, n = np.random.default_rng(seed), tag.n
    jets = []
    for k in range(ROWS):
        hess = rng.standard_normal(n * (n + 1) // 2)
        if order == 3 and k % 4 == 0:
            v = rng.standard_normal(n)
            hess = SymMatrix.from_full(np.outer(v, v)).data
        cubic = SymCubic(n, rng.standard_normal(len(SymCubic(n).data))) if order == 3 else None
        jets.append(GraphJet(tag.chart, n, order, 0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(),
                             0.5 * rng.standard_normal(n), SymMatrix(n, hess), cubic))
    return jets


def reference(desc, j):
    """The reference residual of one jet, or the type of its error."""
    try:
        return ref.residual(desc, j)
    except (DegenerateHessian, DivisionByZero) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_tree_record_and_residual_match_the_reference(case):
    tag, e, seed = case
    assert expr_from_json(json.loads(json.dumps(expr_to_json(e)))) == e
    desc = build(tag, e)
    jets = random_jets(tag, desc.order, seed)
    want = [reference(desc, j) for j in jets]
    try:
        values, skipped = residuals(desc, JetBatch.of(jets))
    except DivisionByZero:
        # a batch raises when a quotient vanishes in any row it evaluates
        assert DivisionByZero in want
        return
    for row, w in enumerate(want):
        if row in skipped:
            assert w is type(skipped[row]) is DegenerateHessian
        else:
            assert w is not DivisionByZero
            assert_bitwise(values[row], w)

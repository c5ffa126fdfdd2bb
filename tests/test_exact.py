"""Float ``prolong`` against exact rational arithmetic (``exact_reference``).

Every entry of a moved jet must be within 1e-10 (1 + |exact|) of the exact
prolongation of the same float jet by the same float element: the four
geometries x the four ``jet-calls`` shapes x a few seeds, with elements at
the acceptance tests' scale 0.3 and jets at the default spread 0.5.
"""

import numpy as np
import pytest

import exact_reference as exact
from jetpde.errors import JetError
from jetpde.groups import GEOMETRIES, GeometryTag, GroupElement, prolong, random_element
from test_kernels import random_graph_jet as random_jet

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
SEEDS = (0, 1, 2)
BOUND = 1e-10


def oracle_error(geometry: str, n: int, order: int, seed: int, scale: float) -> float | None:
    """The oracle error of float ``prolong`` on the jet and element keyed by
    (seed, n, order), the element at this scale; None when the float
    prolongation is a skip (nothing to compare)."""
    rng = np.random.default_rng((seed, n, order))
    g = random_element(GeometryTag(geometry, n), (seed, n, order), scale)
    j = random_jet(rng, geometry, n, order)
    try:
        moved = prolong(g, j)
    except JetError:
        return None
    return exact.prolong_error(moved, exact.prolong(g, j))


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("n,order", SHAPES)
def test_prolong_within_bound_of_exact(geometry, n, order):
    found = [oracle_error(geometry, n, order, seed, 0.3) for seed in SEEDS]
    checked = [e for e in found if e is not None]
    assert all(e <= BOUND for e in checked)
    assert len(checked) >= len(SEEDS) - 1


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_identity_moves_nothing_exactly(geometry):
    # the oracle's own check: the identity element returns the jet's entries
    n, order = 2, 3
    k = random_element(GeometryTag(geometry, n), (0,), 0.3)
    shift = None if k.shift is None else np.zeros(k.shift.shape)
    g = GroupElement(geometry, n, np.eye(k.mat.shape[0]), shift)
    j = random_jet(np.random.default_rng(5), geometry, n, order)
    got = exact.prolong(g, j)
    assert [float(x) for x in got["base"]] == j.base.tolist()
    assert [float(x) for x in got["u"] + got["grad"]] == [j.u] + j.grad.tolist()
    assert [float(x) for x in got["hess"]] == j.hess.data.tolist()
    assert [float(x) for x in got["cubic"]] == j.cubic.data.tolist()

"""The paper's orbit hypotheses, read off the group action alone.

The invariant PDEs are built from a fiducial hypersurface whose G-orbit of
(k-1)-jets is open in J^(k-1) and whose orbit of k-jets is a proper affine
sub-bundle of J^k, with fibres of dimension 0 (Euclidean), 1 (conformal) or
n (affine, projective).  At the fiducial jets at the origin (the plane; the
sphere H = I; the quadrics H = diag(+-1) with C = 0, each signature up to
the sign of u), each Lie-algebra basis element X moves the jet by
``prolong_batch`` of expm(+-h X); the central differences span the orbit's
tangent space, whose dimension the SVD gives.  The Lie algebras are a table
here, from the element draws of ``jetpde.groups``: so(n+1) with the
translations, gl(n+1) with the translations, sl(n+2), and J so(n+3) with
J = diag(-1, 1, ..., 1).
"""

import numpy as np
import pytest

from jetpde.geometries import GEOMETRY
from jetpde.groups import Elements, expm, prolong_batch
from jetpde.jetspace import JetBatch

H = 1e-5


def unit(k: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((k, k))
    e[i, j] = 1.0
    return e


def algebra(kind: str, n: int) -> tuple[list, list]:
    """A basis of the Lie algebra: (matrix, shift) pairs, the shift None for
    the groups without one."""
    if kind in ("euclidean", "affine"):
        k = n + 1
        mats = ([unit(k, i, j) - unit(k, j, i) for i in range(k) for j in range(i)] if kind == "euclidean"
                else [unit(k, i, j) for i in range(k) for j in range(k)])
        return mats + [np.zeros((k, k))] * k, [np.zeros(k)] * len(mats) + list(np.eye(k))
    if kind == "projective":
        k = n + 2
        mats = [unit(k, i, j) for i in range(k) for j in range(k) if i != j]
        mats += [unit(k, i, i) - unit(k, i + 1, i + 1) for i in range(k - 1)]
        return mats, [None] * len(mats)
    k = n + 3
    form = np.diag([-1.0] + [1.0] * (k - 1))
    mats = [form @ (unit(k, i, j) - unit(k, j, i)) for i in range(k) for j in range(i)]
    return mats, [None] * len(mats)


def fiducial(kind: str, n: int, positive: int) -> JetBatch:
    """The fiducial jet at the origin, as a batch of one."""
    rows, cols = np.tril_indices(n)  # the packed Hessian's entries
    hess = np.where(rows < positive, 1.0, -1.0) * (rows == cols) * (kind != "euclidean")
    cubic = np.zeros((1, n * (n + 1) * (n + 2) // 6)) if GEOMETRY[kind].order == 3 else None
    zero = np.zeros((1, n))
    return JetBatch(GEOMETRY[kind].chart, zero, np.zeros(1), zero, hess[None], cubic)


def tangents(kind: str, n: int, positive: int) -> np.ndarray:
    """The orbit's tangent vectors at the fiducial jet, one row per basis
    element, in the coordinates (base, u, grad, hess[, cubic])."""
    mats, shifts = algebra(kind, n)
    steps = np.concatenate([H * np.array(mats), -H * np.array(mats)])
    shift = None if shifts[0] is None else np.concatenate([H * np.array(shifts), -H * np.array(shifts)])
    jet = fiducial(kind, n, positive)
    moved, skips = prolong_batch(Elements(kind, n, expm(steps), shift),
                                 jet.take(np.zeros(len(steps), dtype=int)))
    assert not skips
    coords = np.concatenate([moved.base, moved.u[:, None], moved.grad, moved.hess]
                            + ([moved.cubic] if moved.cubic is not None else []), axis=1)
    return (coords[: len(mats)] - coords[len(mats) :]) / (2 * H)


def rank(D: np.ndarray) -> int:
    """The numerical rank, required to sit at a clear gap of the spectrum."""
    s = np.linalg.svd(D, compute_uv=False)
    r = int((s > 1e-6 * s[0]).sum())
    assert s[r - 1] >= 1e-3 * s[0] and (r == len(s) or s[r] <= 1e-9 * s[0]), s
    return r


CASES = [(kind, n, p) for kind in GEOMETRY for n in (2, 3, 5)
         for p in ([n] if kind in ("euclidean", "conformal") else range(n, (n - 1) // 2, -1))]


@pytest.mark.parametrize("kind,n,positive", CASES)
def test_orbit_is_open_below_and_an_affine_sub_bundle_on_top(kind, n, positive):
    D = tangents(kind, n, positive)
    lower = 2 * n + 1 + (n * (n + 1) // 2 if GEOMETRY[kind].order == 3 else 0)  # dim J^(k-1)
    # the projection to J^(k-1) is onto: the orbit of (k-1)-jets is open
    assert rank(D[:, :lower]) == lower
    # the k-jets over it fill a fibre of the stated dimension
    assert rank(D) == lower + {"euclidean": 0, "conformal": 1}.get(kind, n)

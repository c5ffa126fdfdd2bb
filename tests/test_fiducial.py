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
J = diag(-1, 1, ..., 1).  The rank check runs at n = 2 to 6; n = 7 and 8
(1.4 s and 4.6 s on a shared 2-vCPU host; both pass) stay out of Tier-1.

Membership: the fiducial jets moved by random elements (``random_elements``
at scale 0.5) lie on the sub-bundle that ``verify.orbit_points``
parametrizes, with parameters fitted by least squares, at n = 2, 3, 5 and 8.
"""

import numpy as np
import pytest

from jetpde.geometries import GEOMETRY
from jetpde.groups import Elements, GeometryTag, expm, prolong_batch, random_elements
from jetpde.jetspace import JetBatch
from jetpde.verify import orbit_points

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


def coordinates(jets: JetBatch) -> np.ndarray:
    """Each jet's coordinates (base, u, grad, hess[, cubic]), one row per jet."""
    return np.concatenate([jets.base, jets.u[:, None], jets.grad, jets.hess]
                          + ([jets.cubic] if jets.cubic is not None else []), axis=1)


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
    coords = coordinates(moved)
    return (coords[: len(mats)] - coords[len(mats) :]) / (2 * H)


def rank(D: np.ndarray) -> int:
    """The numerical rank, required to sit at a clear gap of the spectrum."""
    s = np.linalg.svd(D, compute_uv=False)
    r = int((s > 1e-6 * s[0]).sum())
    assert s[r - 1] >= 1e-3 * s[0] and (r == len(s) or s[r] <= 1e-9 * s[0]), s
    return r


CASES = [(kind, n, p) for kind in GEOMETRY for n in (2, 3, 4, 5, 6)
         for p in ([n] if kind in ("euclidean", "conformal") else range(n, (n - 1) // 2, -1))]


@pytest.mark.parametrize("kind,n,positive", CASES)
def test_orbit_is_open_below_and_an_affine_sub_bundle_on_top(kind, n, positive):
    D = tangents(kind, n, positive)
    lower = 2 * n + 1 + (n * (n + 1) // 2 if GEOMETRY[kind].order == 3 else 0)  # dim J^(k-1)
    # the projection to J^(k-1) is onto: the orbit of (k-1)-jets is open
    assert rank(D[:, :lower]) == lower
    # the k-jets over it fill a fibre of the stated dimension
    assert rank(D) == lower + {"euclidean": 0, "conformal": 1}.get(kind, n)


# each geometry at each n; affine and projective with n and ceil(n/2)
# positive eigenvalues
MEMBERS = [(kind, n, p) for kind in GEOMETRY for n in (2, 3, 5, 8)
           for p in ([n] if kind in ("euclidean", "conformal") else [n, (n + 1) // 2])]


@pytest.mark.parametrize("kind,n,positive", MEMBERS)
def test_moved_fiducial_jets_lie_on_the_sub_bundle(kind, n, positive):
    count = 100
    rngs = [np.random.default_rng((n, positive, i)) for i in range(count)]
    g = random_elements(GeometryTag(kind, n), rngs, 0.5)
    moved, skips = prolong_batch(g, fiducial(kind, n, positive).take(np.zeros(count, dtype=int)))
    assert len(skips) <= 5
    m, top = len(moved), moved.hess if moved.order == 2 else moved.cubic
    if kind == "euclidean":  # the planes: Hessian 0
        fit = np.zeros_like(top)
    elif kind == "conformal":  # the umbilics c rho (I + grad grad^T), c fitted
        unit = orbit_points(JetBatch(moved.chart, moved.base, moved.u, moved.grad), np.ones(m)).hess
        fit = ((unit * top).sum(axis=1) / (unit * unit).sum(axis=1))[:, None] * unit
    else:  # sym_outer(w, hess), the covector w fitted
        lower = moved.take(slice(None), moved.hess, None)
        basis = np.stack([orbit_points(lower, np.tile(e, (m, 1))).cubic for e in np.eye(n)], axis=2)
        fit = (basis @ (np.linalg.pinv(basis) @ top[:, :, None]))[:, :, 0]
    assert (np.abs(top - fit).max(axis=1) <= 1e-10 * (1.0 + np.abs(coordinates(moved)).max(axis=1))).all()

"""Dense symmetric 2- and 3-tensors.

:class:`SymMatrix` stores the lower triangle row-major
(``(0,0), (1,0), (1,1), (2,0), ...``); :class:`SymCubic` stores entries
for ``i <= j <= k`` in lexicographic order.  Both layouts double as the
on-disk array formats (``hess_lower`` / ``cubic_lex``).  Multiplicity is
handled at evaluation time: ``full()`` materializes the complete tensor.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


@functools.lru_cache(maxsize=None)
def cubic_indices(n: int) -> tuple[tuple[int, int, int], ...]:
    """Index triples i <= j <= k in lexicographic order."""
    return tuple(itertools.combinations_with_replacement(range(n), 3))


@functools.lru_cache(maxsize=None)
def _cubic_position(n: int) -> dict[tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(cubic_indices(n))}


@functools.lru_cache(maxsize=None)
def _matrix_gather(n: int) -> np.ndarray:
    """Storage index of every entry of the full n x n matrix."""
    i, j = np.indices((n, n))
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    return hi * (hi + 1) // 2 + lo


@functools.lru_cache(maxsize=None)
def _cubic_gather(n: int) -> np.ndarray:
    """Storage index of every entry of the full n x n x n tensor."""
    pos = _cubic_position(n)
    return np.array([pos[tuple(sorted(ijk))] for ijk in np.ndindex(n, n, n)]).reshape(n, n, n)


def full_cubics(stored: np.ndarray, n: int) -> np.ndarray:
    """The full tensors of a stack of stored cubics (m, size), as one
    C-contiguous (m, n, n, n) array: a flat gather, then a view."""
    return stored.take(_cubic_gather(n).ravel(), axis=1).reshape(len(stored), n, n, n)


class _SymTensor:
    """Checked immutable storage of a symmetric tensor and the operations
    that act on it entry by entry; a subclass gives its layout: the
    storage ``_size(n)`` and the ``_gather(n)`` that ``full()`` reads."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data=None):
        size = self._size(n)
        if data is None:
            arr = np.zeros(size)
        else:
            arr = np.array(data, dtype=float).reshape(-1)
            if arr.size != size:
                raise ValueError(f"expected {size} entries for n={n}, got {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _held(cls, n: int, arr: np.ndarray):
        """The tensor over ``arr``, a read-only view of the storage size that
        nothing writes through: held as it is, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "data", arr)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def full(self) -> np.ndarray:
        return self.data[self._gather(self.n)]

    def __add__(self, other):
        return type(self)(self.n, self.data + other.data)

    def __sub__(self, other):
        return type(self)(self.n, self.data - other.data)

    def __neg__(self):
        return type(self)(self.n, -self.data)

    def __mul__(self, c: float):
        return type(self)(self.n, self.data * c)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.full()))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.data - other.data) <= tol))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, data={self.data})"


class SymMatrix(_SymTensor):
    """Symmetric n x n matrix, lower triangle stored row-major."""

    __slots__ = ()
    _size = staticmethod(lambda n: n * (n + 1) // 2)
    _gather = staticmethod(_matrix_gather)

    @classmethod
    def from_full(cls, arr) -> "SymMatrix":
        arr = np.asarray(arr, dtype=float)
        n = arr.shape[0]
        sym = 0.5 * (arr + arr.T)
        return cls(n, [sym[i, j] for i in range(n) for j in range(i + 1)])

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls.from_full(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_full(np.eye(n))

    def __getitem__(self, ij):
        i, j = ij
        if j > i:
            i, j = j, i
        return float(self.data[i * (i + 1) // 2 + j])


class SymCubic(_SymTensor):
    """Fully symmetric n x n x n tensor, entries for i <= j <= k."""

    __slots__ = ()
    _size = staticmethod(lambda n: len(cubic_indices(n)))
    _gather = staticmethod(_cubic_gather)

    @classmethod
    def from_full(cls, arr) -> "SymCubic":
        arr = np.asarray(arr, dtype=float)
        n = arr.shape[0]
        vals = []
        for i, j, k in cubic_indices(n):
            perms = set(itertools.permutations((i, j, k)))
            vals.append(sum(arr[p] for p in perms) / len(perms))
        return cls(n, vals)

    @classmethod
    def from_entries(cls, n: int, entries: dict) -> "SymCubic":
        pos = _cubic_position(n)
        data = np.zeros(len(cubic_indices(n)))
        for key, value in entries.items():
            data[pos[tuple(sorted(key))]] = value
        return cls(n, data)

    def __getitem__(self, ijk):
        return float(self.data[_cubic_position(self.n)[tuple(sorted(ijk))]])

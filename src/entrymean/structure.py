"""Structure matrices: known linear maps from latent factors to coordinates.

A structure matrix A has one row per observed coordinate and one column per
latent factor, so a sample is A @ z for some latent vector z. Everything here
treats rank decisions through a single relative singular-value cutoff to keep
the various subset checks consistent with each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .data import read_dense_csv
from .errors import CapExceededError, DegenerateMatrixError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Basis of a linear subspace; each row of ``vectors`` is one basis vector."""

    vectors: np.ndarray
    orthonormal: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", np.atleast_2d(np.asarray(self.vectors, dtype=float)))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class StructureMatrix:
    """An (n, r) matrix mapping latent vectors to sample coordinates.

    Parameters
    ----------
    entries : array, shape (n, r)
        One row per coordinate of the observed space.
    rank_tol : float
        Relative cutoff: singular values below ``rank_tol`` times the largest
        one are treated as zero in every rank decision made for this matrix.
    """

    entries: np.ndarray
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a non-empty 2-d array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if not self.rank_tol > 0:
            raise ValueError("rank_tol must be positive")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def rank(self) -> int:
        """Numerical rank under ``rank_tol``, computed once per matrix."""
        return numerical_rank(self.entries, self.rank_tol)

    @cached_property
    def removal_margin(self) -> int:
        """:func:`min_rows_to_drop_rank` of this matrix, computed once per matrix."""
        return min_rows_to_drop_rank(self)


def numerical_rank(matrix, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of ``matrix`` with singular values cut off relative to the largest."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def structure_rank(a: StructureMatrix) -> int:
    return a.rank


def min_rows_to_drop_rank(a: StructureMatrix, max_n: int = 20) -> int:
    """Smallest number of rows whose removal lowers the row-space dimension.

    Subset sizes are tried in increasing order, so the first size that admits
    a rank-reducing removal is returned. The search is exhaustive over row
    subsets, hence the ``max_n`` cap.

    Returns a value between 1 and ``a.n`` inclusive. The identity matrix gives
    1 (any single row is load bearing) while a matrix whose rows are all equal
    gives ``a.n`` (the shared direction survives until nothing is left).
    """
    if a.n > max_n:
        raise CapExceededError(f"n={a.n} exceeds the exhaustive-search cap {max_n}")
    base = structure_rank(a)
    if base == 0:
        raise ValueError("zero matrix has no row-space dimension to lose")
    all_rows = np.arange(a.n)
    for k in range(1, a.n + 1):
        for dropped in combinations(range(a.n), k):
            kept = np.delete(all_rows, dropped)
            if numerical_rank(a.entries[kept], a.rank_tol) < base:
                return k
    raise AssertionError("unreachable: removing every row empties the row space")


def is_general_position(a: StructureMatrix, max_subsets: int = 100_000) -> bool:
    """Whether every r-subset of rows is linearly independent.

    A matrix without full column rank is never in general position. The check
    enumerates all C(n, r) subsets and refuses to run past ``max_subsets``.
    """
    if structure_rank(a) < a.r:
        return False
    if math.comb(a.n, a.r) > max_subsets:
        raise CapExceededError(
            f"C({a.n}, {a.r}) subsets exceed the cap {max_subsets}"
        )
    for rows in combinations(range(a.n), a.r):
        if numerical_rank(a.entries[list(rows)], a.rank_tol) < a.r:
            return False
    return True


def null_space_basis(matrix, rank_tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis (as rows) of the kernel of ``matrix``."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    width = m.shape[1]
    if m.size == 0:
        return SubspaceBasis(np.eye(width), orthonormal=True)
    _, s, vt = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return SubspaceBasis(vt[rank:], orthonormal=True)


def sample_independent_rows(
    a: StructureMatrix,
    count: int,
    rng: np.random.Generator,
    max_tries: int = 1000,
) -> np.ndarray:
    """Draw ``count`` row indices whose rows are linearly independent.

    Uses rejection sampling so accepted subsets are uniform over all
    independent subsets of that size. Raises DegenerateMatrixError once the
    retry budget runs out, which signals a matrix where independent subsets
    are rare or absent.
    """
    if not 1 <= count <= a.n:
        raise ValueError(f"count must be in [1, {a.n}], got {count}")
    if count > structure_rank(a):
        raise ValueError(f"no {count} rows of a rank-{structure_rank(a)} matrix are independent")
    for _ in range(max_tries):
        idx = np.sort(rng.choice(a.n, size=count, replace=False))
        if numerical_rank(a.entries[idx], a.rank_tol) == count:
            return idx
    raise DegenerateMatrixError(
        f"no independent {count}-row subset found in {max_tries} draws"
    )


def load_structure_csv(path, rank_tol: float = DEFAULT_RANK_TOL) -> StructureMatrix:
    """Read a structure matrix, one row per coordinate, by :func:`.data.read_dense_csv`."""
    return StructureMatrix(read_dense_csv(path), rank_tol=rank_tol)


def save_structure_csv(a: StructureMatrix, path) -> None:
    np.savetxt(path, a.entries, delimiter=",", fmt="%.17g")

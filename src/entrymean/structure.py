"""Structure matrices: known linear maps from latent factors to coordinates.

A structure matrix A has one row per observed coordinate and one column per
latent factor, so a sample is A @ z for some latent vector z. Every rank
decision here uses one relative singular-value cutoff, ``RANK_TOL``, applied in
one place, :func:`numerical_rank`, which ranks one matrix or a stack of them. The
row-subset searches (the removal margin, general position, the independent
r-row subsets and draws) rank their subsets as stacks, by :func:`_subset_ranks`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .data import read_dense_csv, write_csv_rows
from .errors import CapExceededError, DegenerateMatrixError

# Singular values at most this times the largest count as zero in every rank decision.
RANK_TOL = 1e-10
REMOVAL_SEARCH_CAP = 20
# Most r-row subsets is_general_position and replacement_candidates enumerate.
SUBSET_CAP = 100_000
# Most rejected draws of sample_independent_rows.
DRAW_CAP = 1000
# Kept-row subsets min_rows_to_drop_rank ranks at once: the search stops at the
# first chunk with a rank drop, and a chunk at n = 20 stacks about 3 MB.
_MARGIN_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class StructureMatrix:
    """An (n, r) matrix mapping latent vectors to sample coordinates.

    Parameters
    ----------
    entries : array, shape (n, r)
        One row per coordinate of the observed space.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a non-empty 2-d array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def rank(self) -> int:
        """:func:`numerical_rank` of this matrix, computed once per matrix."""
        return numerical_rank(self.entries)

    @cached_property
    def removal_margin(self) -> int:
        """:func:`min_rows_to_drop_rank` of this matrix, computed once per matrix."""
        return min_rows_to_drop_rank(self)

    @cached_property
    def parity_check(self) -> np.ndarray:
        """F with F A = 0: a read-only orthonormal basis (as rows) of range(A)'s complement."""
        f = null_space_basis(self.entries.T)
        f.flags.writeable = False
        return f


def numerical_rank(matrix) -> int | np.ndarray:
    """Rank of ``matrix``: its singular values above ``RANK_TOL`` times the largest.

    The one rank rule of this module. A stack of matrices (the last two axes)
    gives an array of their ranks, one SVD per matrix; a single matrix an int.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    s = np.linalg.svd(m, compute_uv=False)
    ranks = np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)
    return int(ranks) if m.ndim == 2 else ranks


def _in_blocks(subsets: np.ndarray, width: int) -> list[np.ndarray]:
    """Row-index picks in blocks whose rows of a ``width``-column matrix hold about 2^20 cells."""
    return np.array_split(subsets, max(1, min(len(subsets), subsets.size * width >> 20)))


def _subset_ranks(a: StructureMatrix, subsets: np.ndarray) -> np.ndarray:
    """:func:`numerical_rank` of the rows of ``a`` that each row of ``subsets`` picks,
    from stacked SVDs in blocks of about 2^20 cells."""
    blocks = _in_blocks(subsets, a.r)
    return np.concatenate([numerical_rank(a.entries[rows]) for rows in blocks])


def min_rows_to_drop_rank(a: StructureMatrix) -> int:
    """Smallest number of rows whose removal lowers the row-space dimension.

    Subset sizes k are tried in increasing order, and the first that admits a
    rank-reducing removal is returned. The kept (n - k)-row subsets of each
    size are ranked in chunks of ``_MARGIN_CHUNK`` by :func:`_subset_ranks`,
    and the search stops at the first chunk with a rank drop. Fewer than
    rank(A) kept rows always lose rank, so no size past n - rank(A) + 1 is
    searched. The search is exhaustive over row subsets, hence the cap of
    ``REMOVAL_SEARCH_CAP`` rows.

    Returns a value between 1 and ``a.n`` inclusive. The identity matrix gives
    1 (any single row is load bearing) while a matrix whose rows are all equal
    gives ``a.n`` (the shared direction survives until nothing is left).
    """
    if a.n > REMOVAL_SEARCH_CAP:
        raise CapExceededError(f"n={a.n} exceeds the exhaustive-search cap {REMOVAL_SEARCH_CAP}")
    if a.rank == 0:
        raise ValueError("zero matrix has no row-space dimension to lose")
    for k in range(1, a.n - a.rank + 1):
        kept = combinations(range(a.n), a.n - k)
        while chunk := list(islice(kept, _MARGIN_CHUNK)):
            if np.any(_subset_ranks(a, np.array(chunk)) < a.rank):
                return k
    return a.n - a.rank + 1


def _independent_subsets(a: StructureMatrix) -> np.ndarray:
    """The r-row subsets of ``a``, in lexicographic order, whose rows are independent.

    More than ``SUBSET_CAP`` subsets to test are refused.
    """
    if math.comb(a.n, a.r) > SUBSET_CAP:
        raise CapExceededError(f"C({a.n}, {a.r}) subsets exceed the cap {SUBSET_CAP}")
    subsets = np.array(list(combinations(range(a.n), a.r)), dtype=np.intp).reshape(-1, a.r)
    return subsets[_subset_ranks(a, subsets) == a.r]


def is_general_position(a: StructureMatrix) -> bool:
    """Whether every r-subset of rows is linearly independent.

    A matrix without full column rank is never in general position. Otherwise
    :func:`_independent_subsets` tests all C(n, r) subsets, so more than
    ``SUBSET_CAP`` of them are refused.
    """
    if a.rank < a.r:
        return False
    return len(_independent_subsets(a)) == math.comb(a.n, a.r)


def null_space_basis(matrix) -> np.ndarray:
    """Orthonormal basis (as rows) of the kernel of ``matrix``."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    return np.linalg.svd(m)[2][numerical_rank(m) :]


def sample_independent_rows(
    a: StructureMatrix, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` row indices whose rows are linearly independent.

    Uses rejection sampling so accepted subsets are uniform over all
    independent subsets of that size. Raises DegenerateMatrixError after
    ``DRAW_CAP`` rejected draws, which signals a matrix where independent
    subsets are rare or absent.
    """
    if not 1 <= count <= a.n:
        raise ValueError(f"count must be in [1, {a.n}], got {count}")
    if count > a.rank:
        raise ValueError(f"no {count} rows of a rank-{a.rank} matrix are independent")
    for _ in range(DRAW_CAP):
        idx = np.sort(rng.choice(a.n, size=count, replace=False))
        if _subset_ranks(a, idx[None])[0] == count:
            return idx
    raise DegenerateMatrixError(
        f"no independent {count}-row subset found in {DRAW_CAP} draws"
    )


def load_structure_csv(path) -> StructureMatrix:
    """Read a structure matrix, one row per coordinate, by :func:`.data.read_dense_csv`."""
    return StructureMatrix(read_dense_csv(path))


def save_structure_csv(a: StructureMatrix, path) -> None:
    write_csv_rows(path, a.entries)

"""Recovering samples of the form A @ z from hidden or replaced entries.

Structure known: one decoder repairs the whole table (:func:`recover_table`).
A sample with hidden cells is solved for z on its visible coordinates; a fully
visible one is range-tested by its syndrome, the part of it outside range(A),
and up to a radius a syndrome that one support of that many coordinates
explains is undone. What no test passes is discarded. ``known_structure``
recovery is radius 0; replacement decoding (:func:`decode_replacements`) is
radius (m - 1) // 2, m the removal margin of A (the minimum number of rows
whose loss drops its row space), within which decoding is unique. Factors are
formed once per distinct hiding pattern; the work done per sample (solves,
residual and range tests, the write-back) runs on blocks of about
``_ROW_BLOCK`` samples, so besides its output the decoder holds no array that
grows with the table faster than its patterns and row indices.

Structure unknown, rank known: :func:`iterative_svd_complete` learns the span
most fully visible samples lie in and decodes against it by :func:`recover_table`
at radius 0, else completes the table by iterated rank truncation from medians.

One sample at a time, the minimum-Hamming decoders (exhaustive, or over random
independent row subsets) also search past the radius, where distinct
reconstructions can tie, and sparse decoding (:func:`recover_by_sparse_decoding`)
projects the sample by the structure's cached parity check F, the same one the
range test uses, so corruption shows up as the syndrome F e of a sparse e that
orthogonal matching pursuit can decode. They share one sample check and return
a sample that passes :func:`recover_table`'s range test unchanged; the Hamming
decoders score r-row subsets by stacked solves. An entry matches when it is
within ``ENTRY_MATCH_TOL`` max(1, |x|_inf), so no rule depends on the sample's
scale.

Every route reports what became of a sample as a :class:`RecoveryStatus`: the
table routes one int8 code per input row in ``CompletionReport.status``, the
one-sample decoders the status of their :class:`RecoveryOutcome`.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, combinations

import numpy as np

from .data import Dataset, _reduce_visible_columns
from .errors import (
    AllSamplesDiscardedError,
    CapExceededError,
    CompletionInfeasibleError,
    ReplacementDecodingError,
)
from .structure import (
    RANK_TOL,
    StructureMatrix,
    _in_blocks,
    _independent_subsets,
    numerical_rank,
    sample_independent_rows,
)

ENTRY_MATCH_TOL = 1e-8
RANGE_RESIDUAL_TOL = 1e-6
# Most subsystem solves a replacement decoder takes on: random draws per sample
# in recover_replacement_randomized, supports per table in decode_replacements.
REPLACEMENT_SOLVE_CAP = 100_000
# iterative_svd_complete's hard-impute: most sweeps, and the absolute stopping change.
COMPLETION_SWEEP_CAP = 500
COMPLETION_TOL = 1e-9
# Rows decoded at once: the per-row temporaries of recover_table and
# _consensus_span span about this many rows, whatever the table's length.
_ROW_BLOCK = 1024


class RecoveryStatus(IntEnum):
    """What became of a sample: kept as it was, repaired, or discarded as lost."""

    UNCHANGED = 0
    RECOVERED = 1
    UNRECOVERABLE = 2


@dataclass
class RecoveryOutcome:
    status: RecoveryStatus
    sample: np.ndarray | None = None
    residual_hamming: int | None = None


@dataclass
class CompletionReport:
    """Outcome of a whole-table completion. It writes no file: ``recover`` writes
    :meth:`to_dict` as ``<out>.report.json`` by :func:`.data.json_document`.

    ``status`` holds one :class:`RecoveryStatus` code (int8) per input row, and
    ``completed`` the rows not ``UNRECOVERABLE``, in their original order.
    """

    completed: Dataset
    status: np.ndarray
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "recovered_indices": np.flatnonzero(self.status == RecoveryStatus.RECOVERED).tolist(),
            "discarded_indices": np.flatnonzero(self.status == RecoveryStatus.UNRECOVERABLE).tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _certified_inverse(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the Gram matrices ``gram[:, :, p]``, stacked first, and a certificate.

    Root-free Cholesky G = L D L' by elimination on [G | I], one loop over the
    columns for the whole stack. Certified: every pivot above tr(G) / bound and
    tr(G) tr(G^-1) <= bound = 1e8. As tr(G) bounds the top eigenvalue and
    tr(G^-1) the inverse of the least (no pivot is below it), G = B'B then has
    cond(B) <= 1e4, so s_min / s_max >= 1e-4, far above ``RANK_TOL``.
    """
    r, _, count = gram.shape
    bound = 1e8
    trace = np.einsum("iip->p", gram)
    work = np.concatenate([gram, np.broadcast_to(np.eye(r)[:, :, None], gram.shape)], axis=1)
    pivots = np.empty((r, count))
    certified = np.ones(count, dtype=bool)
    for j in range(r):
        certified &= work[j, j] > trace / bound
        pivots[j] = np.where(certified, work[j, j], 1.0)
        work[j + 1 :] -= (work[j + 1 :, j] / pivots[j])[:, None] * work[j]
    root = work[:, r:] / np.sqrt(pivots)[:, None]
    certified &= trace * np.einsum("kap,kap->p", root, root) <= bound
    return root.transpose(2, 1, 0) @ root.transpose(2, 0, 1), certified


def _block_starts(count: int) -> list[int]:
    """Starts of blocks of ``_ROW_BLOCK`` rows of ``range(count)``; a lone last row
    joins the block before it. numpy multiplies a one-row matrix by gemv, which
    rounds unlike gemm, and gemm rounds a row alike in any call of two or more
    rows, so a row's products do not depend on the blocks unless a factor has
    one column (rank or co-rank 1), which sends every call to gemv."""
    starts = list(range(0, count, _ROW_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return starts


def _row_blocks(count: int) -> list[slice]:
    """:func:`_block_starts` of ``range(count)`` as slices."""
    starts = _block_starts(count)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _fit_by_pattern(
    a: StructureMatrix, ds: Dataset, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Least-squares fit of the samples ``ds.values[rows]`` on their visible coordinates.

    Returns an iterator of ``(block, samples, fits)``, one per block of
    ``rows``: the samples rebuilt as A @ z from the pseudo-inverse solve on the
    visible rows of A, and whether each fit holds, meaning those rows keep
    rank(A) (singular values above ``RANK_TOL`` times the largest) and the
    fit leaves a residual within ``RANGE_RESIDUAL_TOL`` relative on the
    visible cells.

    Factors are formed once per distinct hiding pattern, before this returns,
    so their transients are freed before the caller allocates its output. A
    pattern certified by :func:`_certified_inverse` keeps every singular value
    far above both cutoffs below, so it spans; its rows are solved by the
    semi-normal equations plus one refinement step. Other patterns take a
    stacked SVD of A with the hidden coordinates zeroed: the rank test counts
    the singular values above ``RANK_TOL`` times the largest, a cutoff the
    rounding-level ones of the zeroed coordinates stay far below, and the
    pseudo-inverse drops those at or below eps * max(visible count, columns)
    times the largest. The per-row work (gathers of the factors, solves,
    residual tests) runs on blocks of about ``_ROW_BLOCK`` rows, the certified
    patterns' rows first; a lone row of either kind rides in a block of the
    other (:func:`_block_starts`).
    """
    keys = np.packbits(~ds.mask[rows], axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    patterns = ~ds.mask[rows[first]]
    basis = a.entries
    n, r = basis.shape
    outer = (basis[:, :, None] * basis[:, None, :]).reshape(n, r * r)
    gram_inv, certified = _certified_inverse((outer.T @ patterns.T).reshape(r, r, -1))
    rest = ~certified
    u, s, vt = np.linalg.svd(basis * patterns[rest, :, None], full_matrices=False)
    top = s[:, :1]
    spans = certified.copy()
    spans[rest] = np.count_nonzero(s > RANK_TOL * top, axis=1) >= a.rank
    cutoff = np.finfo(float).eps * np.maximum(patterns[rest].sum(axis=1), r)[:, None] * top
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    slot = np.cumsum(rest) - 1
    on_gram = certified[inverse]
    order = np.argsort(~on_gram, kind="stable")
    n_gram = int(np.count_nonzero(on_gram))

    def fit(start: int, stop: int):
        block = rows[order[start:stop]]
        pattern = inverse[order[start:stop]]
        hidden = ds.mask[block]
        x = np.where(hidden, 0.0, ds.values[block])
        visible = ~hidden
        k = min(max(n_gram - start, 0), stop - start)  # the block's certified rows lead
        g, xs = gram_inv[pattern[:k]], x[:k]
        z = np.empty((stop - start, r))
        z0 = np.einsum("kij,kj->ki", g, xs @ basis)
        residual = (xs - z0 @ basis.T) * visible[:k]
        z[:k] = z0 + np.einsum("kij,kj->ki", g, residual @ basis)
        j = slot[pattern[k:]]
        z[k:] = np.einsum("kji,kj->ki", vt[j], np.einsum("kji,kj->ki", u[j], x[k:]) * inv_s[j])
        samples = z @ basis.T
        residual = np.linalg.norm((samples - x) * visible, axis=1)
        fits = residual <= RANGE_RESIDUAL_TOL * np.linalg.norm(x, axis=1)
        return block, samples, spans[pattern] & fits

    starts = _block_starts(n_gram) + [n_gram + s for s in _block_starts(rows.size - n_gram)]
    if 1 in (n_gram, rows.size - n_gram) and len(starts) > 1:
        starts.remove(n_gram)
    return (fit(start, stop) for start, stop in zip(starts, starts[1:] + [rows.size]))


def _in_range(x: np.ndarray, a: StructureMatrix) -> np.ndarray:
    """The range test of each sample x (last axis): syndrome |x F'| <= ``RANGE_RESIDUAL_TOL`` |x|."""
    bound = RANGE_RESIDUAL_TOL * np.linalg.norm(x, axis=-1)
    return np.linalg.norm(x @ a.parity_check.T, axis=-1) <= bound


def recover_table(ds: Dataset, a: StructureMatrix, *, radius: int = 0) -> CompletionReport:
    """Repair every sample against the known structure; the one structured decoder.

    A sample with a hidden cell is rebuilt as A @ z when the rows of ``a`` at
    its visible coordinates span rank(A) and the least-squares fit on them
    leaves a residual within ``RANGE_RESIDUAL_TOL`` relative, with factors
    formed per hiding pattern (:func:`_fit_by_pattern`). A fully visible sample
    x is kept byte for byte when its syndrome x F' (F = ``a.parity_check``)
    passes the same test. For k = 1 ... ``radius`` and each support T of k
    coordinates in order, one least-squares fit over the samples still open
    finds the corruption e_T that best explains each syndrome; a sample whose
    fit passes becomes x - e_T. Every other sample is discarded rather than
    trusted.

    The fits, the range tests and the write-back run on blocks of about
    ``_ROW_BLOCK`` rows, into one copy of the table whose kept rows are then
    packed in place, so besides the per-pattern factors the call allocates
    about 2.5 times the table at most, the output included. For a structure
    of rank and co-rank at least 2 each row's arithmetic is that of one call
    over all rows (:func:`_block_starts`), so the result does not depend on
    the block size.
    """
    if ds.dim != a.n:
        raise ValueError(f"sample length {ds.dim} does not match n={a.n}")
    hidden = ds.mask.any(axis=1)
    blocks = _fit_by_pattern(a, ds, np.flatnonzero(hidden))  # factors formed before the copy
    values = ds.values.copy()
    status = np.full(ds.n_samples, RecoveryStatus.UNCHANGED, dtype=np.int8)
    status[hidden] = RecoveryStatus.UNRECOVERABLE
    for rows, samples, fits in blocks:
        values[rows[fits]] = samples[fits]
        status[rows[fits]] = RecoveryStatus.RECOVERED
    # Whole blocks are range-tested, hidden cells zeroed, so each product has
    # the rows of one call over the whole table; only fully visible rows count.
    in_range = np.zeros(ds.n_samples, dtype=bool)
    for block in _row_blocks(ds.n_samples):
        if not hidden[block].all():
            in_range[block] = _in_range(np.where(ds.mask[block], 0.0, ds.values[block]), a)
    f = a.parity_check
    open_rows = np.flatnonzero(~hidden & ~in_range)
    syndrome = ds.values[open_rows] @ f.T
    bound = RANGE_RESIDUAL_TOL * np.linalg.norm(ds.values[open_rows], axis=1)
    for support in chain.from_iterable(combinations(range(a.n), k) for k in range(1, radius + 1)):
        columns = f[:, list(support)]
        e, *_ = np.linalg.lstsq(columns, syndrome.T, rcond=None)
        fits = np.linalg.norm(syndrome - (columns @ e).T, axis=1) <= bound
        values[np.ix_(open_rows[fits], support)] -= e[:, fits].T
        status[open_rows[fits]] = RecoveryStatus.RECOVERED
        open_rows, syndrome, bound = open_rows[~fits], syndrome[~fits], bound[~fits]
    status[open_rows] = RecoveryStatus.UNRECOVERABLE
    keep = status != RecoveryStatus.UNRECOVERABLE
    if not keep.any():
        raise AllSamplesDiscardedError("recovery discarded every sample")
    completed = Dataset(values if keep.all() else _kept_rows(values, keep))
    return CompletionReport(completed, status, 0, True)


def _kept_rows(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``values[keep]`` formed in place: the kept rows move up a block at a time,
    never onto a row still to be read, and the leading rows are returned as a view."""
    kept = np.flatnonzero(keep)
    for block in _row_blocks(kept.size):
        values[block] = values[kept[block]]
    return values[: kept.size]


def _consensus_span(rows: np.ndarray, rank: int) -> np.ndarray | None:
    """Orthonormal basis (as columns) of the span most ``rows`` lie in, or None.

    RANSAC (Fischler and Bolles, 1981) over fixed candidates: all ``rows``, then
    up to 200 disjoint blocks of ``rank`` rows in ``default_rng(0)`` order. One
    of numerical rank ``rank`` proposes its top ``rank`` right singular vectors;
    it wins when more than max(rank / n, 1/2) of ``rows`` lie within
    ``RANGE_RESIDUAL_TOL`` relative of them, refitted on those unless all do.
    Rows are tested in blocks of about ``_ROW_BLOCK``, and a candidate is dropped
    as soon as its misses leave too few rows to win.
    """
    count, n = rows.shape
    blocks = np.random.default_rng(0).permutation(count)[: min(count // rank, 200) * rank]
    norms = np.linalg.norm(rows, axis=1)
    needed = max(rank / n, 0.5) * count  # a winner fits more rows than this
    fits = np.empty(count, dtype=bool)
    for candidate in chain([rows], rows[blocks.reshape(-1, rank)]):
        _, s, vt = np.linalg.svd(candidate, full_matrices=False)
        if np.count_nonzero(s > RANK_TOL * s[:1]) != rank:
            continue
        span = vt[:rank].T
        misses = 0
        for block in _row_blocks(count):
            x = rows[block]
            residual = np.linalg.norm(x - x @ span @ span.T, axis=1)
            fits[block] = residual <= RANGE_RESIDUAL_TOL * norms[block]
            misses += np.count_nonzero(~fits[block])
            if count - misses <= needed:
                break
        else:
            if misses:
                span = np.linalg.svd(rows[fits], full_matrices=False)[2][:rank].T
            return span
    return None


def iterative_svd_complete(ds: Dataset, rank: int) -> CompletionReport:
    """Complete a table of rank ``rank`` whose structure is unknown.

    Samples with fewer than ``rank`` visible entries cannot pin down their row
    and are discarded. When most samples with nothing hidden lie in one span
    (:func:`_consensus_span`), :func:`recover_table` decodes the whole table
    against it at radius 0, in 0 iterations: hidden cells are solved from
    visible ones, and samples outside the span or with too few visible cells to
    span it are discarded. Otherwise the samples with too few visible cells are
    discarded up front, a table left with nothing hidden is returned unchanged,
    and hidden cells start at their coordinate's visible median for hard-impute
    sweeps: each projects the table to the nearest rank-``rank`` matrix and
    copies the projection back into the hidden cells only, until the largest
    change there falls to ``COMPLETION_TOL``, in at most ``COMPLETION_SWEEP_CAP`` sweeps.

    A sweep takes the projection X V V' from the top ``rank`` eigenvectors V of
    the small Gram matrix X'X, evaluated on the samples with a hidden cell
    alone; the Gram part of the others is formed once. Squaring X squares its
    condition, which matters only for tables whose top singular values spread
    widely, where hard-impute already fails to converge.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    visible_counts = (~ds.mask).sum(axis=1)
    retained = np.flatnonzero(visible_counts >= rank)
    if retained.size == 0:
        raise CompletionInfeasibleError(
            "every sample has fewer visible entries than the target rank"
        )
    span = _consensus_span(ds.values[~ds.mask.any(axis=1)], rank)
    if span is not None:
        return recover_table(ds, StructureMatrix(span))
    status = np.full(ds.n_samples, RecoveryStatus.UNCHANGED, dtype=np.int8)
    status[visible_counts < rank] = RecoveryStatus.UNRECOVERABLE
    if retained.size < ds.n_samples:
        ds = Dataset(ds.values[retained], ds.mask[retained])
    values, hidden = ds.values, ds.mask
    if not hidden.any():
        return CompletionReport(Dataset(values), status, 0, True)
    if np.any((~hidden).sum(axis=0) == 0):
        raise CompletionInfeasibleError("a coordinate is hidden in every retained sample")
    rows = np.flatnonzero(hidden.any(axis=1))
    filled = np.where(hidden, _reduce_visible_columns(values, hidden, np.median), values)
    status[retained[rows]] = RecoveryStatus.RECOVERED
    fixed = np.delete(filled, rows, axis=0)
    fixed_gram = fixed.T @ fixed
    changing = filled[rows]
    cells = np.flatnonzero(hidden[rows])
    iterations, converged = 0, False
    for iterations in range(1, COMPLETION_SWEEP_CAP + 1):
        _, eigvecs = np.linalg.eigh(fixed_gram + changing.T @ changing)
        basis = eigvecs[:, -rank:]
        projected = ((changing @ basis) @ basis.T).take(cells)
        delta = float(np.max(np.abs(projected - changing.take(cells))))
        changing.put(cells, projected)
        if delta <= COMPLETION_TOL:
            converged = True
            break
    filled[rows] = changing
    return CompletionReport(Dataset(filled), status, iterations, converged)


def decode_replacements(ds: Dataset, a: StructureMatrix) -> CompletionReport:
    """Undo the replaced cells of every sample within the unique-decoding radius.

    :func:`recover_table` at radius (m - 1) // 2, m the removal margin (the
    least weight of a nonzero vector of range(A)): two explanations of weight
    at most that radius would differ by a vector of range(A) of weight below
    m, so every sample decoded is decoded uniquely. A table with hidden cells,
    a structure past the margin's exhaustive cap, and more than
    ``REPLACEMENT_SOLVE_CAP`` supports within the radius are refused.
    """
    if ds.mask.any():
        raise ReplacementDecodingError("replacement decoding expects a fully visible table")
    try:
        radius = (a.removal_margin - 1) // 2
    except CapExceededError as exc:
        raise ReplacementDecodingError(f"replacement decoding: {exc}") from None
    n_supports = sum(math.comb(a.n, k) for k in range(1, radius + 1))
    if n_supports > REPLACEMENT_SOLVE_CAP:
        raise ReplacementDecodingError(
            f"replacement decoding: {n_supports} supports within radius {radius}"
            f" exceed the cap {REPLACEMENT_SOLVE_CAP}"
        )
    return recover_table(ds, a, radius=radius)


def _fully_visible(x, a: StructureMatrix) -> np.ndarray:
    """The sample check: ``x`` as a float vector of ``a.n`` entries, none of them NaN."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != a.n:
        raise ValueError(f"sample length {x.size} does not match n={a.n}")
    if np.any(np.isnan(x)):
        raise ValueError("replacement recovery expects a fully visible sample")
    return x


def _misses(candidates: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Entries of each candidate off ``x`` by more than ``ENTRY_MATCH_TOL`` max(1, |x|_inf)."""
    tol = ENTRY_MATCH_TOL * max(1.0, float(np.max(np.abs(x))))
    return np.count_nonzero(np.abs(candidates - x) > tol, axis=-1)


def _score_subsets(
    a: StructureMatrix, x: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``candidates[i]`` = A z for A[subsets[i]] z = x[subsets[i]], and its :func:`_misses`."""
    if subsets.size == 0:
        raise ValueError("no invertible r-row subset exists")
    blocks = _in_blocks(subsets, a.r)
    zs = np.concatenate([np.linalg.solve(a.entries[rows], x[rows, None]) for rows in blocks])
    candidates = zs[..., 0] @ a.entries.T
    return candidates, _misses(candidates, x)


def replacement_candidates(a: StructureMatrix, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All reconstructions from independent r-row subsets, with Hamming residuals.

    ``(candidates, residuals)`` of :func:`_score_subsets` over the r-row subsets,
    in lexicographic order, that the stacked rank test behind
    :func:`.structure.is_general_position` finds independent; the rest are
    skipped, and more than ``SUBSET_CAP`` subsets are refused.
    """
    return _score_subsets(a, _fully_visible(x, a), _independent_subsets(a))


def recover_replacement_exhaustive(a: StructureMatrix, x: np.ndarray) -> RecoveryOutcome:
    """Reconstruction of minimum Hamming residual over every r-row subset.

    After the subset cap of :func:`replacement_candidates`, a sample that
    passes the range test of :func:`recover_table` is returned unchanged.
    Otherwise ties between distinct optimal reconstructions are broken by
    picking the lexicographically smallest vector, so the result is
    deterministic even in the ambiguous regime.
    """
    x = _fully_visible(x, a)
    subsets = _independent_subsets(a)
    if _in_range(x, a):
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, x.copy(), 0)
    candidates, residuals = _score_subsets(a, x, subsets)
    best = int(residuals.min())
    winner = min(map(tuple, candidates[residuals == best]))
    return RecoveryOutcome(RecoveryStatus.RECOVERED, np.array(winner), best)


def recover_replacement_randomized(
    a: StructureMatrix, x: np.ndarray, rng: np.random.Generator
) -> RecoveryOutcome:
    """Hamming-residual minimization over r**2 random row subsets drawn from ``rng``.

    A sample that passes the range test is returned unchanged without sampling.
    Otherwise each draw picks ``r`` independent rows uniformly, all draws are
    scored at once by :func:`_score_subsets`, and the first of least residual
    wins. An r**2 above ``REPLACEMENT_SOLVE_CAP`` raises :class:`CapExceededError`;
    an ``rng`` that is not a ``np.random.Generator`` raises ``TypeError``.
    """
    x = _fully_visible(x, a)
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a np.random.Generator, not {type(rng).__name__}")
    n_draws = a.r**2
    if n_draws > REPLACEMENT_SOLVE_CAP:
        raise CapExceededError(
            f"r={a.r} asks for {n_draws} draws, over the cap {REPLACEMENT_SOLVE_CAP}"
        )
    if _in_range(x, a):
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, x.copy(), 0)
    subsets = np.array([sample_independent_rows(a, a.r, rng) for _ in range(n_draws)])
    candidates, residuals = _score_subsets(a, x, subsets)
    best = int(np.argmin(residuals))
    return RecoveryOutcome(RecoveryStatus.RECOVERED, candidates[best].copy(), int(residuals[best]))


def orthogonal_matching_pursuit(f: np.ndarray, y: np.ndarray, sparsity: int) -> np.ndarray:
    """Greedy decode of y = F @ e for an e with at most ``sparsity`` nonzeros.

    Per round: pick the unused column whose direction is most correlated
    with the residual (inner products are scaled by column norm, as for a
    unit-norm dictionary), refit e on the chosen columns by least squares
    and recompute the residual, which is therefore nonincreasing in norm.
    Stops early once the residual is negligible.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size != f.shape[0]:
        raise ValueError(f"y length {y.size} does not match {f.shape[0]} rows")
    if not 0 <= sparsity <= f.shape[1]:
        raise ValueError(f"sparsity must lie in [0, {f.shape[1]}]")
    e = np.zeros(f.shape[1])
    support: list[int] = []
    residual = y.copy()
    floor = 1e-12 * max(1.0, np.linalg.norm(y))
    norms = np.linalg.norm(f, axis=0)
    for _ in range(sparsity):
        if np.linalg.norm(residual) <= floor:
            break
        scores = np.abs(f.T @ residual) / np.where(norms > 0, norms, 1.0)
        scores[support] = -1.0
        pick = int(np.argmax(scores))
        support.append(pick)
        columns = f[:, support]
        if numerical_rank(columns) < len(support):
            raise ValueError("selected columns became rank deficient")
        coef, *_ = np.linalg.lstsq(columns, y, rcond=None)
        residual = y - columns @ coef
    if support:
        e[support] = coef
    return e


def recover_by_sparse_decoding(
    a: StructureMatrix, x: np.ndarray, sparsity: int
) -> RecoveryOutcome:
    """Decode replacement corruption through the parity check of range(A).

    A sample that passes the range test of :func:`recover_table` is returned
    unchanged. Otherwise projecting x by the structure's cached orthonormal
    F (``a.parity_check``, F @ A = 0) erases the clean part, leaving
    y = F @ e with e the corruption vector. If the e found by matching pursuit
    brings x - e through the same range test, the repaired sample is returned
    with the count of entries it moves by more than ``ENTRY_MATCH_TOL``
    max(1, |x|_inf); otherwise the sample is unrecoverable at this sparsity
    level. The decoder draws nothing: equal inputs give equal outcomes.
    A positive sparsity of n - rank(A) (F's rows) or more raises ValueError
    first: that many columns of F generically explain any syndrome, so any x passes.
    """
    x = _fully_visible(x, a)
    f = a.parity_check
    if sparsity > 0 and sparsity >= f.shape[0]:
        raise ValueError(f"sparsity must be below n - rank(A) = {f.shape[0]}")
    if _in_range(x, a):
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, x.copy(), 0)
    repaired = x - orthogonal_matching_pursuit(f, f @ x, sparsity)
    if not _in_range(repaired, a):
        return RecoveryOutcome(RecoveryStatus.UNRECOVERABLE)
    return RecoveryOutcome(RecoveryStatus.RECOVERED, repaired, int(_misses(repaired, x)))

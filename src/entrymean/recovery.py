"""Recovering samples of the form A @ z from hidden or replaced entries.

Three routes are implemented:

* hidden entries, structure known: solve the visible rows for z, for the
  whole table at once (:func:`recover_table`) or one sample at a time
  (:func:`impute_from_structure`); structure unknown, rank known: complete
  the whole table by iterated rank truncation (:func:`iterative_svd_complete`).
  When the fully visible samples reach the target rank, their top right
  singular vectors stand in for the structure: every other sample is fitted
  against that basis by the per-pattern solve of :func:`recover_table` (a
  certified Gram solve, else an SVD) and discarded under the same rank rule,
  so on an exactly low-rank table the sweeps only confirm the fit. Otherwise
  hidden cells start at their coordinate's median and the sweeps do the work.
* replaced entries, structure known: decode the whole table by its syndrome,
  the part of each sample outside range(A) (:func:`decode_replacements`).
  A sample whose syndrome one support of at most (m - 1) // 2 coordinates
  explains is rebuilt exactly, m being the removal margin below; any other
  sample is discarded. The single-sample minimum-Hamming decoders, exhaustive
  or over random independent row subsets, also search past that radius, where
  they cannot tell a right reconstruction from a wrong one.
* replaced entries via sparse decoding: project onto a random parity check
  of range(A), so corruption shows up as a sparse vector that orthogonal
  matching pursuit can decode.

Exact replacement recovery is guaranteed only while the number of corrupted
coordinates is below half the removal margin of A (the minimum number of rows
whose loss drops its row space); at or past that point distinct reconstructions
can tie.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
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
    DEFAULT_RANK_TOL,
    StructureMatrix,
    null_space_basis,
    numerical_rank,
    sample_independent_rows,
    structure_rank,
)

ENTRY_MATCH_TOL = 1e-8
RANGE_RESIDUAL_TOL = 1e-6
# Most subsystem solves a replacement decoder takes on: random draws per sample
# in recover_replacement_randomized, supports per table in decode_replacements.
REPLACEMENT_SOLVE_CAP = 100_000


class RecoveryStatus(Enum):
    RECOVERED = "recovered"
    UNCHANGED = "unchanged"
    UNRECOVERABLE = "unrecoverable"


@dataclass
class RecoveryOutcome:
    status: RecoveryStatus
    sample: np.ndarray | None = None
    residual_hamming: int | None = None


@dataclass
class CompletionReport:
    """Outcome of a whole-table completion.

    ``completed`` keeps the retained samples in their original order;
    ``recovered_indices`` and ``discarded_indices`` refer to positions in the
    input dataset. Samples kept as they were appear in neither list.
    """

    completed: Dataset
    recovered_indices: list[int]
    discarded_indices: list[int]
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "recovered_indices": list(self.recovered_indices),
            "discarded_indices": list(self.discarded_indices),
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def impute_from_structure(x: np.ndarray, a: StructureMatrix) -> RecoveryOutcome:
    """Fill the hidden entries of one sample ``x`` (marked NaN); see :func:`recover_table`."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != a.n:
        raise ValueError(f"sample length {x.size} does not match n={a.n}")
    hidden = np.isnan(x)
    try:
        report = recover_table(Dataset(x[None, :], hidden[None, :]), a)
    except AllSamplesDiscardedError:
        return RecoveryOutcome(RecoveryStatus.UNRECOVERABLE)
    sample = report.completed.values[0]
    if report.recovered_indices:
        return RecoveryOutcome(RecoveryStatus.RECOVERED, sample, int(np.count_nonzero(hidden)))
    return RecoveryOutcome(RecoveryStatus.UNCHANGED, sample, 0)


def _certified_inverse(gram: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the Gram matrices ``gram[:, :, p]``, stacked first, and a certificate.

    Root-free Cholesky G = L D L' by elimination on [G | I], one loop over the
    columns for the whole stack. Certified: every pivot above tr(G) / bound and
    tr(G) tr(G^-1) <= bound = min(1e8, (1e-3 / rank_tol)^2). As tr(G) bounds the
    top eigenvalue and tr(G^-1) the inverse of the least (no pivot is below it),
    G = B'B then has cond(B) <= 1e4 and s_min / s_max >= 1e3 * rank_tol.
    """
    r, _, count = gram.shape
    bound = min(1e8, (1e-3 / max(rank_tol, 1e-7)) ** 2)  # no overflow for a tiny rank_tol
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


def _fit_by_pattern(
    basis: np.ndarray, x: np.ndarray, visible: np.ndarray, rank_tol: float, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of each row of ``x`` on its visible coordinates.

    ``x`` holds zeros at hidden cells. Returns ``(samples, spans)``: the rows
    rebuilt as ``basis @ z`` from the pseudo-inverse solve on the visible rows
    of ``basis``, and whether those keep numerical rank ``rank`` (singular
    values above ``rank_tol`` times the largest). Work is shared per distinct
    hiding pattern. A pattern certified by :func:`_certified_inverse` keeps
    every singular value far above both cutoffs below, so it spans for any
    ``rank``; its rows are solved by the semi-normal equations plus one
    refinement step. Other patterns take a stacked SVD of ``basis`` with the
    hidden coordinates zeroed: the rank test counts singular values and needs
    at least ``rank`` visible cells, and the pseudo-inverse drops those at or
    below eps * max(visible count, columns) times the largest.
    """
    keys = np.packbits(visible, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    patterns = visible[first]
    n, r = basis.shape
    outer = (basis[:, :, None] * basis[:, None, :]).reshape(n, r * r)
    gram_inv, certified = _certified_inverse((outer.T @ patterns.T).reshape(r, r, -1), rank_tol)
    z = np.empty((x.shape[0], r))
    on_gram = certified[inverse]
    g, xs = gram_inv[inverse[on_gram]], x[on_gram]
    z0 = np.einsum("kij,kj->ki", g, xs @ basis)
    residual = (xs - z0 @ basis.T) * visible[on_gram]
    z[on_gram] = z0 + np.einsum("kij,kj->ki", g, residual @ basis)
    rest = ~certified
    u, s, vt = np.linalg.svd(basis * patterns[rest, :, None], full_matrices=False)
    top = s[:, :1]
    spans = certified.copy()
    # Below about 5e-17 a rank_tol counts the rounding-level singular values
    # of the zeroed coordinates; fewer than ``rank`` visible cells never span.
    counts = patterns[rest].sum(axis=1)
    spans[rest] = (np.count_nonzero(s > rank_tol * top, axis=1) >= rank) & (counts >= rank)
    cutoff = np.finfo(float).eps * np.maximum(counts, r)[:, None] * top
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    slot = (np.cumsum(rest) - 1)[inverse[~on_gram]]
    u, inv_s, vt = u[slot], inv_s[slot], vt[slot]
    z[~on_gram] = np.einsum("kji,kj->ki", vt, np.einsum("kji,kj->ki", u, x[~on_gram]) * inv_s)
    return z @ basis.T, spans[inverse]


def recover_table(ds: Dataset, a: StructureMatrix) -> CompletionReport:
    """Fill the hidden entries of every sample using the known structure.

    A sample is recovered exactly when the rows of ``a`` at its visible
    coordinates still span rank(A); then the latent vector is determined and
    the sample is rebuilt as A @ z. A least-squares residual above 1e-6
    relative means the visible entries themselves are inconsistent with the
    structure (replaced rather than hidden). Samples failing either test are
    discarded rather than trusted; samples with nothing hidden pass through.
    The solve is shared per distinct hiding pattern: a Gram-matrix solve where
    a conditioning certificate holds, else an SVD (:func:`_fit_by_pattern`).
    """
    if ds.dim != a.n:
        raise ValueError(f"sample length {ds.dim} does not match n={a.n}")
    rows = np.flatnonzero(ds.mask.any(axis=1))
    visible = ~ds.mask[rows]
    x = np.where(visible, ds.values[rows], 0.0)
    samples, spans = _fit_by_pattern(a.entries, x, visible, a.rank_tol, structure_rank(a))
    residual = np.linalg.norm((samples - x) * visible, axis=1)
    ok = spans & (residual <= RANGE_RESIDUAL_TOL * np.linalg.norm(x, axis=1))
    values = ds.values.copy()
    values[rows[ok]] = samples[ok]
    keep = np.ones(ds.n_samples, dtype=bool)
    keep[rows[~ok]] = False
    if not keep.any():
        raise AllSamplesDiscardedError("recovery discarded every sample")
    return CompletionReport(
        Dataset(values[keep]), rows[ok].tolist(), rows[~ok].tolist(), 0, True
    )


def iterative_svd_complete(
    ds: Dataset,
    rank: int,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> CompletionReport:
    """Complete hidden entries by alternating rank truncation and re-imposition.

    Samples with fewer than ``rank`` visible entries cannot pin down their
    row of a rank-``rank`` table and are discarded up front.

    Start: when the retained samples with nothing hidden have numerical rank
    at least ``rank`` (under ``DEFAULT_RANK_TOL``), their top ``rank`` right
    singular vectors are the starting basis. Each sample with a hidden cell is
    fitted against it on its visible coordinates and discarded when those
    span rank below ``rank``, by the per-pattern solve of :func:`recover_table`
    (certified Gram solve, else SVD). On an exactly low-rank table this start
    is the completion and the first sweep confirms it. Otherwise (too few or
    too degenerate complete samples) hidden cells start at their coordinate's
    visible median.

    Sweeps: each one projects the table to the nearest rank-``rank`` matrix
    and copies the projected values back into the originally hidden cells
    only. Stops when the largest change on hidden cells falls to ``tol``.

    The projection X V V' onto the top ``rank`` right singular vectors V is
    taken from the eigenvectors of the small Gram matrix X'X and evaluated
    on the samples with a hidden cell alone, so a sweep costs one n-by-n
    eigenproblem instead of an SVD of the whole table; the Gram part of the
    samples with nothing hidden is formed once. Squaring X squares its condition:
    the error of the computed subspace grows with (s_1 / s_rank)^2 instead of
    s_1 / s_rank. That matters only for tables whose top singular values
    spread widely, where hard-impute already fails to converge.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    visible_counts = (~ds.mask).sum(axis=1)
    discarded = [int(i) for i in np.flatnonzero(visible_counts < rank)]
    retained = np.flatnonzero(visible_counts >= rank)
    if retained.size == 0:
        raise CompletionInfeasibleError(
            "every sample has fewer visible entries than the target rank"
        )
    values = ds.values[retained]
    hidden = ds.mask[retained]
    if not hidden.any():
        return CompletionReport(Dataset(values.copy()), [], discarded, 0, True)
    if np.any((~hidden).sum(axis=0) == 0):
        raise CompletionInfeasibleError("a coordinate is hidden in every retained sample")
    rows = np.flatnonzero(hidden.any(axis=1))
    filled = values.copy()
    complete = np.delete(values, rows, axis=0)
    _, s, vt = np.linalg.svd(complete, full_matrices=False)
    if np.count_nonzero(s > DEFAULT_RANK_TOL * s[:1]) >= rank:
        visible = ~hidden[rows]
        samples, spans = _fit_by_pattern(
            vt[:rank].T, np.where(visible, values[rows], 0.0), visible, DEFAULT_RANK_TOL, rank
        )
        filled[rows] = np.where(visible, values[rows], samples)
        drop = rows[~spans]
        discarded = sorted(discarded + retained[drop].tolist())
        retained, filled, hidden = (np.delete(a, drop, axis=0) for a in (retained, filled, hidden))
        rows = np.flatnonzero(hidden.any(axis=1))
        if rows.size == 0:
            return CompletionReport(Dataset(filled), [], discarded, 0, True)
    else:
        np.copyto(filled, _reduce_visible_columns(values, hidden, np.median), where=hidden)
    recovered = retained[rows].tolist()
    fixed = np.delete(filled, rows, axis=0)
    fixed_gram = fixed.T @ fixed
    changing = filled[rows]
    cells = np.flatnonzero(hidden[rows])
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        _, eigvecs = np.linalg.eigh(fixed_gram + changing.T @ changing)
        basis = eigvecs[:, -rank:]
        projected = ((changing @ basis) @ basis.T).take(cells)
        delta = float(np.max(np.abs(projected - changing.take(cells))))
        changing.put(cells, projected)
        if delta <= tol:
            converged = True
            break
    filled[rows] = changing
    return CompletionReport(Dataset(filled), recovered, discarded, iterations, converged)


def decode_replacements(ds: Dataset, a: StructureMatrix) -> CompletionReport:
    """Undo the replaced cells of every sample within the unique-decoding radius.

    A sample whose syndrome x F' (F an orthonormal basis of range(A)'s complement,
    as rows) is at most ``RANGE_RESIDUAL_TOL`` times its norm is unchanged. For
    k = 1 ... (m - 1) // 2, m the removal margin (the least weight of a nonzero
    vector of range(A)), and each support T of k coordinates in lexicographic
    order, one least-squares fit over the open samples finds the corruption on T
    that best explains each syndrome; a sample whose fit passes the same test
    becomes x - e_T, uniquely. The rest are discarded.
    """
    if ds.dim != a.n:
        raise ValueError(f"sample length {ds.dim} does not match n={a.n}")
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
    f = null_space_basis(a.entries.T, a.rank_tol).vectors
    values = ds.values.copy()
    syndrome = values @ f.T
    bound = RANGE_RESIDUAL_TOL * np.linalg.norm(values, axis=1)
    changed = open_rows = np.flatnonzero(np.linalg.norm(syndrome, axis=1) > bound)
    for support in chain.from_iterable(combinations(range(a.n), k) for k in range(1, radius + 1)):
        columns, s = f[:, list(support)], syndrome[open_rows]
        e, *_ = np.linalg.lstsq(columns, s.T, rcond=None)
        fits = np.linalg.norm(s - (columns @ e).T, axis=1) <= bound[open_rows]
        values[np.ix_(open_rows[fits], support)] -= e[:, fits].T
        open_rows = open_rows[~fits]
    if open_rows.size == ds.n_samples:
        raise AllSamplesDiscardedError("recovery discarded every sample")
    recovered = np.setdiff1d(changed, open_rows).tolist()
    kept = Dataset(np.delete(values, open_rows, axis=0))
    return CompletionReport(kept, recovered, open_rows.tolist(), 0, True)


def _hamming(candidate: np.ndarray, x: np.ndarray, tol: float) -> int:
    return int(np.count_nonzero(np.abs(candidate - x) > tol))


def _in_range(x: np.ndarray, a: StructureMatrix, tol: float) -> bool:
    z, *_ = np.linalg.lstsq(a.entries, x, rcond=None)
    return bool(np.max(np.abs(a.entries @ z - x)) <= tol)


def replacement_candidates(
    a: StructureMatrix,
    x: np.ndarray,
    tol: float = ENTRY_MATCH_TOL,
    max_subsets: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """All reconstructions from independent r-row subsets, with Hamming residuals.

    Returns ``(candidates, residuals)`` where ``candidates[i]`` solves one
    invertible r-row subsystem exactly and ``residuals[i]`` counts the
    coordinates of ``x`` it fails to reproduce (beyond ``tol``). Dependent
    subsets are skipped.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != a.n:
        raise ValueError(f"sample length {x.size} does not match n={a.n}")
    if np.any(np.isnan(x)):
        raise ValueError("replacement recovery expects a fully visible sample")
    r = a.r
    if structure_rank(a) < r:
        raise ValueError("structure must have full column rank")
    if math.comb(a.n, r) > max_subsets:
        raise CapExceededError(f"C({a.n}, {r}) subsets exceed the cap {max_subsets}")
    subsets = np.array(list(combinations(range(a.n), r)))
    sub_a = a.entries[subsets]  # (n_subsets, r, r)
    svals = np.linalg.svd(sub_a, compute_uv=False)
    invertible = svals[:, -1] > a.rank_tol * svals[:, 0]
    if not invertible.any():
        raise ValueError("no invertible r-row subset exists")
    sub_a = sub_a[invertible]
    sub_x = x[subsets[invertible]]
    zs = np.linalg.solve(sub_a, sub_x[..., None])[..., 0]
    candidates = zs @ a.entries.T
    residuals = (np.abs(candidates - x[None, :]) > tol).sum(axis=1)
    return candidates, residuals


def recover_replacement_exhaustive(
    a: StructureMatrix,
    x: np.ndarray,
    tol: float = ENTRY_MATCH_TOL,
    max_subsets: int = 100_000,
) -> RecoveryOutcome:
    """Reconstruction of minimum Hamming residual over every r-row subset.

    Ties between distinct optimal reconstructions are broken by picking the
    lexicographically smallest vector, so the result is deterministic even in
    the ambiguous regime.
    """
    candidates, residuals = replacement_candidates(a, x, tol, max_subsets)
    best = int(residuals.min())
    if best == 0:
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, np.asarray(x, dtype=float).copy(), 0)
    pool = candidates[residuals == best]
    winner = min(map(tuple, pool))
    return RecoveryOutcome(RecoveryStatus.RECOVERED, np.array(winner), best)


def recover_replacement_randomized(
    a: StructureMatrix,
    x: np.ndarray,
    exponent: float = 2.0,
    rng: np.random.Generator | None = None,
    tol: float = ENTRY_MATCH_TOL,
) -> RecoveryOutcome:
    """Hamming-residual minimization over ceil(r**exponent) random row subsets.

    Each draw picks ``r`` independent rows uniformly, solves the square
    subsystem and scores the rebuilt sample against ``x``. A vector already
    in range(A) (within ``tol``) is returned unchanged without sampling. A
    draw count above ``REPLACEMENT_SOLVE_CAP`` raises :class:`CapExceededError`.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != a.n:
        raise ValueError(f"sample length {x.size} does not match n={a.n}")
    if np.any(np.isnan(x)):
        raise ValueError("replacement recovery expects a fully visible sample")
    if structure_rank(a) < a.r:
        raise ValueError("structure must have full column rank")
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ValueError("exponent must be finite and nonnegative")
    if exponent * math.log(a.r) > math.log(REPLACEMENT_SOLVE_CAP):
        raise CapExceededError(
            f"exponent {exponent:g} asks for {a.r}**{exponent:g} draws, over the cap"
            f" {REPLACEMENT_SOLVE_CAP}"
        )
    if rng is None:
        rng = np.random.default_rng()
    if _in_range(x, a, tol):
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, x.copy(), 0)
    n_draws = int(math.ceil(a.r**exponent))
    best_sample = None
    best_residual = None
    for _ in range(n_draws):
        rows = sample_independent_rows(a, a.r, rng)
        z = np.linalg.solve(a.entries[rows], x[rows])
        candidate = a.entries @ z
        residual = _hamming(candidate, x, tol)
        if best_residual is None or residual < best_residual:
            best_sample, best_residual = candidate, residual
    return RecoveryOutcome(RecoveryStatus.RECOVERED, best_sample, best_residual)


def build_parity_check(
    a: StructureMatrix, n_rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Random matrix F with F @ A = 0, one scaled unit kernel vector per row.

    Rows are independent draws: a direction uniform on the unit sphere of the
    kernel of A', scaled by sqrt(u / n_rows) with u chi-squared on n degrees
    of freedom. The expected squared row norm is therefore n / n_rows. At
    most n - rank(A) rows are meaningful; asking for more raises.
    """
    kernel = null_space_basis(a.entries.T, a.rank_tol)
    max_rows = kernel.vectors.shape[0]
    if n_rows < 0:
        raise ValueError("n_rows must be nonnegative")
    if n_rows > max_rows:
        raise ValueError(f"at most {max_rows} parity rows exist, asked for {n_rows}")
    if n_rows == 0:
        return np.zeros((0, a.n))
    rows = np.zeros((n_rows, a.n))
    for i in range(n_rows):
        direction = np.zeros(a.n)
        while np.linalg.norm(direction) < 1e-12:
            direction = rng.standard_normal(max_rows) @ kernel.vectors
        direction /= np.linalg.norm(direction)
        rows[i] = np.sqrt(rng.chisquare(a.n) / n_rows) * direction
    return rows


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
    a: StructureMatrix,
    x: np.ndarray,
    sparsity: int,
    n_parity_rows: int,
    rng: np.random.Generator,
    tol: float = ENTRY_MATCH_TOL,
) -> RecoveryOutcome:
    """Decode replacement corruption through a random parity check of range(A).

    Projecting x by F with F @ A = 0 erases the clean part, leaving y = F @ e
    with e the corruption vector. If the e found by matching pursuit brings
    x - e back into range(A) (residual within 1e-6 relative) the repaired
    sample is returned; otherwise the sample is unrecoverable at this
    sparsity level.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != a.n:
        raise ValueError(f"sample length {x.size} does not match n={a.n}")
    if np.any(np.isnan(x)):
        raise ValueError("sparse decoding expects a fully visible sample")
    if _in_range(x, a, tol):
        return RecoveryOutcome(RecoveryStatus.UNCHANGED, x.copy(), 0)
    f = build_parity_check(a, n_parity_rows, rng)
    e = orthogonal_matching_pursuit(f, f @ x, sparsity)
    repaired = x - e
    z, *_ = np.linalg.lstsq(a.entries, repaired, rcond=None)
    range_gap = np.max(np.abs(a.entries @ z - repaired))
    if range_gap > RANGE_RESIDUAL_TOL * max(1.0, np.max(np.abs(repaired))):
        return RecoveryOutcome(RecoveryStatus.UNRECOVERABLE)
    return RecoveryOutcome(
        RecoveryStatus.RECOVERED, repaired, int(np.count_nonzero(np.abs(e) > tol))
    )

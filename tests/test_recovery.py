import itertools
import tracemalloc

import numpy as np
import pytest

from entrymean import recovery
from entrymean.corruption import (
    CorruptionPlan,
    apply_plan,
    plan_sample_shift,
    plan_tail_hiding,
    plan_unrecoverable_hiding,
)
from entrymean.data import Dataset
from entrymean.datagen import LatentSpec, StructureSpec, draw_latents, make_structure, synthesize
from entrymean.errors import (
    AllSamplesDiscardedError,
    CapExceededError,
    CompletionInfeasibleError,
    ReplacementDecodingError,
)
from entrymean.recovery import (
    RecoveryStatus,
    iterative_svd_complete,
    recover_by_sparse_decoding,
    recover_replacement_exhaustive,
    recover_replacement_randomized,
    recover_table,
    replacement_candidates,
)
from entrymean.structure import (
    RANK_TOL,
    StructureMatrix,
    is_general_position,
    numerical_rank,
)

from oracles import (
    decode_within_radius_direct,
    hard_impute_direct,
    impute_rows_direct,
    min_rows_to_drop_rank_direct,
    randomized_replacement_direct,
    warm_complete_direct,
)
from test_structure import random_general_position


def hidden_copy(x, coords):
    out = np.array(x, dtype=float)
    out[list(coords)] = np.nan
    return out


# ---------------------------------------------------------------- imputation


def one_row(x):
    """The sample ``x`` (NaN marks a hidden entry) as a one-row table."""
    x = np.asarray(x, dtype=float)
    return Dataset(x[None, :], np.isnan(x)[None, :])


def recovered_rows(report):
    """Positions of the input rows that ``report`` marks ``RECOVERED``."""
    return np.flatnonzero(report.status == RecoveryStatus.RECOVERED).tolist()


def discarded_rows(report):
    """Positions of the input rows that ``report`` marks ``UNRECOVERABLE``."""
    return np.flatnonzero(report.status == RecoveryStatus.UNRECOVERABLE).tolist()


def test_impute_unchanged_when_nothing_hidden():
    a = random_general_position(6, 3, seed=0)
    x = a.entries @ np.array([1.0, -2.0, 0.5])
    report = recover_table(one_row(x), a)
    assert report.status.tolist() == [RecoveryStatus.UNCHANGED]
    np.testing.assert_array_equal(report.completed.values[0], x)


def test_impute_refuses_fully_visible_sample_outside_range():
    a = random_general_position(6, 3, seed=0)
    x = a.entries @ np.array([1.0, -2.0, 0.5])
    x[4] += 1e-3  # nothing hidden, nothing to solve: the range test alone refuses it
    with pytest.raises(AllSamplesDiscardedError):
        recover_table(one_row(x), a)


def test_impute_recovers_exactly_below_margin():
    a = random_general_position(6, 3, seed=1)
    z = np.array([0.3, 1.7, -0.9])
    x = a.entries @ z
    for coords in [(0,), (1, 4), (0, 2, 5)]:  # up to n - r = 3 hidden entries
        report = recover_table(one_row(hidden_copy(x, coords)), a)
        assert report.status.tolist() == [RecoveryStatus.RECOVERED]
        np.testing.assert_allclose(report.completed.values[0], x, atol=1e-9)


def test_impute_unrecoverable_when_rank_drops():
    a = random_general_position(6, 3, seed=2)
    x = a.entries @ np.ones(3)
    with pytest.raises(AllSamplesDiscardedError):
        recover_table(one_row(hidden_copy(x, (0, 1, 2, 3))), a)


def test_impute_flags_inconsistent_visible_entries():
    a = random_general_position(6, 3, seed=3)
    x = a.entries @ np.ones(3)
    corrupted = hidden_copy(x, (5,))
    corrupted[0] += 10.0  # replacement, not hiding: the visible rows disagree
    with pytest.raises(AllSamplesDiscardedError):
        recover_table(one_row(corrupted), a)


def test_impute_respects_block_structure():
    # Hiding five of eight block coordinates kills that block's rank.
    rng = np.random.default_rng(4)
    entries = np.zeros((8, 4))
    entries[:4, :2] = rng.standard_normal((4, 2))
    entries[4:, 2:] = rng.standard_normal((4, 2))
    a = StructureMatrix(entries)
    x = entries @ rng.standard_normal(4)
    fine = recover_table(one_row(hidden_copy(x, (0, 1))), a)
    assert fine.status.tolist() == [RecoveryStatus.RECOVERED]
    with pytest.raises(AllSamplesDiscardedError):
        recover_table(one_row(hidden_copy(x, (0, 1, 2))), a)


def masked_samples(a, n_samples, seed):
    """Samples of range(A), each with 0 to n - r + 2 random hidden entries.

    About one in five also has a visible entry replaced; returns the values
    (NaN where hidden) and which samples were replaced.
    """
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_samples, a.r)) @ a.entries.T
    replaced = rng.random(n_samples) < 0.2
    for row, bad in zip(values, replaced):
        row[rng.choice(a.n, rng.integers(0, a.n - a.r + 3), replace=False)] = np.nan
        if bad:
            row[rng.choice(np.flatnonzero(~np.isnan(row)))] += 3.0
    return values, replaced


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_recover_table_matches_per_row_lstsq(seed, deficient):
    entries = random_general_position(8, 4, seed=110 + seed).entries.copy()
    if deficient:
        entries[:, 3] = entries[:, 0] - 2.0 * entries[:, 1]
    a = StructureMatrix(entries)
    values, replaced = masked_samples(a, 300, seed)
    expected = impute_rows_direct(a.entries, values, RANK_TOL)
    statuses = [status for status, _ in expected]
    assert {"unchanged", "recovered", "unrecoverable"} <= set(statuses)
    n_visible = (~np.isnan(values)).sum(axis=1)
    # Replaced samples with more visible entries than r are caught by the
    # residual check alone, since their visible rows keep full rank.
    caught = [i for i, s in enumerate(statuses) if s == "unrecoverable" and replaced[i]]
    assert any(n_visible[i] > a.r for i in caught)

    report = recover_table(Dataset(values, np.isnan(values)), a)
    assert recovered_rows(report) == [i for i, s in enumerate(statuses) if s == "recovered"]
    assert discarded_rows(report) == [i for i, s in enumerate(statuses) if s == "unrecoverable"]
    assert (report.iterations, report.converged) == (0, True)
    kept = np.vstack([sample for status, sample in expected if status != "unrecoverable"])
    np.testing.assert_allclose(
        report.completed.values, kept, rtol=0, atol=1e-12 * np.abs(kept).max()
    )


def test_recover_table_shares_svd_per_pattern_but_tests_rows_alone():
    rng = np.random.default_rng(125)
    entries = rng.standard_normal((6, 3))
    entries[4] = 2.0 * entries[3]  # rows 3-5 of A span rank 1
    entries[5] = -entries[3]
    a = StructureMatrix(entries)
    values = rng.standard_normal((8, 3)) @ entries.T
    values[np.ix_([0, 1, 5], [0, 4])] = np.nan  # one pattern: rows 1, 2, 3, 5 visible, rank 3
    values[1, 5] += 3.0  # replaced visible entry: this row alone fails the residual
    values[[2, 3, 6], :3] = np.nan  # one pattern: rows 3-5 visible, rank 1
    values[7, 0] = np.nan
    expected = impute_rows_direct(a.entries, values, RANK_TOL)
    statuses = [status for status, _ in expected]
    assert statuses == ["recovered", "unrecoverable", "unrecoverable", "unrecoverable",
                        "unchanged", "recovered", "unrecoverable", "recovered"]

    report = recover_table(Dataset(values, np.isnan(values)), a)
    assert recovered_rows(report) == [0, 5, 7]
    assert discarded_rows(report) == [1, 2, 3, 6]
    kept = np.vstack([sample for status, sample in expected if status != "unrecoverable"])
    np.testing.assert_allclose(
        report.completed.values, kept, rtol=0, atol=1e-12 * np.abs(kept).max()
    )


def test_recover_table_range_tests_rows_without_hidden_cells():
    a = random_general_position(6, 3, seed=126)
    values = np.random.default_rng(126).standard_normal((5, 3)) @ a.entries.T
    values[2, 1] += 1.0  # nothing is hidden, but the row has left range(A)
    report = recover_table(Dataset(values), a)
    assert (recovered_rows(report), discarded_rows(report)) == ([], [2])
    assert report.completed.values.tobytes() == np.delete(values, 2, axis=0).tobytes()


def test_recover_table_refuses_when_everything_is_discarded():
    a = random_general_position(6, 3, seed=120)
    values = np.ones((3, 6)) @ np.diag(np.arange(1.0, 7.0))
    values[:, :4] = np.nan  # two visible rows cannot span rank 3
    with pytest.raises(AllSamplesDiscardedError):
        recover_table(Dataset(values, np.isnan(values)), a)
    with pytest.raises(ValueError, match="does not match"):
        recover_table(Dataset(np.ones((2, 5))), a)


# ------------------------------------------------------------- svd completion


def low_rank_dataset(n_samples, dim, rank, seed, mask_fraction=0.0):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((dim, rank))
    latents = rng.standard_normal((n_samples, rank))
    values = latents @ basis.T
    mask = rng.random((n_samples, dim)) < mask_fraction
    return Dataset(np.where(mask, np.nan, values), mask), values


def test_iterative_svd_no_hidden_cells_is_identity():
    ds, values = low_rank_dataset(20, 6, 2, seed=0)
    report = iterative_svd_complete(ds, rank=2)
    assert report.iterations == 0 and report.converged
    assert recovered_rows(report) == [] and discarded_rows(report) == []
    np.testing.assert_array_equal(report.completed.values, values)


def test_iterative_svd_restores_low_rank_table():
    ds, values = low_rank_dataset(60, 8, 2, seed=1, mask_fraction=0.08)
    report = iterative_svd_complete(ds, rank=2)
    assert report.converged
    kept = [i for i in range(60) if i not in discarded_rows(report)]
    np.testing.assert_allclose(report.completed.values, values[kept], atol=1e-5)
    assert not report.completed.mask.any()
    touched = np.flatnonzero(report.status != RecoveryStatus.UNCHANGED).tolist()
    assert touched == sorted(int(i) for i in np.flatnonzero(ds.mask.any(axis=1)))


def test_iterative_svd_discards_underdetermined_samples():
    ds, _ = low_rank_dataset(10, 5, 3, seed=2)
    mask = ds.mask.copy()
    mask[4, :3] = True  # two visible entries < rank 3
    starved = Dataset(np.where(mask, np.nan, ds.values), mask)
    report = iterative_svd_complete(starved, rank=3)
    assert discarded_rows(report) == [4]
    assert report.completed.n_samples == 9


def test_iterative_svd_discards_rows_the_basis_cannot_pin():
    # Coordinates 0-1 follow latent 0 and 2-3 latent 1: a row showing only
    # coordinates 0 and 1 says nothing about its latent 1.
    a = StructureMatrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    values = np.random.default_rng(6).standard_normal((12, 2)) @ a.entries.T
    mask = np.zeros(values.shape, dtype=bool)
    mask[3, 2:] = True
    ds = Dataset(np.where(mask, np.nan, values), mask)
    report = iterative_svd_complete(ds, rank=2)
    assert discarded_rows(report) == discarded_rows(recover_table(ds, a)) == [3]
    assert (recovered_rows(report), report.iterations, report.converged) == ([], 0, True)
    np.testing.assert_array_equal(report.completed.values, np.delete(values, 3, axis=0))


def test_iterative_svd_infeasible_cases():
    ds, _ = low_rank_dataset(6, 4, 2, seed=3)
    mask = np.ones_like(ds.mask)
    all_hidden = Dataset(np.full(ds.values.shape, np.nan), mask)
    with pytest.raises(CompletionInfeasibleError):
        iterative_svd_complete(all_hidden, rank=2)
    mask = np.zeros_like(ds.mask)
    mask[:, 2] = True  # one coordinate hidden everywhere
    blind_column = Dataset(np.where(mask, np.nan, ds.values), mask)
    with pytest.raises(CompletionInfeasibleError):
        iterative_svd_complete(blind_column, rank=2)


def every_row_hidden_table(n_samples, dim, rank, seed, mask_fraction=0.0):
    """A low-rank table in which every row hides at least one cell."""
    ds, values = low_rank_dataset(n_samples, dim, rank, seed, mask_fraction)
    mask = ds.mask.copy()
    mask[np.arange(n_samples), np.random.default_rng(seed).integers(0, dim, n_samples)] = True
    return Dataset(np.where(mask, np.nan, values), mask)


def degenerate_complete_rows_table():
    """Rank-2 table whose fully visible rows all lie on one line."""
    ds, values = low_rank_dataset(60, 8, 2, seed=5, mask_fraction=0.08)
    complete = np.flatnonzero(~ds.mask.any(axis=1))
    values[complete] = np.outer(np.arange(1.0, complete.size + 1), values[complete[0]])
    return Dataset(np.where(ds.mask, np.nan, values), ds.mask)


def test_iterative_svd_reports_non_convergence(monkeypatch):
    ds = every_row_hidden_table(30, 6, 2, seed=4, mask_fraction=0.1)
    monkeypatch.setattr(recovery, "COMPLETION_SWEEP_CAP", 1)
    report = iterative_svd_complete(ds, rank=2)
    assert report.iterations == 1
    assert not report.converged


def criterion_7_tables(budget):
    """Structure, clean table and the table after tail hiding at ``budget``.

    The acceptance sweep's first trial.
    """
    spec = StructureSpec("block_diagonal", 16, 8, blocks=((8, 4), (8, 4)), seed=20240501)
    a = make_structure(spec)
    rng = np.random.default_rng(20240501)
    ds = synthesize(a, draw_latents(LatentSpec("gaussian", 8), 1000, rng))
    return a, ds, apply_plan(ds, plan_tail_hiding(ds, budget))


def criterion_7_table(budget):
    return criterion_7_tables(budget)[2]


def scale_spread_table(every_row_hidden=False):
    """Rank-2 table whose coordinate scales run from 1 to 1e6."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal((300, 2)) @ rng.standard_normal((8, 2)).T
    values *= np.logspace(0, 6, 8)
    mask = rng.random(values.shape) < 0.05
    if every_row_hidden:
        mask[np.arange(300), rng.integers(0, 8, 300)] = True
    return Dataset(np.where(mask, np.nan, values), mask)


@pytest.mark.parametrize(
    "make_table, rank, max_iter, scaled_tol",
    [
        (lambda: criterion_7_table(0.2), 8, 500, False),
        (lambda: criterion_7_table(0.2), 8, 1, False),
        (scale_spread_table, 2, 500, True),
        (lambda: low_rank_dataset(60, 8, 2, seed=1, mask_fraction=0.08)[0], 2, 500, False),
    ],
    ids=["criterion_7_budget_0.2", "one_sweep", "scale_spread_1e6", "converging"],
)
def test_iterative_svd_matches_full_svd_reference(
    make_table, rank, max_iter, scaled_tol, monkeypatch
):
    ds = make_table()
    # The scale-spread table starts at its exact completion, whose largest
    # cells (~5e6) are ~1e-9 apart in floating point: at an absolute tol of
    # 1e-9 the oracle's stopping sweep would be decided by rounding alone.
    # The package decodes against the span in 0 sweeps and never reads its tol.
    tol = 1e-9 * (np.nanmax(np.abs(ds.values)) if scaled_tol else 1.0)
    table, dropped, iterations, converged = warm_complete_direct(
        ds.values, ds.mask, rank, max_iter, tol
    )
    monkeypatch.setattr(recovery, "COMPLETION_SWEEP_CAP", max_iter)
    report = iterative_svd_complete(ds, rank)
    assert discarded_rows(report) == dropped
    # Decoded against the span, with no sweep where the oracle's first confirms it.
    assert (report.iterations, report.converged) == (iterations - 1, converged) == (0, True)
    np.testing.assert_allclose(
        report.completed.values, table, rtol=0, atol=1e-10 * np.abs(table).max()
    )


@pytest.mark.parametrize(
    "make_table, rank, max_iter",
    [
        (lambda: every_row_hidden_table(60, 8, 2, seed=1, mask_fraction=0.08), 2, 500),
        (lambda: every_row_hidden_table(60, 8, 2, seed=1, mask_fraction=0.08), 2, 1),
        (lambda: scale_spread_table(every_row_hidden=True), 2, 500),
        (degenerate_complete_rows_table, 2, 500),
    ],
    ids=[
        "every_row_hidden",
        "every_row_hidden_one_sweep",
        "every_row_hidden_scale_spread_1e6",
        "degenerate_complete_rows",
    ],
)
def test_iterative_svd_median_start_matches_full_svd_reference(
    make_table, rank, max_iter, monkeypatch
):
    ds = make_table()
    table, iterations, converged = hard_impute_direct(ds.values, ds.mask, rank, max_iter, 1e-9)
    monkeypatch.setattr(recovery, "COMPLETION_SWEEP_CAP", max_iter)
    report = iterative_svd_complete(ds, rank)
    assert (report.iterations, report.converged) == (iterations, converged)
    np.testing.assert_allclose(
        report.completed.values, table, rtol=0, atol=1e-10 * np.abs(table).max()
    )


@pytest.mark.parametrize("budget", [0.05, 0.10, 0.15, 0.20])
def test_iterative_svd_exact_on_criterion_7_tables(budget):
    a, clean, ds = criterion_7_tables(budget)
    report = iterative_svd_complete(ds, rank=8)
    assert report.converged
    assert discarded_rows(report) == discarded_rows(recover_table(ds, a))
    kept = np.setdiff1d(np.arange(ds.n_samples), discarded_rows(report))
    np.testing.assert_allclose(
        report.completed.values,
        clean.values[kept],
        rtol=0,
        atol=1e-9 * np.abs(clean.values).max(),
    )


def shifted_complete_rows_table(fraction):
    """Rank-2 table whose first ``fraction`` of fully visible rows are moved by 10 in every cell."""
    ds, values = low_rank_dataset(60, 8, 2, seed=1, mask_fraction=0.08)
    complete = np.flatnonzero(~ds.mask.any(axis=1))
    shifted = complete[: int(np.ceil(fraction * complete.size))]
    table = values.copy()
    table[shifted] += 10.0
    return Dataset(np.where(ds.mask, np.nan, table), ds.mask), values, shifted


def test_iterative_svd_takes_the_span_most_complete_rows_share(monkeypatch):
    # The shifted rows lift the first candidate, all complete rows, to rank 3;
    # a block of clean rows then proposes the span they are discarded against.
    ds, clean, shifted = shifted_complete_rows_table(0.2)
    report = iterative_svd_complete(ds, rank=2)
    assert discarded_rows(report) == shifted.tolist()
    assert recovered_rows(report) == np.flatnonzero(ds.mask.any(axis=1)).tolist()
    assert (report.iterations, report.converged) == (0, True)
    np.testing.assert_allclose(
        report.completed.values,
        np.delete(clean, shifted, axis=0),
        rtol=0,
        atol=1e-9 * np.abs(clean).max(),
    )
    rerun = iterative_svd_complete(ds, rank=2)
    assert rerun.completed.values.tobytes() == report.completed.values.tobytes()
    assert rerun.to_dict() == report.to_dict()
    # With half the complete rows shifted no span wins: hidden cells take the
    # median-start sweeps, and a fully visible table comes back unchanged.
    ds, _, _ = shifted_complete_rows_table(0.5)
    table, iterations, converged = hard_impute_direct(ds.values, ds.mask, 2, 20, 1e-9)
    monkeypatch.setattr(recovery, "COMPLETION_SWEEP_CAP", 20)
    report = iterative_svd_complete(ds, rank=2)
    assert discarded_rows(report) == []
    assert (report.iterations, report.converged) == (iterations, converged)
    np.testing.assert_allclose(
        report.completed.values, table, rtol=0, atol=1e-10 * np.abs(table).max()
    )
    _, clean = low_rank_dataset(60, 8, 2, seed=1)
    clean[:30] += 10.0
    report = iterative_svd_complete(Dataset(clean), rank=2)
    assert report.to_dict() == {
        "recovered_indices": [], "discarded_indices": [], "iterations": 0, "converged": True
    }
    assert report.completed.values.tobytes() == clean.tobytes()


# ------------------------------------- conditioning certificate and SVD route


def weak_latent_table(scale, seed, n_rows=300, complete_rows=0):
    """Samples of an 8 x 4 structure whose last latent reaches coordinates 0-5 at ``scale``.

    Rows from ``complete_rows`` on hide 1 to 4 random cells. A row hiding
    coordinates 6 and 7 keeps visible rows whose smallest over largest
    singular value is of the order of ``scale``.
    """
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((8, 4))
    entries[:6, 3] *= scale
    values = rng.standard_normal((n_rows, 4)) @ entries.T
    mask = np.zeros(values.shape, dtype=bool)
    for row in mask[complete_rows:]:
        row[rng.choice(8, rng.integers(1, 5), replace=False)] = True
    return StructureMatrix(entries), Dataset(np.where(mask, np.nan, values), mask)


def singular_value_ratio(matrix):
    s = np.linalg.svd(matrix, compute_uv=False)
    return s[-1] / s[0]


def visible_ratios(a, mask):
    """Smallest over largest singular value of the visible rows of ``a``, per row."""
    return np.array([singular_value_ratio(a.entries[~hidden]) for hidden in mask])


def boundary_case(name):
    """Structure, table and the rows the case is about, with their expected status."""
    if name == "spanning_uncertified":
        a, ds = weak_latent_table(1e-7, seed=130)
        ratios = visible_ratios(a, ds.mask)
        weak = (ratios > 1e-9) & (ratios < 1e-5)
        return a, ds.values, weak, "recovered"
    if name == "exact_rank_loss":
        a = criterion_7_tables(0.05)[0]
        rng = np.random.default_rng(131)
        clean = synthesize(a, draw_latents(LatentSpec("gaussian", 8), 1000, rng))
        ds = apply_plan(clean, plan_unrecoverable_hiding(clean, 0.2, a.removal_margin, rng))
        lost = np.array([numerical_rank(a.entries[~hidden]) < 8 for hidden in ds.mask])
        return a, ds.values, lost, "unrecoverable"
    if name == "rank_deficient":
        entries = random_general_position(8, 4, seed=132).entries.copy()
        entries[:, 3] = entries[:, 0] - 2.0 * entries[:, 1]
        a = StructureMatrix(entries)
        assert a.rank == 3
        values = masked_samples(a, 300, seed=132)[0]
        lost = np.array([numerical_rank(a.entries[~np.isnan(x)]) < 3 for x in values])
        return a, values, lost, "unrecoverable"
    # Rows whose visible singular values fall below RANK_TOL but above rounding.
    a, ds = weak_latent_table(1e-12, seed=133)
    ratios = visible_ratios(a, ds.mask)
    return a, ds.values, (ratios > 1e-16) & (ratios < RANK_TOL), "unrecoverable"


@pytest.mark.parametrize(
    "case", ["spanning_uncertified", "exact_rank_loss", "rank_deficient", "below_cutoff"]
)
def test_recover_table_certificate_boundary_matches_oracle(case):
    a, values, special, expect = boundary_case(case)
    expected = impute_rows_direct(a.entries, values, RANK_TOL)
    statuses = np.array([status for status, _ in expected])
    assert {"recovered", "unrecoverable"} <= set(statuses)
    assert np.count_nonzero(special) >= 5
    assert (statuses[special] == expect).all()

    report = recover_table(Dataset(values, np.isnan(values)), a)
    assert recovered_rows(report) == np.flatnonzero(statuses == "recovered").tolist()
    assert discarded_rows(report) == np.flatnonzero(statuses == "unrecoverable").tolist()
    kept = np.vstack([sample for status, sample in expected if status != "unrecoverable"])
    # The weakly spanning rows are solved to about cond * eps by either side.
    tol = 1e-7 if case == "spanning_uncertified" else 1e-12
    np.testing.assert_allclose(
        report.completed.values, kept, rtol=0, atol=tol * np.abs(kept).max()
    )


def test_recover_table_tiny_rank_tol_discards_rows_with_too_few_cells():
    # 2 or 3 visible cells cannot pin down 4 latents, whatever the rounding-level
    # singular values of the zero-padded stack.
    entries = random_general_position(8, 4, seed=137).entries
    a = StructureMatrix(entries)
    rng = np.random.default_rng(137)
    patterns = [c for size in (2, 3, 4) for c in itertools.combinations(range(8), size)]
    values = rng.standard_normal((len(patterns) + 1, 4)) @ entries.T
    for row, seen in zip(values, patterns):
        row[np.setdiff1d(np.arange(8), seen)] = np.nan
    report = recover_table(Dataset(values, np.isnan(values)), a)
    oracle = impute_rows_direct(entries, values, RANK_TOL)
    discarded = [i for i, (status, _) in enumerate(oracle) if status == "unrecoverable"]
    assert discarded == [i for i, seen in enumerate(patterns) if len(seen) < 4]
    assert discarded_rows(report) == discarded


@pytest.mark.parametrize("rank", [4, 3])
def test_recover_table_discards_as_the_oracle_under_every_hiding_pattern(rank):
    # Row norms spread over 1e-6 ... 1e6. Past its visible count a pattern's
    # zero-padded stack has only rounding-level singular values, so the
    # singular-value rule alone must discard the rows with too few visible cells.
    entries = random_general_position(8, 4, seed=138).entries * np.logspace(-6, 6, 8)[:, None]
    if rank == 3:
        entries[:, 3] = entries[:, 0] - 2.0 * entries[:, 1]
    a = StructureMatrix(entries)
    assert a.rank == rank
    patterns = [c for size in range(1, 9) for c in itertools.combinations(range(8), size)]
    assert len(patterns) == 255
    values = np.random.default_rng(138).standard_normal((len(patterns), 4)) @ entries.T
    for row, hidden in zip(values, patterns):
        row[list(hidden)] = np.nan
    oracle = impute_rows_direct(entries, values, RANK_TOL)
    discarded = [i for i, (status, _) in enumerate(oracle) if status == "unrecoverable"]
    assert {i for i, hidden in enumerate(patterns) if 8 - len(hidden) < rank} <= set(discarded)
    report = recover_table(Dataset(values, np.isnan(values)), a)
    assert discarded_rows(report) == discarded


def certified_counts(monkeypatch, refuse=False):
    """Spy on the certificate, and with ``refuse`` make it certify nothing.

    Returns the number of certified patterns of each later call.
    """
    certify, counts = recovery._certified_inverse, []

    def spy(gram):
        inverse, certified = certify(gram)
        if refuse:
            certified = np.zeros_like(certified)
        counts.append(int(certified.sum()))
        return inverse, certified

    monkeypatch.setattr(recovery, "_certified_inverse", spy)
    return counts


def pattern_grams(r, count, seed):
    """Gram matrices A_V' A_V of ``count`` random visible sets V of a 16 x r
    Gaussian A, stacked last; sets of fewer than r rows fail the certificate."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((16, r))
    visible = rng.random((count, 16)) < rng.uniform(0.2, 1.0, (count, 1))
    return np.einsum("pn,ni,nj->ijp", visible.astype(float), basis, basis)


def whole_stack_inverse(gram):
    """The certified inverse by whole-stack row operations, each row update of
    a step formed at once: the same operations in the same order."""
    r, _, count = gram.shape
    trace = np.einsum("iip->p", gram)
    work = np.concatenate([gram, np.broadcast_to(np.eye(r)[:, :, None], gram.shape)], axis=1)
    pivots = np.empty((r, count))
    certified = np.ones(count, dtype=bool)
    for j in range(r):
        certified &= work[j, j] > trace / 1e8
        pivots[j] = np.where(certified, work[j, j], 1.0)
        work[j + 1 :] -= (work[j + 1 :, j] / pivots[j])[:, None] * work[j]
    root = work[:, r:] / np.sqrt(pivots)[:, None]
    certified &= trace * np.einsum("kap,kap->p", root, root) <= 1e8
    return root.transpose(2, 1, 0) @ root.transpose(2, 0, 1), certified


@pytest.mark.parametrize("r, count", [(1, 5), (3, 1), (8, 2), (8, 300)])
def test_certified_inverse_is_the_whole_stack_elimination_bit_for_bit(r, count):
    gram = pattern_grams(r, count, seed=r * count)
    inverse, certified = recovery._certified_inverse(gram)
    expected, expected_certified = whole_stack_inverse(gram)
    assert inverse.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(certified, expected_certified)
    if count == 300:
        assert 0 < certified.sum() < count


def test_certified_inverse_holds_under_1_9_kb_per_pattern():
    # At r = 8 the output is 512 B a pattern and the work array 1 KB; the
    # whole-stack row update alone added 896 B (2.1 KB in all, before).
    gram = pattern_grams(8, 2000, seed=5)
    tracemalloc.start()
    try:
        recovery._certified_inverse(gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1900 * 2000, peak / 2000


@pytest.mark.parametrize(
    "make_table",
    [
        lambda: criterion_7_tables(0.2)[0::2],  # structure and corrupted table
        lambda: weak_latent_table(0.1, seed=134),
        lambda: weak_latent_table(1e-3, seed=134),
    ],
    ids=["criterion_7_budget_0.2", "weak_latent_0.1", "weak_latent_1e-3"],
)
def test_recover_table_routes_agree(make_table, monkeypatch):
    a, ds = make_table()
    counts = certified_counts(monkeypatch)
    certified = recover_table(ds, a)
    assert sum(counts) > 0
    certified_counts(monkeypatch, refuse=True)
    reference = recover_table(ds, a)
    assert recovered_rows(certified) == recovered_rows(reference)
    assert discarded_rows(certified) == discarded_rows(reference)
    np.testing.assert_allclose(
        certified.completed.values,
        reference.completed.values,
        rtol=0,
        atol=1e-12 * np.nanmax(np.abs(ds.values)),
    )


@pytest.mark.parametrize(
    "make_table, rank",
    [
        (lambda: criterion_7_table(0.2), 8),
        (lambda: weak_latent_table(0.1, seed=135, complete_rows=100)[1], 4),
        (lambda: weak_latent_table(1e-3, seed=135, complete_rows=100)[1], 4),
    ],
    ids=["criterion_7_budget_0.2", "weak_latent_0.1", "weak_latent_1e-3"],
)
def test_iterative_svd_warm_start_routes_agree(make_table, rank, monkeypatch):
    ds = make_table()
    table, dropped, iterations, converged = warm_complete_direct(
        ds.values, ds.mask, rank, 500, 1e-9
    )
    counts = certified_counts(monkeypatch)
    reports = [iterative_svd_complete(ds, rank)]
    assert sum(counts) > 0
    certified_counts(monkeypatch, refuse=True)
    reports.append(iterative_svd_complete(ds, rank))
    for report in reports:
        assert discarded_rows(report) == dropped
        # Decoded against the span, with no sweep where the oracle's first confirms it.
        assert (report.iterations, report.converged) == (iterations - 1, converged) == (0, True)
        np.testing.assert_allclose(
            report.completed.values, table, rtol=0, atol=1e-10 * np.abs(table).max()
        )
    np.testing.assert_allclose(
        reports[0].completed.values,
        reports[1].completed.values,
        rtol=0,
        atol=1e-12 * np.abs(table).max(),
    )


# ------------------------------------------------------------- replacement


def corrupt_coords(x, coords, rng):
    out = np.array(x, dtype=float)
    for c in coords:
        out[c] += rng.uniform(1.0, 5.0) * rng.choice([-1.0, 1.0])
    return out


def test_replacement_exhaustive_clean_vector_unchanged():
    a = random_general_position(6, 2, seed=6)
    x = a.entries @ np.array([2.0, -1.0])
    outcome = recover_replacement_exhaustive(a, x)
    assert outcome.status is RecoveryStatus.UNCHANGED
    np.testing.assert_array_equal(outcome.sample, x)
    assert outcome.residual_hamming == 0


@pytest.mark.parametrize("seed", range(5))
def test_replacement_exhaustive_below_half_margin(seed):
    rng = np.random.default_rng(seed)
    a = random_general_position(7, 3, seed=30 + seed)  # margin n - r + 1 = 5
    x = a.entries @ rng.standard_normal(3)
    corrupted = corrupt_coords(x, rng.choice(7, 2, replace=False), rng)
    outcome = recover_replacement_exhaustive(a, corrupted)
    assert outcome.status is RecoveryStatus.RECOVERED
    np.testing.assert_allclose(outcome.sample, x, atol=1e-8)
    assert outcome.residual_hamming == 2


def test_replacement_tie_at_half_margin_is_detectable():
    # margin = 4, so two corruptions can be explained two ways.
    a = random_general_position(6, 3, seed=40)
    rng = np.random.default_rng(41)
    z_true = rng.standard_normal(3)
    # Build a second latent point whose image differs in exactly margin
    # coordinates, then corrupt half of those coordinates toward it.
    rows = [0, 1]
    from entrymean.structure import null_space_basis

    w = null_space_basis(a.entries[rows])[0]
    image_gap = a.entries @ w
    support = np.flatnonzero(np.abs(image_gap) > 1e-9)
    assert len(support) == 4  # n - (r - 1) for general position
    x_true = a.entries @ z_true
    x_other = a.entries @ (z_true + w)
    corrupted = x_true.copy()
    corrupted[support[:2]] = x_other[support[:2]]
    candidates, residuals = replacement_candidates(a, corrupted)
    best = residuals.min()
    assert best == 2
    optima = candidates[residuals == best]
    distinct = np.unique(np.round(optima, 6), axis=0)
    assert len(distinct) >= 2  # the minimizer is not unique
    # Past the radius the exhaustive decoder certifies neither optimum.
    outcome = recover_replacement_exhaustive(a, corrupted)
    assert (outcome.status, outcome.sample, outcome.residual_hamming) == (
        RecoveryStatus.UNRECOVERABLE,
        None,
        2,
    )


def test_replacement_randomized_matches_truth():
    rng = np.random.default_rng(7)
    a = random_general_position(10, 3, seed=50)
    x = a.entries @ rng.standard_normal(3)
    corrupted = corrupt_coords(x, [4], rng)
    outcome = recover_replacement_randomized(a, corrupted, rng=rng)
    assert outcome.status is RecoveryStatus.RECOVERED
    np.testing.assert_allclose(outcome.sample, x, atol=1e-8)
    assert outcome.residual_hamming == 1


def test_replacement_randomized_refuses_r_squared_over_the_cap():
    # 317**2 = 100 489 draws exceed the cap of 100 000; the refusal comes before any draw.
    a = StructureMatrix(np.eye(317))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapExceededError, match="100489 draws"):
        recover_replacement_randomized(a, np.ones(317), rng)
    assert rng.bit_generator.state == state
    # 316**2 = 99 856 is within the cap; the sample is in range, so nothing is drawn.
    outcome = recover_replacement_randomized(StructureMatrix(np.eye(316)), np.ones(316), rng)
    assert outcome.status is RecoveryStatus.UNCHANGED


@pytest.mark.parametrize("exponent", [20.0, 400.0])
def test_replacement_randomized_refuses_bad_exponent(exponent):
    # The draw count is fixed at r**2. An exponent passed where the generator goes is
    # refused, even for an in-range sample that would draw nothing.
    a = random_general_position(5, 2, seed=60)
    x = a.entries @ np.array([1.0, 1.0])
    with pytest.raises(TypeError, match="np.random.Generator, not float"):
        recover_replacement_randomized(a, x, exponent)
    with pytest.raises(TypeError):
        recover_replacement_randomized(a, x, exponent, np.random.default_rng(0))


def test_replacement_randomized_clean_shortcut():
    a = random_general_position(5, 2, seed=60)
    x = a.entries @ np.array([1.0, 1.0])
    outcome = recover_replacement_randomized(a, x, rng=np.random.default_rng(0))
    assert outcome.status is RecoveryStatus.UNCHANGED
    assert outcome.residual_hamming == 0


def test_replacement_randomized_never_beats_exhaustive():
    rng = np.random.default_rng(8)
    for trial in range(20):
        a = random_general_position(8, 3, seed=70 + trial)
        x = a.entries @ rng.standard_normal(3)
        corrupted = corrupt_coords(x, rng.choice(8, 3, replace=False), rng)
        brute = recover_replacement_exhaustive(a, corrupted)
        sampled = recover_replacement_randomized(a, corrupted, rng=rng)
        assert sampled.residual_hamming >= brute.residual_hamming


def test_replacement_randomized_matches_direct_oracle():
    # Dimensions, scales and replaced counts vary, some past the decoding radius.
    rng = np.random.default_rng(140)
    statuses = set()
    for case in range(200):
        n = int(rng.integers(4, 13))
        r = int(rng.integers(1, min(5, n - 1) + 1))
        a = StructureMatrix(rng.standard_normal((n, r)))
        x = a.entries @ rng.standard_normal(r)
        coords = rng.choice(n, int(rng.integers(0, n - r + 1)), replace=False)
        x[coords] += rng.uniform(0.5, 2.0, coords.size) * rng.choice([-1.0, 1.0], coords.size)
        x *= 10.0 ** rng.uniform(-3.0, 6.0) / np.abs(x).max()
        got = recover_replacement_randomized(a, x, np.random.default_rng(case))
        status, sample, residual = randomized_replacement_direct(
            a.entries, x, 2.0, np.random.default_rng(case)
        )
        assert got.status.name.lower() == status
        assert got.residual_hamming == residual
        if sample is None:
            assert got.sample is None
        else:
            atol = 1e-12 * max(1.0, np.abs(x).max())
            np.testing.assert_allclose(got.sample, sample, rtol=0, atol=atol)
        statuses.add(status)
    assert statuses == {"unchanged", "recovered", "unrecoverable"}


@pytest.mark.parametrize("scale", [1e8, 1e12])
def test_single_sample_decoders_do_not_depend_on_scale(scale):
    # Both the range test and the entry match are relative, so the outcome is the same at any scale.
    a = random_general_position(8, 3, seed=141)
    x = a.entries @ np.random.default_rng(142).standard_normal(3)
    x *= scale / np.abs(x).max()
    corrupted = x.copy()
    corrupted[5] += 0.5 * scale
    decoders = {
        "exhaustive": lambda s: recover_replacement_exhaustive(a, s),
        "randomized": lambda s: recover_replacement_randomized(a, s, rng=np.random.default_rng(0)),
        "sparse": lambda s: recover_by_sparse_decoding(a, s, 1),
    }
    for name, decode in decoders.items():
        clean = decode(x)
        assert (clean.status, clean.residual_hamming) == (RecoveryStatus.UNCHANGED, 0), name
        np.testing.assert_array_equal(clean.sample, x)
        repaired = decode(corrupted)
        assert (repaired.status, repaired.residual_hamming) == (RecoveryStatus.RECOVERED, 1), name
        np.testing.assert_allclose(repaired.sample, x, rtol=0, atol=1e-12 * scale, err_msg=name)


def test_single_sample_decoders_share_the_clean_sample_rule():
    # A cell moved by 1e-7 |x|_inf stays within the 1e-6 relative range test,
    # though it misses the 1e-8 entry match: every decoder keeps the sample.
    a = random_general_position(8, 3, seed=143)
    x = a.entries @ np.random.default_rng(144).standard_normal(3)
    x[2] += 1e-7 * np.abs(x).max()
    decoders = {
        "exhaustive": lambda s: recover_replacement_exhaustive(a, s),
        "randomized": lambda s: recover_replacement_randomized(a, s, rng=np.random.default_rng(0)),
        "sparse": lambda s: recover_by_sparse_decoding(a, s, 1),
    }
    for name, decode in decoders.items():
        outcome = decode(x)
        assert outcome.status is RecoveryStatus.UNCHANGED, name
        np.testing.assert_array_equal(outcome.sample, x, err_msg=name)
    report = recover_table(Dataset(x[None, :]), a)
    assert report.status.tolist() == [RecoveryStatus.UNCHANGED]
    np.testing.assert_array_equal(report.completed.values[0], x)


def test_replacement_rejects_hidden_entries_and_caps():
    a = random_general_position(5, 2, seed=90)
    with pytest.raises(ValueError):
        recover_replacement_exhaustive(a, np.array([1.0, np.nan, 0.0, 0.0, 0.0]))
    big = StructureMatrix(np.random.default_rng(0).standard_normal((30, 10)))
    with pytest.raises(CapExceededError):
        recover_replacement_exhaustive(big, np.zeros(30))


# ---------------------------------------------------------- syndrome decoding

SHIPPED_STRUCTURE = StructureSpec("block_diagonal", 16, 8, blocks=((8, 4), (8, 4)), seed=20240501)


@pytest.mark.parametrize(
    "structure",
    [(8, 3, 110), (7, 2, 111), (10, 3, 112), SHIPPED_STRUCTURE],
    ids=["general_8x3", "general_7x2", "general_10x3", "shipped_block_diagonal"],
)
def test_decode_replacements_matches_direct_oracle(structure):
    if isinstance(structure, StructureSpec):
        a = make_structure(structure)
    else:
        a = random_general_position(*structure)
    radius = (min_rows_to_drop_rank_direct(a.entries) - 1) // 2
    rng = np.random.default_rng(113)
    counts = [k for k in range(radius + 2) for _ in range(4)]
    clean = rng.standard_normal((len(counts), a.r)) @ a.entries.T
    rows = np.array(
        [corrupt_coords(x, rng.choice(a.n, k, replace=False), rng) for x, k in zip(clean, counts)]
    )
    report = recovery.decode_replacements(Dataset(rows), a)
    expected = [decode_within_radius_direct(a.entries, x, radius) for x in rows]
    refused = [i for i, e in enumerate(expected) if e is None]
    assert refused == [i for i, k in enumerate(counts) if k > radius]
    assert discarded_rows(report) == refused
    assert recovered_rows(report) == [i for i, k in enumerate(counts) if 0 < k <= radius]
    decoded = np.array([e for e in expected if e is not None])
    np.testing.assert_allclose(report.completed.values, decoded, rtol=0, atol=1e-9)
    np.testing.assert_allclose(decoded, np.delete(clean, refused, axis=0), rtol=0, atol=1e-9)


def test_decode_replacements_discards_sample_shift_victims():
    a = make_structure(StructureSpec("dense", 6, 3, seed=5))  # radius 1
    ds = synthesize(a, np.random.default_rng(5).standard_normal((60, 3)))
    plan = plan_sample_shift(ds, 0.1)  # every cell of 6 victims moves by 10
    report = recovery.decode_replacements(apply_plan(ds, plan), a)
    victims = sorted(set(plan.sample.tolist()))
    assert len(victims) == 6
    assert discarded_rows(report) == victims
    assert recovered_rows(report) == []
    np.testing.assert_array_equal(report.completed.values, np.delete(ds.values, victims, axis=0))


def starved(ds, rows):
    """``ds`` with every cell of ``rows`` but the first hidden: fewer visible cells than rank 2."""
    mask = ds.mask.copy()
    mask[rows, 1:] = True
    return Dataset(np.where(mask, np.nan, ds.values), mask)


def table_route_recover_table():
    a = random_general_position(8, 4, seed=110)
    values, _ = masked_samples(a, 16, 0)
    ds = Dataset(values, np.isnan(values))
    return ds, recover_table(ds, a)


def table_route_decode_replacements():
    a = random_general_position(8, 3, seed=150)  # margin 6, radius 2
    ds = synthesize(a, np.random.default_rng(150).standard_normal((20, 3)))
    plan = plan_sample_shift(ds, 0.1)  # every cell of 2 victims moves by 10
    values = apply_plan(ds, plan).values
    clean = np.setdiff1d(np.arange(ds.n_samples), plan.sample)
    values[clean[0], 4] += 3.0
    values[clean[1], [1, 6]] -= 2.0
    ds = Dataset(values)
    return ds, recovery.decode_replacements(ds, a)


def table_route_span():
    ds, _, _ = shifted_complete_rows_table(0.2)
    return ds, iterative_svd_complete(ds, rank=2)


def table_route_hard_impute():
    ds, _, _ = shifted_complete_rows_table(0.5)
    ds = starved(ds, [0, 4])  # rows with a hidden cell, so the complete rows stay split
    return ds, iterative_svd_complete(ds, rank=2)


def table_route_hard_impute_fully_visible():
    _, clean = low_rank_dataset(60, 8, 2, seed=1)
    clean[:30] += 10.0  # no span holds more than half the complete rows
    ds = starved(Dataset(clean), [50, 55])
    return ds, iterative_svd_complete(ds, rank=2)


@pytest.mark.parametrize(
    "route, recovered, discarded, iterations, converged",
    [
        (table_route_recover_table, [1, 6, 7, 11, 14], [0, 2, 3, 4, 5, 9, 12, 13, 15], 0, True),
        (table_route_decode_replacements, [0, 1], [2, 10], 0, True),
        (
            table_route_span,
            [0, 4, 5, 7, 9, 11, 12, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24, 27, 28, 34, 35, 40,
             43, 45, 50, 52, 53, 58],
            [1, 2, 3, 6, 8, 10, 13],
            0,
            True,
        ),
        (
            table_route_hard_impute,
            [5, 7, 9, 11, 12, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24, 27, 28, 34, 35, 40, 43, 45,
             50, 52, 53, 58],
            [0, 4],
            20,
            False,
        ),
        (table_route_hard_impute_fully_visible, [], [50, 55], 0, True),
    ],
    ids=["recover_table", "decode_replacements", "svd_span", "svd_hard_impute", "svd_fully_visible"],
)
def test_every_table_route_reports_one_status_per_row(
    route, recovered, discarded, iterations, converged, monkeypatch
):
    monkeypatch.setattr(recovery, "COMPLETION_SWEEP_CAP", 20)  # hard-impute needs 100 sweeps here
    ds, report = route()
    assert report.status.shape == (ds.n_samples,) and report.status.dtype == np.int8
    kept = np.flatnonzero(report.status != RecoveryStatus.UNRECOVERABLE)
    assert report.completed.n_samples == kept.size
    unchanged = report.status[kept] == RecoveryStatus.UNCHANGED
    assert unchanged.any()
    assert report.completed.values[unchanged].tobytes() == ds.values[kept[unchanged]].tobytes()
    assert report.to_dict() == {
        "recovered_indices": recovered,
        "discarded_indices": discarded,
        "iterations": iterations,
        "converged": converged,
    }


def test_decode_replacements_refuses_hidden_cells_and_caps(monkeypatch):
    a = random_general_position(5, 2, seed=90)  # margin 4, radius 1: 5 supports
    ds = Dataset(np.random.default_rng(0).standard_normal((4, 2)) @ a.entries.T)
    with pytest.raises(ReplacementDecodingError, match="fully visible"):
        recovery.decode_replacements(apply_plan(ds, CorruptionPlan.hiding([0], [1])), a)
    big = StructureMatrix(np.random.default_rng(0).standard_normal((21, 3)))
    with pytest.raises(ReplacementDecodingError, match="exhaustive-search cap 20"):
        recovery.decode_replacements(Dataset(np.zeros((2, 21))), big)
    monkeypatch.setattr(recovery, "REPLACEMENT_SOLVE_CAP", 4)
    with pytest.raises(ReplacementDecodingError, match="5 supports within radius 1 exceed the cap 4"):
        recovery.decode_replacements(ds, a)


# ------------------------------------------------------------ sparse decoding


def test_sparse_decoding_repairs_one_replacement():
    a = random_general_position(16, 4, seed=103)
    rng = np.random.default_rng(5)
    x = a.entries @ rng.standard_normal(4)
    corrupted = x.copy()
    corrupted[7] += 4.0
    outcome = recover_by_sparse_decoding(a, corrupted, sparsity=1)
    assert outcome.status is RecoveryStatus.RECOVERED
    np.testing.assert_allclose(outcome.sample, x, atol=1e-6)
    assert outcome.residual_hamming == 1


def planted_replacements(seed, k):
    """A 16 x 4 Gaussian structure, a clean sample and a copy with k cells moved by +-U(3, 8)."""
    rng = np.random.default_rng(seed)
    a = StructureMatrix(rng.standard_normal((16, 4)))
    x = a.entries @ rng.standard_normal(4)
    corrupted = x.copy()
    cells = rng.choice(16, k, replace=False)
    corrupted[cells] += rng.choice([-1.0, 1.0], k) * rng.uniform(3, 8, k)
    return a, x, corrupted


@pytest.mark.parametrize("k, seed", [(2, 40), (3, 1)])
def test_sparse_decoding_repairs_planted_multi_cell_replacements(k, seed):
    a, x, corrupted = planted_replacements(seed, k)
    outcome = recover_by_sparse_decoding(a, corrupted, sparsity=k)
    assert outcome.status is RecoveryStatus.RECOVERED
    np.testing.assert_allclose(outcome.sample, x, atol=1e-6)
    assert outcome.residual_hamming == k


def test_sparse_decoding_is_deterministic():
    a, _, corrupted = planted_replacements(2, 3)
    first = recover_by_sparse_decoding(a, corrupted, 3)
    second = recover_by_sparse_decoding(a, corrupted, 3)
    assert (first.status, first.residual_hamming) == (second.status, second.residual_hamming)
    np.testing.assert_array_equal(first.sample, second.sample)


def test_sparse_decoding_clean_vector_unchanged():
    a = random_general_position(8, 3, seed=104)
    x = a.entries @ np.ones(3)
    outcome = recover_by_sparse_decoding(a, x, 1)
    assert outcome.status is RecoveryStatus.UNCHANGED
    np.testing.assert_array_equal(outcome.sample, x)


def test_sparse_decoding_reports_unrecoverable():
    a = random_general_position(8, 3, seed=105)
    rng = np.random.default_rng(7)
    x = a.entries @ np.ones(3)
    corrupted = corrupt_coords(x, [0, 2, 4, 6], rng)
    # Sparsity budget far below the actual corruption level.
    outcome = recover_by_sparse_decoding(a, corrupted, sparsity=1)
    assert outcome.status is RecoveryStatus.UNRECOVERABLE
    assert outcome.sample is None


def test_sparse_decoding_refuses_a_sparsity_that_explains_every_syndrome():
    # n - rank(A) = 5: five columns of F span its syndrome space, so at sparsity
    # 5 or more any sample would come back RECOVERED, here one that is not x.
    a = random_general_position(8, 3, seed=105)
    x = a.entries @ np.ones(3)
    corrupted = corrupt_coords(x, [0, 2, 4, 6], np.random.default_rng(7))
    assert a.parity_check.shape[0] == 5
    for sparsity in (1, 2, 3, 4):
        outcome = recover_by_sparse_decoding(a, corrupted, sparsity)
        assert outcome.status is RecoveryStatus.UNRECOVERABLE
    for sparsity in (5, 6, 8):
        with pytest.raises(ValueError, match=r"n - rank\(A\) = 5"):
            recover_by_sparse_decoding(a, corrupted, sparsity)
        # Refused before the range test: a clean sample raises too.
        with pytest.raises(ValueError, match=r"n - rank\(A\) = 5"):
            recover_by_sparse_decoding(a, x, sparsity)


def test_sparse_decoding_matches_direct_oracle():
    # Sparse Gaussian structures have margins from 1 up to n - r + 1, so the
    # radius min(sparsity, t) is sometimes the sparsity and sometimes t.
    rng = np.random.default_rng(145)
    statuses = set()
    for _ in range(150):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, n))
        entries = rng.standard_normal((n, r)) * (rng.random((n, r)) < 0.7)
        if not entries.any():
            continue
        a = StructureMatrix(entries)
        t = (min_rows_to_drop_rank_direct(entries) - 1) // 2
        sparsity = int(rng.integers(0, n - a.rank))
        x = entries @ rng.standard_normal(r)
        coords = rng.choice(n, int(rng.integers(0, n - a.rank + 1)), replace=False)
        x[coords] += rng.uniform(0.5, 2.0, coords.size) * rng.choice([-1.0, 1.0], coords.size)
        got = recover_by_sparse_decoding(a, x, sparsity)
        expected = decode_within_radius_direct(entries, x, min(sparsity, t))
        statuses.add(got.status)
        if expected is None:
            assert (got.status, got.sample) == (RecoveryStatus.UNRECOVERABLE, None)
        else:
            assert got.status is not RecoveryStatus.UNRECOVERABLE
            np.testing.assert_allclose(got.sample, expected, rtol=0, atol=1e-9 * np.abs(x).max())
    assert statuses == set(RecoveryStatus)


def test_single_sample_decoders_recover_no_wrong_sample():
    # The shipped structure (margin 5, radius 2) with k = 1 ... 4 cells of each
    # sample moved by +-U(3, 8). Within the radius every decoder repairs every
    # sample; past it, none may call a wrong sample RECOVERED, at any sparsity.
    a = make_structure(SHIPPED_STRUCTURE)
    radius = (min_rows_to_drop_rank_direct(a.entries) - 1) // 2
    assert radius == 2
    rng = np.random.default_rng(146)
    decoders = {
        "exhaustive": lambda s, k: recover_replacement_exhaustive(a, s),
        "randomized": lambda s, k: recover_replacement_randomized(a, s, np.random.default_rng(k)),
        "sparse at sparsity k": lambda s, k: recover_by_sparse_decoding(a, s, k),
        "sparse at sparsity 7": lambda s, k: recover_by_sparse_decoding(a, s, 7),
    }
    assert a.parity_check.shape[0] == 8  # so 7 is the largest sparsity accepted
    for k in range(1, 5):
        clean = rng.standard_normal((20, a.r)) @ a.entries.T
        corrupted = clean.copy()
        for x in corrupted:
            cells = rng.choice(a.n, k, replace=False)
            x[cells] += rng.choice([-1.0, 1.0], k) * rng.uniform(3, 8, k)
        for name, decode in decoders.items():
            for x, sample in zip(clean, corrupted):
                outcome = decode(sample, k)
                if outcome.status is RecoveryStatus.RECOVERED:
                    np.testing.assert_allclose(outcome.sample, x, rtol=0, atol=1e-8, err_msg=name)
                else:
                    assert k > radius and outcome.status is RecoveryStatus.UNRECOVERABLE, name


# ------------------------------------------------------------------ row blocks


def replaced_cells_table():
    """The shipped structure (radius 2) and 300 fully visible samples with 0 to 3 cells moved."""
    a = make_structure(SHIPPED_STRUCTURE)
    rng = np.random.default_rng(140)
    clean = rng.standard_normal((300, a.r)) @ a.entries.T
    counts = rng.integers(0, 4, clean.shape[0])
    rows = [
        corrupt_coords(x, rng.choice(a.n, k, replace=False), rng)
        for x, k in zip(clean, counts)
    ]
    return a, Dataset(np.array(rows))


def known_structure(a, ds):
    return recover_table(ds, a)


def rank_only(a, ds):
    return iterative_svd_complete(ds, a.r)


def replacement(a, ds):
    return recovery.decode_replacements(ds, a)


@pytest.mark.parametrize("block", [2, 3, 7])
@pytest.mark.parametrize(
    "decode, make_table, refuse",
    [
        (known_structure, lambda: criterion_7_tables(0.2)[0::2], False),
        (known_structure, lambda: criterion_7_tables(0.2)[0::2], True),
        (known_structure, lambda: weak_latent_table(1e-3, seed=134), False),
        (rank_only, lambda: criterion_7_tables(0.2)[0::2], False),
        (rank_only, lambda: weak_latent_table(1e-3, seed=135, complete_rows=100), False),
        (replacement, replaced_cells_table, False),
    ],
    ids=[
        "known_structure",
        "known_structure_svd_route",
        "known_structure_both_routes",
        "iterative_svd",
        "iterative_svd_both_routes",
        "replacement_radius_2",
    ],
)
def test_row_blocks_do_not_change_the_decode(decode, make_table, refuse, block, monkeypatch):
    # At 2-7 rows a block, the rows of one hiding pattern, and the certified
    # and SVD-route rows, fall in many blocks, and some blocks end in a lone row.
    a, ds = make_table()
    certified_counts(monkeypatch, refuse)
    monkeypatch.setattr(recovery, "_ROW_BLOCK", 10**9)
    whole = decode(a, ds)
    monkeypatch.setattr(recovery, "_ROW_BLOCK", block)
    blocked = decode(a, ds)
    assert blocked.completed.values.tobytes() == whole.completed.values.tobytes()
    assert recovered_rows(blocked) == recovered_rows(whole)
    assert discarded_rows(blocked) == discarded_rows(whole)
    assert recovered_rows(whole)


@pytest.mark.parametrize("block", [2, 5, 10**9])
def test_consensus_span_stops_early_without_changing_the_winner(block, monkeypatch):
    # Every other complete row is moved off the span: half the rows never win,
    # one more than half do, and the span is refitted on them.
    monkeypatch.setattr(recovery, "_ROW_BLOCK", block)
    _, clean = low_rank_dataset(40, 8, 2, seed=7)
    rows = clean.copy()
    rows[::2] += 10.0
    assert recovery._consensus_span(rows, 2) is None
    rows[0] -= 10.0
    span = recovery._consensus_span(rows, 2)
    monkeypatch.setattr(recovery, "_ROW_BLOCK", 10**9)
    assert span.tobytes() == recovery._consensus_span(rows, 2).tobytes()
    np.testing.assert_allclose(
        clean @ span @ span.T, clean, rtol=0, atol=1e-9 * np.abs(clean).max()
    )


@pytest.mark.parametrize("budget", [0.05, 0.2])
def test_decoders_allocate_a_few_tables_at_most(budget):
    a = make_structure(SHIPPED_STRUCTURE)
    ds = synthesize(a, draw_latents(LatentSpec("gaussian", 8), 20_000, np.random.default_rng(141)))
    table = apply_plan(ds, plan_tail_hiding(ds, budget))
    for decode in (known_structure, rank_only):
        tracemalloc.start()
        try:
            decode(a, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table.values.nbytes, (decode.__name__, peak / table.values.nbytes)

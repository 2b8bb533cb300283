import itertools
import tracemalloc

import numpy as np
import pytest

from entrymean import structure
from entrymean.datagen import StructureSpec, make_structure
from entrymean.errors import CapExceededError, DegenerateMatrixError
from entrymean.structure import (
    StructureMatrix,
    is_general_position,
    load_structure_csv,
    min_rows_to_drop_rank,
    null_space_basis,
    numerical_rank,
    sample_independent_rows,
    save_structure_csv,
)
from oracles import min_rows_to_drop_rank_direct


def random_general_position(n, r, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = StructureMatrix(rng.standard_normal((n, r)))
        if is_general_position(a):
            return a


def test_rank_basics():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    a = StructureMatrix(np.eye(5))
    assert a.rank == 5


def test_stacked_rank_matches_per_matrix_calls():
    rng = np.random.default_rng(21)
    stack = rng.standard_normal((40, 6, 4))
    stack[::3, :, 3] = stack[::3, :, 0] - stack[::3, :, 1]  # rank 3
    stack[1::5, 2:] = 0.0  # rank 2
    stack[2::7] *= 1e-30  # full rank at any scale
    stack[4] = 0.0
    stack[5, :, 1:] = 1e-14 * stack[5, :, :1]  # rank 1
    ranks = numerical_rank(stack)
    assert ranks.shape == (40,)
    assert ranks.tolist() == [numerical_rank(m) for m in stack]
    assert {0, 1, 2, 3, 4} <= set(ranks.tolist())


def test_rank_tolerance_is_relative():
    # A tiny but well-conditioned matrix must keep full rank.
    assert numerical_rank(1e-30 * np.eye(3)) == 3
    # A genuinely collapsed direction must disappear at any scale.
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    assert numerical_rank(m) == 1


def test_min_rows_identity_and_repeated_row():
    assert min_rows_to_drop_rank(StructureMatrix(np.eye(4))) == 1
    repeated = StructureMatrix(np.tile([[1.0, 0.0, 0.0]], (6, 1)))
    assert min_rows_to_drop_rank(repeated) == 6


@pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (8, 4), (7, 1)])
def test_min_rows_general_position_closed_form(n, r):
    a = random_general_position(n, r, seed=n * 10 + r)
    assert min_rows_to_drop_rank(a) == n - r + 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_min_rows_matches_direct_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    r = int(rng.integers(1, n + 1))
    entries = rng.standard_normal((n, r))
    if seed % 2:
        entries[n - 1] = entries[0]  # plant a duplicate row
    a = StructureMatrix(entries)
    assert min_rows_to_drop_rank(a) == min_rows_to_drop_rank_direct(entries)


def block_diagonal(shapes, rng):
    n, r = (sum(sizes) for sizes in zip(*shapes))
    return make_structure(StructureSpec("block_diagonal", n, r, blocks=shapes), rng).entries


@pytest.mark.parametrize("seed", range(3))
def test_min_rows_matches_direct_search_on_structured_matrices(seed):
    rng = np.random.default_rng(60 + seed)
    duplicated = rng.standard_normal((10, 3))
    duplicated[[4, 7, 9]] = duplicated[0]
    deficient = rng.standard_normal((11, 4))
    deficient[:, 3] = deficient[:, 0] - 2.0 * deficient[:, 1]  # rank 3
    deficient_blocks = block_diagonal([(5, 2), (5, 3)], rng)
    deficient_blocks[5:, 4] = deficient_blocks[5:, 2] + deficient_blocks[5:, 3]  # rank 4
    cases = {
        "block_diagonal": block_diagonal([(6, 3), (6, 3)], rng),
        "uneven_blocks": block_diagonal([(5, 1), (4, 2), (3, 2)], rng),
        "dense": rng.standard_normal((12, 4)),
        "duplicated": duplicated,
        "rank_deficient": deficient,
        "deficient_blocks": deficient_blocks,
    }
    for name, entries in cases.items():
        a = StructureMatrix(entries)
        assert min_rows_to_drop_rank(a) == min_rows_to_drop_rank_direct(entries), name


SEARCH_STRUCTURES = {
    "shipped": (StructureSpec("block_diagonal", 16, 8, blocks=((8, 4), (8, 4)), seed=20240501), 5),
    "blocks_n20": (StructureSpec("block_diagonal", 20, 10, blocks=((10, 5), (10, 5)), seed=20240501), 6),
    "dense_16x8": (StructureSpec("dense", 16, 8, seed=20240501), 9),
}


@pytest.mark.parametrize("name", SEARCH_STRUCTURES)
def test_min_rows_on_the_search_structures(name):
    spec, margin = SEARCH_STRUCTURES[name]
    assert min_rows_to_drop_rank(make_structure(spec)) == margin


def test_min_rows_search_memory_stays_small():
    a = make_structure(SEARCH_STRUCTURES["blocks_n20"][0])
    tracemalloc.start()
    try:
        assert min_rows_to_drop_rank(a) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_min_rows_bounds_and_caps():
    rng = np.random.default_rng(7)
    a = StructureMatrix(rng.standard_normal((6, 3)))
    m = min_rows_to_drop_rank(a)
    assert 1 <= m <= a.n
    with pytest.raises(CapExceededError):
        min_rows_to_drop_rank(StructureMatrix(np.eye(25)))
    with pytest.raises(ValueError):
        min_rows_to_drop_rank(StructureMatrix(np.zeros((3, 3))))


def test_general_position_detects_dependent_subset():
    good = random_general_position(6, 3, seed=11)
    assert is_general_position(good)
    bad = good.entries.copy()
    bad[3] = bad[0] + bad[1]  # rows 0, 1, 3 now dependent
    assert not is_general_position(StructureMatrix(bad))
    assert not is_general_position(StructureMatrix(np.array([[1.0], [0.0]])))


@pytest.mark.parametrize("seed", range(8))
def test_general_position_matches_per_subset_rank(seed):
    # Random, duplicated-row, planted-dependent and nearly dependent matrices.
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(3, 9)), int(rng.integers(1, 4))
    entries = rng.standard_normal((max(n, r + 1), r))
    planted = entries[0] + (entries[1] if r > 1 else 0.0)
    last_rows = {
        "random": entries[-1],
        "duplicate": entries[0],
        "dependent": planted,
        "near_1e-12": planted + 1e-12 * rng.standard_normal(r),
        "near_1e-8": planted + 1e-8 * rng.standard_normal(r),
    }
    for kind, last in last_rows.items():
        e = np.vstack([entries[:-1], last])
        a = StructureMatrix(e)
        per_subset = a.rank == r and all(
            numerical_rank(e[list(rows)]) == r for rows in itertools.combinations(range(a.n), r)
        )
        assert is_general_position(a) == per_subset, kind


def test_general_position_cap():
    with pytest.raises(CapExceededError):
        is_general_position(StructureMatrix(np.random.default_rng(0).standard_normal((40, 20))))


def test_parity_check_is_a_cached_read_only_complement_basis():
    a = random_general_position(7, 3, seed=93)
    f = a.parity_check
    assert f is a.parity_check
    assert f.shape == (4, 7)
    np.testing.assert_allclose(f @ f.T, np.eye(4), atol=1e-12)
    assert np.max(np.abs(f @ a.entries)) < 1e-12
    assert not f.flags.writeable


def test_null_space_basis_orthogonal_to_rows():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 7))
    basis = null_space_basis(m)
    assert basis.shape == (3, 7)
    assert np.max(np.abs(m @ basis.T)) < 1e-12
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_null_space_of_zero_and_full_rank():
    assert null_space_basis(np.zeros((2, 3))).shape == (3, 3)
    assert null_space_basis(np.eye(3)).shape == (0, 3)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_sample_independent_rows_uniform_and_valid(seed):
    rng = np.random.default_rng(seed)
    a = random_general_position(7, 3, seed=seed + 100)
    idx = sample_independent_rows(a, 3, rng)
    assert len(idx) == 3 and len(set(idx.tolist())) == 3
    assert numerical_rank(a.entries[idx]) == 3


def test_sample_independent_rows_rejects_dependent_matrices():
    # Rank 1, so no pair of rows is ever independent.
    a = StructureMatrix(np.tile([[1.0, 2.0]], (5, 1)))
    with pytest.raises(ValueError):
        sample_independent_rows(a, 2, np.random.default_rng(0))


def test_sample_independent_rows_retry_budget(monkeypatch):
    entries = np.vstack([np.eye(2), np.tile([[1.0, 0.0]], (30, 1))])
    a = StructureMatrix(entries)
    rng = np.random.default_rng(5)
    # Independent pairs exist but are rare; a budget of one draw should fail
    # for at least one seed while a generous budget succeeds.
    monkeypatch.setattr(structure, "DRAW_CAP", 1)
    with pytest.raises(DegenerateMatrixError):
        for s in range(20):
            sample_independent_rows(a, 2, np.random.default_rng(s))
    monkeypatch.setattr(structure, "DRAW_CAP", 10_000)
    idx = sample_independent_rows(a, 2, rng)
    assert numerical_rank(a.entries[idx]) == 2


def test_structure_csv_round_trip(tmp_path):
    a = random_general_position(5, 2, seed=9)
    path = tmp_path / "structure.csv"
    save_structure_csv(a, path)
    back = load_structure_csv(path)
    np.testing.assert_array_equal(back.entries, a.entries)


def test_structure_csv_reads_like_loadtxt(tmp_path):
    rng = np.random.default_rng(14)
    for trial in range(60):
        n, r = rng.integers(1, 17), rng.integers(1, 9)
        entries = rng.standard_normal((n, r)) * 10.0 ** rng.integers(-300, 301, (n, r))
        entries[rng.random((n, r)) < 0.1] = 0.0
        entries[rng.random((n, r)) < 0.1] = -0.0
        path = tmp_path / f"structure{trial}.csv"
        save_structure_csv(StructureMatrix(entries), path)
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        got = load_structure_csv(path).entries
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n3,\n", "row 1, column 1: '' is not a number"),
        ("1,2\n# a,b\n3,4\n", "row 1, column 0: '# a' is not a number"),
        ("1,2\n\n3,4\n", "row 1 has 0 fields, expected 2"),
    ],
    ids=["empty_cell", "comment", "blank_line"],
)
def test_structure_csv_errors_name_the_row(tmp_path, text, message):
    path = tmp_path / "structure.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_structure_csv(path)
    assert str(info.value) == message


def test_structure_matrix_validation():
    with pytest.raises(ValueError):
        StructureMatrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        StructureMatrix(np.array([[np.inf, 1.0]]))

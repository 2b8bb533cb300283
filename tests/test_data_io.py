import numpy as np
import pytest

from entrymean import data as data_module
from entrymean.data import Dataset, load_dataset_csv, save_dataset_csv

import oracles


def test_dataset_normalizes_hidden_cells_to_nan():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[False, True], [False, False]]))
    assert np.isnan(ds.values[0, 1])
    assert ds.values[1, 1] == 4.0
    assert ds.hidden_fraction() == 0.25


def test_dataset_rejects_nonfinite_visible_entries():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0]]), np.array([[True, False]]))


def test_dataset_copy_is_independent():
    ds = Dataset(np.ones((2, 2)))
    dup = ds.copy()
    dup.values[0, 0] = 7.0
    assert ds.values[0, 0] == 1.0


def test_csv_round_trip_with_hidden_cells(tmp_path):
    values = np.array([[1.5, -2.0, 3.25], [0.1, 0.2, 0.3]])
    mask = np.array([[False, True, False], [False, False, True]])
    ds = Dataset(values, mask)
    path = tmp_path / "table.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    np.testing.assert_array_equal(back.mask, mask)
    np.testing.assert_array_equal(back.values[~mask], values[~mask])


def test_csv_round_trip_preserves_all_digits(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((5, 4)) * 1e-3)
    path = tmp_path / "precise.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    np.testing.assert_array_equal(back.values, ds.values)


def test_csv_ragged_row_reports_location(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 1"):
        load_dataset_csv(path)


def test_csv_bad_cell_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="row 1, column 1"):
        load_dataset_csv(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset_csv(path)


def _awkward_table(rng, n_samples, dim):
    """Random table with hidden cells, all-hidden rows, -0.0, subnormals and +-1e300."""
    magnitudes = 10.0 ** rng.uniform(-310, 300, size=(n_samples, dim))
    values = rng.choice([-1.0, 1.0], size=(n_samples, dim)) * magnitudes
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, 1.0])
    pick = rng.random((n_samples, dim)) < 0.2
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    mask = rng.random((n_samples, dim)) < 0.3
    mask[rng.random(n_samples) < 0.1] = True
    mask[0] = True
    mask[1] = False
    return Dataset(values, mask)


def read_like_direct(path, monkeypatch):
    """Read ``path`` with both readers and require the same outcome.

    Same values, mask and sign bits, or the same exception type and message.
    Returns how many times the package fell back to its per-cell reader.
    """
    fallbacks = []
    by_cell = data_module._load_by_cell

    def counted(p):
        fallbacks.append(p)
        return by_cell(p)

    monkeypatch.setattr(data_module, "_load_by_cell", counted)
    try:
        expected = Dataset(*oracles.load_dataset_csv_direct(path))
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            load_dataset_csv(path)
        assert str(info.value) == str(exc)
        return len(fallbacks)
    got = load_dataset_csv(path)
    np.testing.assert_array_equal(got.mask, expected.mask)
    assert np.array_equal(got.values, expected.values, equal_nan=True)
    assert np.array_equal(np.signbit(got.values), np.signbit(expected.values))
    return len(fallbacks)


@pytest.mark.parametrize("dim", [1, 2, 16, 70])
def test_csv_writer_bytes_match_csv_module(tmp_path, monkeypatch, dim):
    rng = np.random.default_rng(dim)
    ds = _awkward_table(rng, 60, dim)
    fast, direct = tmp_path / "fast.csv", tmp_path / "direct.csv"
    save_dataset_csv(ds, fast)
    oracles.save_dataset_csv_direct(ds.values, ds.mask, direct)
    assert fast.read_bytes() == direct.read_bytes()
    back = load_dataset_csv(fast)
    visible = ~ds.mask
    np.testing.assert_array_equal(back.mask, ds.mask)
    np.testing.assert_array_equal(back.values[visible], ds.values[visible])
    assert np.array_equal(np.signbit(back.values[visible]), np.signbit(ds.values[visible]))
    # One column writes a hidden row as '""', which only the per-cell reader takes.
    assert read_like_direct(fast, monkeypatch) == (1 if dim == 1 else 0)


def test_csv_writer_quotes_one_column_hidden_row(tmp_path):
    path = tmp_path / "one.csv"
    mask = np.array([[False], [True], [False]])
    save_dataset_csv(Dataset(np.array([[1.5], [0.0], [-0.0]]), mask), path)
    assert path.read_bytes() == b'1.5\r\n""\r\n-0\r\n'
    back = load_dataset_csv(path)
    np.testing.assert_array_equal(back.mask, mask)


@pytest.mark.parametrize("block_bytes", [64, data_module._BLOCK_BYTES])
def test_csv_reader_matches_direct_across_blocks(tmp_path, monkeypatch, block_bytes):
    # Larger than one block of either size, with the first or last cell hidden
    # in a third of the rows each, so blocks start and end on holes.
    ds = _awkward_table(np.random.default_rng(7), 1500, 16)
    mask = ds.mask.copy()
    rows = np.random.default_rng(8).random(mask.shape[0])
    mask[rows < 1 / 3, 0] = True
    mask[rows > 2 / 3, -1] = True
    path = tmp_path / "big.csv"
    save_dataset_csv(Dataset(ds.values, mask), path)
    assert path.stat().st_size > block_bytes
    monkeypatch.setattr(data_module, "_BLOCK_BYTES", block_bytes)
    assert read_like_direct(path, monkeypatch) == 0


def test_csv_reader_finds_ragged_rows_in_later_blocks(tmp_path, monkeypatch):
    path = tmp_path / "ragged.csv"
    path.write_bytes(b"1,2\n" * 3 + b"1,2,3\n" * 3)
    monkeypatch.setattr(data_module, "_BLOCK_BYTES", 1)  # one line per block
    assert read_like_direct(path, monkeypatch) == 1


@pytest.mark.parametrize(
    "text, block_path",
    [
        (b"1, 2\r\n 3,4 \r\n", False),  # padded cells
        (b"1, \n2,3\n", False),  # a blank cell hides, as an empty one does
        (b'"1","2"\r\n3,"-0"\r\n', False),  # quoted numbers
        (b'1.5\r\n""\r\n-0\r\n', False),  # a one-column hidden row
        (b"1,,3\n,-0,6\n", True),  # LF
        (b"1,,3\r\n,-0,6\r\n", True),  # CRLF
        (b"1,,3\r\n,5,6\n7,8,\r\n", True),  # both
        (b"1,2\r\n3,", True),  # no final newline
        (b"1,2\r3,4\r", False),  # lone CR
        (b"5\n-0\n", True),  # one column
        (b"5", True),  # one cell
        (b",\n1,2\n", True),  # an all-hidden row
        (b"1,2\n\n3,4\n", False),  # blank line
        (b"\n1,2\n", False),  # blank first line
        (b"5\n\n6\n", False),  # a blank line is no one-column hidden row
        (b"1,#\n", False),  # '#' is no comment
        (b"nan,1\n", True),  # a visible nan is refused
        (b"1,-inf\n", True),
        (b"1,2\ninfinity,NaN\n", True),
        (b"1_0,2\n", False),  # float's underscores
        (b"1,2,3\n4,5\n", False),  # ragged
        (b"1,2\n3,4,5\n", False),
        (b"1,2\n3,x\n", False),  # bad cell
        (b"1,2\n3,1e\n", False),  # bad cell of plain bytes
        (b"1,2\n3,1e5e\n", False),
        (b"", False),  # empty file
        (b"\xc2\xa01,2\n", False),  # non-ASCII space
    ],
)
def test_csv_reader_matches_direct_on_hand_written_files(tmp_path, monkeypatch, text, block_path):
    path = tmp_path / "hand.csv"
    path.write_bytes(text)
    assert read_like_direct(path, monkeypatch) == (0 if block_path else 1)


def test_csv_reader_matches_direct_on_number_like_cells(tmp_path, monkeypatch):
    # Random cells over the bytes the block path accepts: whatever the C parser
    # takes, float must take with the same bits, and the reverse.
    rng = np.random.default_rng(0)
    alphabet = np.array(list("0123456789" * 3 + "+-.eE.eE" + "nNaAiIfFtTyY"))
    number_like = ["1e500", "-1e-400", "+.5E-3", "1.", "-iNfInItY", "+nan", "-NaN", "4.9e-324"]
    cells = number_like + ["".join(rng.choice(alphabet, rng.integers(1, 7))) for _ in range(300)]
    path = tmp_path / "cell.csv"
    for cell in cells:
        path.write_text(f"{cell},1\n")
        read_like_direct(path, monkeypatch)

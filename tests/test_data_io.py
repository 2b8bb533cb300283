import numpy as np
import pytest

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


@pytest.mark.parametrize("dim", [1, 2, 16, 70])
def test_csv_writer_bytes_match_csv_module(tmp_path, dim):
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


def test_csv_writer_quotes_one_column_hidden_row(tmp_path):
    path = tmp_path / "one.csv"
    mask = np.array([[False], [True], [False]])
    save_dataset_csv(Dataset(np.array([[1.5], [0.0], [-0.0]]), mask), path)
    assert path.read_bytes() == b'1.5\r\n""\r\n-0\r\n'
    back = load_dataset_csv(path)
    np.testing.assert_array_equal(back.mask, mask)

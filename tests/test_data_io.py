import decimal
import math
import tracemalloc
from fractions import Fraction

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
    with pytest.raises(ValueError, match="visible entries must be finite"):
        Dataset(np.array([[1.0, 2.0], [-np.inf, 3.0]]), np.array([[True, False], [False, True]]))
    # Hidden cells already NaN, so the table would be kept as it is.
    with pytest.raises(ValueError, match="visible entries must be finite"):
        Dataset(np.array([[np.nan, np.nan]]), np.array([[True, False]]))
    with pytest.raises(ValueError, match="visible entries must be finite"):
        Dataset(np.array([[np.nan, -np.inf]]), np.array([[True, False]]))


def test_dataset_copy_is_independent():
    ds = Dataset(np.ones((2, 2)))
    dup = ds.copy()
    dup.values[0, 0] = 7.0
    assert ds.values[0, 0] == 1.0


def test_dataset_keeps_a_float64_table_whose_hidden_cells_are_nan():
    values = np.array([[1.0, np.nan], [3.0, 4.0]])
    mask = np.isnan(values)
    ds = Dataset(values, mask)
    assert ds.values is values and ds.mask is mask
    table = np.arange(6.0).reshape(3, 2)
    assert Dataset(table).values is table


def test_dataset_never_writes_into_the_callers_array():
    # A number in one hidden cell, NaN in another: the table is copied, and
    # the caller's array keeps every bit.
    values = np.ones((5, 4))
    mask = np.zeros(values.shape, dtype=bool)
    values[0, 1] = np.nan
    mask[0, 1] = mask[-1, 2] = True
    before = values.copy()
    ds = Dataset(values, mask)
    assert values.tobytes() == before.tobytes()
    assert not np.shares_memory(ds.values, values)
    assert np.isnan(ds.values[-1, 2]) and np.count_nonzero(np.isnan(ds.values)) == 2
    hidden_inf = np.array([[np.inf, 1.0]])
    assert np.isnan(Dataset(hidden_inf, np.array([[True, False]])).values[0, 0])
    assert hidden_inf[0, 0] == np.inf
    # A view of the caller's memory that is not the caller's array object.
    buffer = np.ones(4)
    view = Dataset(np.frombuffer(buffer, dtype=float).reshape(2, 2), np.eye(2, dtype=bool))
    assert buffer.tolist() == [1.0] * 4 and np.isnan(view.values[0, 0])


def test_dataset_compacts_a_view_of_a_larger_buffer():
    buffer = np.ones((10, 3))
    ds = Dataset(buffer[:4])
    assert ds.values.shape == (4, 3) and not np.shares_memory(ds.values, buffer)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
def test_median_is_np_median_bit_for_bit(width):
    rng = np.random.default_rng(width)
    rows = rng.standard_normal((60, width)) * 10.0 ** rng.integers(-300, 301, (60, width))
    rows[:10] = rng.integers(-2, 3, (10, width))  # ties
    rows[10] = 0.0
    rows[10, ::2] = -0.0  # signed zeros
    rows[11] = -0.0
    assert data_module.median(rows, axis=1).tobytes() == np.median(rows, axis=1).tobytes()
    assert data_module.median(rows.T, axis=0).tobytes() == np.median(rows.T, axis=0).tobytes()


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


def fallback_counter(monkeypatch):
    """Count the cells the writer hands to Python's formatting."""
    python_g17, counts = data_module._python_g17, []

    def counted(x):
        counts.append(x.size)
        return python_g17(x)

    monkeypatch.setattr(data_module, "_python_g17", counted)
    return counts


def assert_writes_like_direct(tmp_path, values, mask=None):
    values = np.asarray(values, dtype=float)
    ds = Dataset(values, np.zeros(values.shape, dtype=bool) if mask is None else mask)
    fast, direct = tmp_path / "fast.csv", tmp_path / "direct.csv"
    save_dataset_csv(ds, fast)
    oracles.save_dataset_csv_direct(ds.values, ds.mask, direct)
    assert fast.read_bytes() == direct.read_bytes()


def test_csv_writer_every_fixed_notation_exponent(tmp_path, monkeypatch):
    # %.17g prints exponents -4..16 in fixed notation: every (exponent, sign)
    # class, with 17-digit, short and integer significands.
    rng = np.random.default_rng(11)
    k = np.arange(-4, 17)
    significands = np.r_[rng.uniform(1, 10, 40), np.round(rng.uniform(1, 10, 10), 3), 2.0, 9.5]
    values = (significands[:, None] * 10.0 ** k).ravel()
    values = np.r_[values, -values]
    counts = fallback_counter(monkeypatch)
    assert_writes_like_direct(tmp_path, values.reshape(-1, 7))
    assert sum(counts) == 0


def test_csv_writer_exact_ties(tmp_path, monkeypatch):
    # Doubles exactly halfway between two 17-digit decimals round to even. At
    # each exponent k = -4..15, m * 2**(k - 17) with m odd is such a tie: its
    # significand is m * 5**(16 - k) / 2.
    ties = [1000000000000000.25, 1000000000000000.75, 100000000000000.125, 1000000000000.03125]
    for k in range(-4, 16):
        for tenths in (15, 22):  # about 1.5 and 2.2 times 10**k
            ties.append(math.ldexp(2 * 10**15 * tenths // 5 ** (16 - k) | 1, k - 17))
    for x in ties:
        scaled = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
        assert scaled.denominator == 2
    counts = fallback_counter(monkeypatch)
    assert_writes_like_direct(tmp_path, np.r_[ties, np.negative(ties)][:, None])
    assert sum(counts) == 0


def test_csv_writer_power_of_ten_edges(tmp_path):
    powers = 10.0 ** np.arange(-6, 19)
    edges = np.r_[np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)]
    specials = [1e16, 1e17, 9.999999999999999e16, 0.0, -0.0, 7.0, 123456789.0, 2.0**53, 2.0**60]
    values = np.r_[edges, specials, np.arange(-500, 500)]
    values = np.r_[values, -values]
    assert_writes_like_direct(tmp_path, values.reshape(-1, 2))


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_csv_writer_needs_no_exact_log10(tmp_path, monkeypatch, shift):
    # A log10 that errs near powers of ten gives an exponent off by one there;
    # the range test must send those cells to the fallback.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    powers = 10.0 ** np.arange(-4, 18)
    values = np.r_[powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    values = np.r_[values, values * (1 + 1e-13), values * (1 - 1e-13)]
    assert_writes_like_direct(tmp_path, np.r_[values, -values].reshape(-1, 3))


@pytest.mark.parametrize("block_cells", [1, 50, data_module._BLOCK_CELLS])
def test_csv_writer_blocks_split_anywhere(tmp_path, monkeypatch, block_cells):
    # Blocks of whole rows; fewer cells per block than columns means one row each.
    monkeypatch.setattr(data_module, "_BLOCK_CELLS", block_cells)
    ds = _awkward_table(np.random.default_rng(12), 90, 70)
    assert_writes_like_direct(tmp_path, ds.values, ds.mask)


def test_csv_writer_holds_one_block_at_a_time(tmp_path):
    # A 2^13-cell block's buffers peak at about 1.1 MiB traced and are freed
    # before the next block allocates its own; a stale block added ~0.35 MiB,
    # a second layout array ~0.9 MiB (2.4 MiB in all, before).
    rng = np.random.default_rng(15)
    values = rng.standard_normal((4000, 16))
    hidden = rng.random(values.shape) < 0.05
    values[hidden] = np.nan
    path = tmp_path / "w.csv"
    data_module.write_csv_rows(path, values, hidden)  # builds the cached digit table
    tracemalloc.start()
    try:
        data_module.write_csv_rows(path, values, hidden)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 2**20, peak / 2**20


def outside_fixed_notation(values, mask):
    """How many visible cells %.17g prints as 0 or in exponent notation."""
    magnitude = np.abs(values[~mask])
    return np.count_nonzero((magnitude < 1e-4) | (magnitude >= 1e17))


def test_csv_writer_formats_in_python_only_outside_fixed_notation(tmp_path, monkeypatch):
    # Every other cell gets its significand from the exact two-product.
    counts = fallback_counter(monkeypatch)
    rng = np.random.default_rng(14)
    gaussian = rng.standard_normal((4000, 16))
    gaussian[rng.random(gaussian.shape) < 0.001] = 0.0
    assert_writes_like_direct(tmp_path, gaussian)
    assert sum(counts) == outside_fixed_notation(gaussian, np.zeros(gaussian.shape, dtype=bool)) > 0
    counts.clear()
    rng = np.random.default_rng(13)
    spread = rng.standard_normal((500, 16)) * 10.0 ** rng.integers(-6, 19, (500, 1))
    mask = rng.random(spread.shape) < 0.1
    assert_writes_like_direct(tmp_path, spread, mask)
    assert sum(counts) == outside_fixed_notation(spread, mask) > 0


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
        (b"1,.-5\n", False),  # a sign after the point
        (b".+5,1\n", False),
        (b"1,.\n", False),  # a point and no digit
        (b".\n", False),
        (b"1,-.\n", False),
        (b"1,1.2.3\n", False),  # two points
        (b"1,1e5.5\n", False),  # a point in the exponent
        (b"1,1e.5\n", False),
        (b"1,1e5e3\n", False),  # two exponents
        (b"1,1e5n\n", False),
        (b"1,1e+\n", False),
        (b"1,-e5\n", False),
        (b"1,1e99999999999999999999\n", True),  # an overflowing exponent: inf, refused
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


def write_cells(path, cells, width=4):
    """Write text cells row by row, ``width`` to a row, padding the last row with 1."""
    cells = list(cells) + ["1"] * (-len(cells) % width)
    rows = [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
    path.write_text("\r\n".join(rows) + "\r\n")


def test_csv_reader_every_fixed_notation_exponent(tmp_path, monkeypatch):
    # Random 17-digit decimals, most of them no double's shortest form, in
    # every exponent class that %.17g prints without an exponent.
    rng = np.random.default_rng(21)
    cells = []
    for k in range(-4, 17):
        for _ in range(150):
            digits = str(rng.integers(10**16, 10**17))
            if k >= 0:
                text = digits[: k + 1] + ("." + digits[k + 1 :] if k < 16 else "")
            else:
                text = "0." + "0" * (-k - 1) + digits
            cells.append(("-" if rng.random() < 0.5 else "") + text)
    path = tmp_path / "classes.csv"
    write_cells(path, cells, width=7)
    assert read_like_direct(path, monkeypatch) == 0


def test_csv_reader_exponent_notation(tmp_path, monkeypatch):
    # %.17g's exponent notation below 1e-4 and from 1e17, and other spellings.
    rng = np.random.default_rng(24)
    cells = []
    for k in [*range(-14, -4), *range(17, 30)]:
        for _ in range(40):
            digits = str(rng.integers(10**16, 10**17))
            marker = "eE"[rng.integers(2)]
            cells.append(f"{'-' if rng.random() < 0.5 else ''}{digits[0]}.{digits[1:]}{marker}{k:+03d}")
            cells.append(f"{digits}e{k - 16}")
    path = tmp_path / "exponents.csv"
    write_cells(path, cells, width=5)
    assert read_like_direct(path, monkeypatch) == 0


def test_csv_reader_near_ties_and_powers_of_two(tmp_path, monkeypatch):
    # Exact ties between neighbouring doubles (round half to even), decimals
    # just off them, and powers of two with their neighbours, where the
    # spacing of doubles halves below the power.
    def text(x):
        return format(decimal.Decimal(x.numerator) / x.denominator, "f")

    cells = []
    for e in range(52, 59):  # 18 digits at most
        spacing = Fraction(2) ** (e - 52)
        top = Fraction(2) ** (e + 1)
        ties = [top / 2 + spacing / 2, top / 2 + Fraction(11, 2) * spacing, top - spacing / 2, top / 2 - spacing / 4]
        near = Fraction(1, 100) if e < 54 else Fraction(1)
        cells += [text(t + dt) for t in ties for dt in (0, -near, near)]
    powers = 2.0 ** np.arange(-13, 57)
    for x in np.r_[powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]:
        cells += ["%.17g" % x, "%.16g" % x, repr(float(x)), "-%.17g" % x]
    path = tmp_path / "ties.csv"
    write_cells(path, cells)
    assert read_like_direct(path, monkeypatch) == 0
    got = load_dataset_csv(path).values.ravel()[: len(cells)]
    assert np.array_equal(got, [float(c) for c in cells])


def test_csv_reader_signs_points_and_long_cells(tmp_path, monkeypatch):
    cells = [
        "+1.5", "+.5", ".5", "-.5", "5.", "-5.", "+5", "-0", "-0.0", "+0", "-.0", "0.000",
        "007.25", "-000000000000000000000012.5",  # leading zeros, beyond 18 digits
        "123456789012345678", "-999999999999999999",  # 18 digits
        "1234567890123456789", "-9223372036854775808", "99999999999999999999",  # 19, 20
        "1.234567890123456789012345", "0.0000000000000000000000000001",  # f = 28
        "0.000000000000000000000000001", "123456789.000000000000000000",
        "1e5", "-1.5E-3", "4.9e-324", "1.e5", "-0e7", "+1.25e+2", "123e-2", "5E0",
        "1e27", "1e28", "-1e-27", "12345678901234567e-30", "9.9999999999999999e22",
        "1e300", "1.5e0000000000000000000003", "1e-9223372036854775808", "-1.5e-9223372036854775807",
        "1234567890123456789012e5", "-0.00000000000000000000001234e-3",  # long, with exponents
    ]
    path = tmp_path / "signs.csv"
    write_cells(path, cells)
    assert read_like_direct(path, monkeypatch) == 0
    values = load_dataset_csv(path).values.ravel()[: len(cells)]
    want = np.array([float(c) for c in cells])
    assert np.array_equal(values, want)
    assert np.array_equal(np.signbit(values), np.signbit(want))


def test_csv_reader_reads_written_tables_in_blocks(tmp_path, monkeypatch):
    # Fixed and exponent notation, hidden cells and awkward values: whatever
    # the writer writes, the reader reads on its block route.
    rng = np.random.default_rng(22)
    values = rng.standard_normal((500, 16)) * 10.0 ** rng.integers(-6, 19, (500, 1))
    mask = rng.random(values.shape) < 0.1
    plain = tmp_path / "plain.csv"
    save_dataset_csv(Dataset(values, mask), plain)
    awkward = tmp_path / "awkward.csv"
    save_dataset_csv(_awkward_table(np.random.default_rng(25), 300, 16), awkward)
    assert read_like_direct(plain, monkeypatch) == 0
    assert read_like_direct(awkward, monkeypatch) == 0


def test_csv_reader_certifies_most_gaussian_cells(tmp_path, monkeypatch):
    # The writer formats almost every Gaussian cell itself; the reader reads the table back
    # bit for bit without falling back to its per-cell reader.
    rng = np.random.default_rng(23)
    values = rng.standard_normal((4000, 16))
    path = tmp_path / "gaussian.csv"
    mask = rng.random(values.shape) < 0.1
    counts = fallback_counter(monkeypatch)
    save_dataset_csv(Dataset(values, mask), path)
    assert sum(counts) <= 0.02 * values.size
    assert read_like_direct(path, monkeypatch) == 0
    back = load_dataset_csv(path)
    np.testing.assert_array_equal(back.mask, mask)
    assert np.array_equal(back.values[~mask], values[~mask])

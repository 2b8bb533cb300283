"""Sample tables with an explicit mask for hidden entries, and their CSV form.

This module is the one reader and writer of numeric CSV tables (datasets,
distributions, structures; covariances are only read) and gives the text of
every JSON document, by :func:`json_document`. The reader refuses a blank
line or a ``#`` comment and takes two routes. A plain file (decimal numbers,
empty cells for hidden entries, LF or CRLF line ends) is read in blocks of
whole lines: the hidden mask comes from where the empty fields sit, and one
float ``np.loadtxt`` parses each block, a ``0`` written into every empty
field. numpy's parse of a field is ``float``'s, so the values are the
correctly rounded ones. See :func:`_parse_block`. Anything else (quotes,
spaces, underscores, blank lines, ragged rows, a cell that does not parse)
makes the whole file go through a per-cell ``csv.reader`` loop, which also
raises the errors. Both routes give the same table, bit for bit.

The CSV writer gives the bytes of ``csv.writer`` with every visible cell as
``'%.17g' % v``, without a Python call for most cells. With k the decimal
exponent of v, a cell in the fixed-notation range 1e-4 <= |v| < 1e17 is
printed from its 17-digit significand, the correctly rounded integer of
P = |v| * 10**(16 - k). Dekker's exact two-product gives P = hi + lo in
float64 on every platform, so the significand is hi + rint(lo), and the one
check left is the range test 1e16 < significand < 1e17. Every cell it does
not cover (zeros, exponent notation, power-of-ten edges) falls back to
Python's ``'%.17g'``. See :func:`_format_g17`.

A :class:`Dataset` owns the arrays it is given: it keeps a float64 table
whose hidden cells already hold NaN (the reader, the planners' ``apply_plan``,
``synthesize`` and the decoders build theirs so), and copies one only to
write NaN into the hidden cells of an array its caller passed in, or to
compact a view that would keep a larger buffer alive. So one table costs one
table's memory, not two.

No package call loads ``numpy.ma`` or ``numpy.char``: importing them costs a
process about 15 ms and 1.2 MB of resident memory that it never uses.
``np.median`` loads ``numpy.ma`` for its NaN check, and so does ``np.unique``
when it returns no index, inverse or counts; ``np.char.str_len`` loads
``numpy.char``. So medians come from :func:`median`, ``np.unique`` is always
asked for an index or inverse (or ``np.bincount`` counts), and the writer
reads field lengths from the bytes it wrote.
"""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """A table of ``n_samples`` rows by ``dim`` coordinates.

    ``mask[i, j]`` is True where the entry is hidden. Hidden cells always hold
    NaN in ``values`` so that accidental arithmetic on them is loud; visible
    cells are always finite.

    The dataset takes ownership of the arrays it is given (``np.asarray``):
    a float64 table whose hidden cells already hold NaN is kept, not copied,
    and so is a bool mask. The table is copied only where NaN must be written
    into the hidden cells of an array the caller passed in, and where it is
    a view cut from a larger buffer, which it would otherwise keep alive.
    Callers hand over arrays they no longer write to; :meth:`copy` gives an
    independent dataset.
    """

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a non-empty 2-d array")
        if self.mask is None:
            mask = np.zeros(values.shape, dtype=bool)
        else:
            mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if getattr(values.base, "nbytes", 0) > values.nbytes:
            values = values.copy(order="K")
        nan = np.isnan(values)
        if not np.array_equal(nan, mask):
            if np.any(nan > mask):
                raise ValueError("visible entries must be finite")
            if values is self.values or values.base is not None:  # the caller's memory
                values = values.copy(order="K")
            values[mask] = np.nan
        if np.isinf(values).any():
            raise ValueError("visible entries must be finite")
        self.values = values
        self.mask = mask

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "Dataset":
        return Dataset(self.values.copy(), self.mask.copy())

    def hidden_fraction(self) -> float:
        return float(self.mask.mean())


def _reduce_visible_columns(values: np.ndarray, mask: np.ndarray, reduce) -> np.ndarray:
    """``reduce(rows, axis=1)`` of every column's visible entries; none may be empty.

    Columns with one visible count form one contiguous block, a row each, so
    a row gets the same pairwise sum or median as its 1-d column would.
    Columns with nothing hidden are copied once, others twice.
    """
    counts = mask.shape[0] - mask.sum(axis=0)
    out = np.empty(values.shape[1])
    levels, level_of = np.unique(counts, return_inverse=True)
    for level, count in enumerate(levels.tolist()):
        cols = np.flatnonzero(level_of == level)
        block = values.T[cols]
        if count < values.shape[0]:
            block = block[~mask.T[cols]].reshape(cols.size, count)
        out[cols] = reduce(block, axis=1)
    return out


def median(rows: np.ndarray, axis: int = 1) -> np.ndarray:
    """``np.median(rows, axis=axis)`` of finite rows, bit for bit, each of one or more
    entries: the same ``np.partition`` and the same ``np.mean`` of the middle one or
    two, without ``np.median``'s NaN check, which loads ``numpy.ma``."""
    size = rows.shape[axis]
    half = size // 2
    middle = [half - 1, half] if size % 2 == 0 else [half]
    part = np.partition(rows, [*middle, -1], axis=axis)  # np.median's kth, NaN slot included
    return np.mean(np.take(part, middle, axis=axis), axis=axis)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV where an empty cell marks a hidden entry.

    Raises ValueError naming the offending row and column for ragged rows or
    cells that do not parse as decimal numbers.
    """
    return Dataset(*_read_csv(path))


def read_dense_csv(path) -> np.ndarray:
    """The values of a CSV table read as :func:`load_dataset_csv` reads it,
    with its errors; an empty cell raises ValueError naming its row and column."""
    values, hidden = _read_csv(path)
    if hidden.any():
        i, j = np.argwhere(hidden)[0]
        raise ValueError(f"row {i}, column {j}: '' is not a number")
    return values


def _read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Values and hidden mask by :func:`read_plain_csv`, or where it refuses
    the file, from the start by :func:`_load_by_cell`: the one read path."""
    return read_plain_csv(path) or _load_by_cell(path)


def read_plain_csv(path):
    """Values and hidden mask of a plain CSV file, or None where it is not plain.

    The file is parsed about ``_BLOCK_BYTES`` at a time by :func:`_parse_block`;
    None when any block refuses, or when the file holds no line.
    """
    width = None
    values, masks = [], []
    with open(path, "rb") as fh:
        while text := fh.read(_BLOCK_BYTES):
            block = _parse_block(text + fh.readline(), width)  # whole lines
            if block is None:
                return None
            values.append(block[0])
            masks.append(block[1])
            width = block[1].shape[1]
    if not values:
        return None
    return np.concatenate(values), np.concatenate(masks)


_BLOCK_BYTES = 1 << 17
# The bytes a block may hold: digits, signs, points, exponents, the letters of
# nan, inf and infinity in either case, commas and line ends. On these the
# block reader and ``float`` agree; a space, quote, '#', '_' or non-ASCII byte
# sends the file to the per-cell reader.
_PLAIN = b"0123456789+-.eEnNaAiIfFtTyY,\r\n"
_COMMA, _LF, _CR, _ZERO = b",\n\r0"


def _parse_block(block: bytes, width: int | None):
    """Values and hidden mask of whole lines, or None where the block is not plain.

    Plain means: only ``_PLAIN`` bytes, every CR followed by LF, no blank
    line, ``width`` fields on every line (the first line's count when
    ``width`` is None), and every field empty or a number. The mask comes
    from the field boundaries: a field is hidden when it is empty, so a
    visible ``nan`` stays visible and :class:`Dataset` refuses it. Each empty
    field then gets a ``0``, one float ``np.loadtxt`` parses the block, and
    its hidden cells are set to NaN.
    numpy converts a field with ``PyOS_string_to_double``, the correctly
    rounded conversion ``float`` uses, so on these bytes the two give the
    same bits; a field it refuses makes the block not plain.
    """
    if not block.endswith(b"\n"):
        block += b"\n"  # the last line of a file without a final newline
    if block.translate(None, _PLAIN):
        return None
    buf = np.frombuffer(block, dtype=np.uint8)
    cr = np.flatnonzero(buf == _CR)
    if np.any(buf[cr + 1] != _LF):
        return None
    line_end = buf == _LF  # a line ends at its CR, or at its LF where it has none
    line_end[cr] = True
    line_end[cr + 1] = False
    ends = np.flatnonzero(line_end | (buf == _COMMA))
    # The byte before each field's end; at offset 0 it wraps to the block's
    # final LF, which reads as the start of a line, as it is.
    before = buf[ends - 1]
    starts_line = before == _LF
    empty = starts_line | (before == _COMMA)
    ends_line = line_end[ends]
    if np.any(ends_line & starts_line):
        return None  # a blank line
    n_rows = int(np.count_nonzero(ends_line))
    if width is None:
        width = int(np.argmax(ends_line)) + 1
    if ends.size != n_rows * width or not ends_line[width - 1 :: width].all():
        return None
    filled = np.insert(buf, ends[empty], _ZERO).tobytes()
    try:
        values = np.loadtxt(
            io.BytesIO(filled), dtype=float, delimiter=",", comments=None, encoding="latin1"
        )
    except ValueError:
        return None
    values, empty = values.reshape(n_rows, width), empty.reshape(n_rows, width)
    values[empty] = np.nan  # the one write of the hidden cells: Dataset keeps this array
    return values, empty


def _load_by_cell(path) -> tuple[np.ndarray, np.ndarray]:
    """Values and hidden mask one ``csv.reader`` cell at a time. It settles what the
    plain reader refuses: the errors, padded or quoted cells, and ``float``'s ``1_0``."""
    rows: list[list[float]] = []
    mask_rows: list[list[bool]] = []
    width = None
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh)):
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ValueError(
                    f"row {i} has {len(record)} fields, expected {width}"
                )
            vals = []
            hidden = []
            for j, cell in enumerate(record):
                cell = cell.strip()
                if cell == "":
                    vals.append(np.nan)
                    hidden.append(True)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"row {i}, column {j}: {cell!r} is not a number"
                    ) from None
                hidden.append(False)
            rows.append(vals)
            mask_rows.append(hidden)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows), np.array(mask_rows)


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV, leaving hidden cells empty.

    The bytes are those of ``csv.writer`` with its defaults: visible cells as
    ``format(v, ".17g")``, hidden cells empty, rows ended by CRLF, and a row
    that is one hidden cell written as ``""``. The cells are formatted by
    :func:`write_csv_rows`.
    """
    write_csv_rows(path, ds.values, ds.mask, b'""' if ds.dim == 1 else b"")


def json_document(obj) -> str:
    """The text of a JSON document: two-space indent, sorted keys, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_csv_rows(path, values: np.ndarray, hidden: np.ndarray | None = None, fill=b"") -> None:
    """Write a 2-d float table to the file ``path`` as CSV lines.

    A visible cell is written as ``'%.17g' % v``, a hidden one as the bytes
    ``fill`` (at most ``_FIELD``); cells are separated by commas and rows
    ended by CRLF, as ``csv.writer`` does for fields that need no quotes.
    Blocks of about ``_BLOCK_CELLS`` cells are formatted by
    :func:`_format_g17`, each straight into one byte array with a fixed-width
    slot per cell, and the unused bytes of the slots are dropped with one
    boolean mask; the packed bytes go to the file as they are.
    """
    values = np.asarray(values, dtype=float)
    if hidden is None:
        hidden = np.zeros(values.shape, dtype=bool)
    fill = np.frombuffer(fill, dtype=np.uint8)
    step = max(1, _BLOCK_CELLS // values.shape[1])
    with open(path, "wb") as fh:
        for start in range(0, values.shape[0], step):
            rows = slice(start, start + step)
            fh.write(_csv_lines(values[rows], hidden[rows], fill))


def _csv_lines(values: np.ndarray, hidden: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """The packed bytes of one block's CSV lines (:func:`write_csv_rows`). Its
    buffers end with the call, before the next block allocates its own."""
    n_cols = values.shape[1]
    hidden = hidden.ravel()
    slots = np.zeros((hidden.size, _SLOT), dtype=np.uint8)
    length = _format_g17(values.ravel(), ~hidden, slots)
    slots[hidden, : fill.size] = fill
    length[hidden] = fill.size
    # Each field is followed by "," or, at the end of a row, by CRLF.
    flat = slots.ravel()
    at = np.arange(0, flat.size, _SLOT) + length
    flat[at] = _COMMA
    last = at[n_cols - 1 :: n_cols]
    flat[last] = _CR
    flat[last + 1] = _LF
    end = (length + 1).astype(np.uint8)
    end[n_cols - 1 :: n_cols] += 1
    return slots[np.arange(_SLOT, dtype=np.uint8) < end[:, None]]


_FIELD = 24  # the widest %.17g field: -1.2345678901234567e-308
_SLOT = _FIELD + 2  # a field and its separator, "," or CRLF
# Blocks bound the transient buffers: one block per table added ~10 MB of peak RSS.
# Fields laid out straight into the slots, one block's buffers freed before the
# next's, on a 4 000 x 16 table with hidden cells (2-vCPU Xeon, 40-60 interleaved
# in-process writes, three runs): 2^13 / 2^12 cells took a median 15.8-19.9 /
# 17.9-23.1 ms with 1.09 / 0.55 MiB traced, against 16.7-21.1 ms and 2.37 MiB for
# the earlier layout at 2^13. tracemalloc sees numpy's buffers, not the heap the
# allocator keeps, so judge a block size by ru_maxrss.
_BLOCK_CELLS = 1 << 13
# 10**p = 5**p * 2**p with 5**p < 2**53, so each power the writer uses,
# p <= 20, is exact in float64.
_POW10 = np.array([float(10**p) for p in range(21)])
_MINUS, _POINT = b"-."


def _format_g17(x: np.ndarray, visible: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Write ``'%.17g' % v`` of each visible cell of ``x`` into its row of ``slots``.

    Returns the field lengths (0 for a cell that is not visible). A visible
    cell with 1e-4 <= |v| < 1e17 takes k = floor(log10 |v|), clipped to
    -4..16, and the significand of :func:`_significand`. The range test
    1e16 < significand < 1e17 makes k its decimal exponent (log10 may be off
    by one next to a power of ten) and rules out a carry into the next
    power. Its digits come from divmod by powers of ten and a table of
    4-digit words. Each (k, sign) class is one contiguous run after a stable
    sort and is laid out into its slots by one fixed template; trailing zeros
    of the fraction are then cut, and the point with them, as ``%g`` does.
    Every other visible cell (zero, an exponent-notation magnitude, a cell
    that fails the range test) is formatted by Python's ``'%.17g'``.
    """
    length = np.zeros(x.size, dtype=np.intp)
    cells, k, whole = _fixed_notation(x, visible)
    cls = ((k + 4) * 2 + (x[cells] < 0)).astype(np.uint8)
    order = np.argsort(cls, kind="stable")
    cells, k, cls = cells[order], k[order], cls[order]
    digits = _digits17(whole[order])
    starts = np.flatnonzero(np.r_[True, cls[1:] != cls[:-1]]) if cells.size else cells
    for start, stop in zip(starts, np.r_[starts[1:], cells.size]):
        run = slice(start, stop)
        _lay_out(slots, cells[run], digits[run], int(k[start]), bool(cls[start] & 1))
    fraction = 16 - k
    cut = np.minimum(np.argmax(digits[:, ::-1] != _ZERO, axis=1), fraction)
    full = (cls & 1) + np.where(k >= 0, 18 - (k == 16), 18 - k)
    length[cells] = full - cut - ((cut == fraction) & (fraction > 0))
    rest = np.flatnonzero(visible & (length == 0))  # a written field is never empty
    if rest.size:
        texts = _python_g17(x[rest]).view(np.uint8).reshape(-1, _FIELD)
        slots[rest, :_FIELD] = texts
        length[rest] = np.count_nonzero(texts, axis=1)  # NUL-padded, and '%.17g' has no NUL
    return length


def _fixed_notation(x: np.ndarray, visible: np.ndarray) -> tuple[np.ndarray, ...]:
    """The visible cells of ``x`` whose 17-digit significand passes the range
    test, with their exponents and significands; the temporaries end with the call."""
    magnitude = np.abs(x)
    cand = np.flatnonzero(visible & (magnitude >= 1e-4) & (magnitude < 1e17))
    magnitude = magnitude[cand]
    k = np.clip(np.floor(np.log10(magnitude)), -4, 16).astype(np.intp)
    whole = _significand(magnitude, k)
    ok = (whole > 10**16) & (whole < 10**17)
    return cand[ok], k[ok], whole[ok]


def _significand(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """hi + rint(lo) as int64, where P = a * 10**(16 - k) = hi + lo exactly.

    Dekker's two-product: the power is exact, each step is a separate float64
    array operation, so no fused multiply-add occurs, and for 1e-4 <= a < 1e17
    nothing overflows or underflows. Where P > 1e16 > 2**53, hi is an even
    integer, so hi + rint(lo) is the correctly rounded significand, ties to
    even as ``%.17g`` rounds. Its temporaries end with the call.
    """
    b = _POW10[16 - k]
    hi = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each float64: a = hi + lo exactly, each of at most 26
    significant bits, so the products of two halves are exact."""
    c = (2.0**27 + 1) * a
    hi = c - (c - a)
    return hi, a - hi


def _python_g17(x: np.ndarray) -> np.ndarray:
    """The fallback: ``'%.17g' % v`` of each value, by Python's correctly rounded dtoa."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype=f"S{_FIELD}")


def _digits17(whole: np.ndarray) -> np.ndarray:
    """ASCII digits of 17-digit integers, one row each."""
    words = np.empty((whole.size, 5), dtype=np.uint32)
    rest = whole
    for column, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        word, rest = np.divmod(rest, unit)
        words[:, column] = _digits4()[word]
    words[:, 4] = _digits4()[rest]
    return words.view(np.uint8)[:, 3:]  # the lead word reads "000d"


@functools.cache
def _digits4() -> np.ndarray:
    """The four ASCII digits of each v < 10**4, zero-padded, as one 32-bit word.

    Built on first use: its temporaries at import raised the peak RSS of
    processes that never write a CSV.
    """
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + _ZERO
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _lay_out(
    slots: np.ndarray, rows: np.ndarray, digits: np.ndarray, k: int, negative: bool
) -> None:
    """Fixed-notation fields of one exponent ``k`` and sign into ``slots[rows]``,
    before cutting zeros."""
    at = int(negative)
    if negative:
        slots[rows, 0] = _MINUS
    if k >= 0:
        slots[rows, at : at + k + 1] = digits[:, : k + 1]
        if k < 16:
            slots[rows, at + k + 1] = _POINT
            slots[rows, at + k + 2 : at + 18] = digits[:, k + 1 :]
    else:
        slots[rows, at : at + 1 - k] = _ZERO
        slots[rows, at + 1] = _POINT
        slots[rows, at + 1 - k : at + 18 - k] = digits

"""Sample tables with an explicit mask for hidden entries, and their CSV form.

The CSV reader takes two routes. A plain file (decimal numbers, empty cells
for hidden entries, LF or CRLF line ends) is read in blocks of whole lines:
the hidden mask comes from where the empty fields sit, each empty field is
filled with ``0`` and each line end turned into a comma, and ``np.loadtxt``
parses the block as one line of numbers. Anything else (quotes, spaces, blank
lines, ragged rows, a cell that does not parse) makes the whole file go
through a per-cell ``csv.reader`` loop, which also raises the errors. Both
routes give the same table, bit for bit.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """A table of ``n_samples`` rows by ``dim`` coordinates.

    ``mask[i, j]`` is True where the entry is hidden. Hidden cells always hold
    NaN in ``values`` so that accidental arithmetic on them is loud; visible
    cells are always finite.
    """

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a non-empty 2-d array")
        if self.mask is None:
            mask = np.zeros(values.shape, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        values[mask] = np.nan
        if not np.all(np.isfinite(values[~mask])):
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


def load_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV where an empty cell marks a hidden entry.

    Raises ValueError naming the offending row and column for ragged rows or
    cells that do not parse as decimal numbers.

    A plain file is parsed about ``_BLOCK_BYTES`` at a time by
    :func:`_parse_block`. A file that any block refuses is read again from
    the start by :func:`_load_by_cell`, which settles everything else: the
    errors, padded or quoted cells, and what ``float`` accepts beyond the C
    parser (``1_0``).
    """
    width = None
    values, masks = [], []
    with open(path, "rb") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            block = _parse_block(b"".join(lines), width)
            if block is None:
                return _load_by_cell(path)
            values.append(block[0])
            masks.append(block[1])
            width = block[1].shape[1]
    if not values:
        return _load_by_cell(path)
    return Dataset(np.concatenate(values), np.concatenate(masks))


_BLOCK_BYTES = 1 << 17
# The bytes a block may hold: digits, signs, points, exponents, the letters of
# nan, inf and infinity in either case, commas and line ends. On these the C
# parser and ``float`` agree; a space, quote, '#', '_' or non-ASCII byte sends
# the file to the per-cell reader.
_PLAIN = np.zeros(256, dtype=bool)
_PLAIN[np.frombuffer(b"0123456789+-.eEnNaAiIfFtTyY,\r\n", dtype=np.uint8)] = True
_COMMA, _LF, _CR, _ZERO = b",\n\r0"


def _parse_block(block: bytes, width: int | None):
    """Values and hidden mask of whole lines, or None where the block is not plain.

    Plain means: only ``_PLAIN`` bytes, every CR followed by LF, no blank
    line, and ``width`` fields on every line (the first line's count when
    ``width`` is None). The mask comes from the field boundaries: a field is
    hidden when it is empty, so a visible ``nan`` stays visible and
    :class:`Dataset` refuses it. Each empty field gets a ``0``, which
    ``Dataset`` overwrites with NaN, and the line ends become commas, so the
    C parser reads the block as one line of ``rows * width`` numbers.
    """
    if not block.endswith(b"\n"):
        block += b"\n"  # the last line of a file without a final newline
    buf = np.frombuffer(block, dtype=np.uint8)
    if not _PLAIN[buf].all():
        return None
    cr = np.flatnonzero(buf == _CR)
    if np.any(buf[cr + 1] != _LF):
        return None
    buf = np.delete(buf, cr + 1)  # a copy in which each line ends in one byte
    line_end = (buf == _LF) | (buf == _CR)
    ends = np.flatnonzero(line_end | (buf == _COMMA))
    # The byte before each field's end; at offset 0 it wraps to the block's
    # final line end, which reads as the start of a line, as it is.
    starts_line = line_end[ends - 1]
    empty = starts_line | (buf[ends - 1] == _COMMA)
    ends_line = line_end[ends]
    if np.any(ends_line & starts_line):
        return None  # a blank line
    n_rows = int(np.count_nonzero(ends_line))
    if width is None:
        width = int(np.argmax(ends_line)) + 1
    if ends.size != n_rows * width or not ends_line[width - 1 :: width].all():
        return None
    buf[ends] = _COMMA
    line = np.insert(buf, ends[empty], _ZERO)[:-1].tobytes()
    try:
        values = np.loadtxt([line], delimiter=",", comments=None)
    except ValueError:
        return None
    return values.reshape(n_rows, width), empty.reshape(n_rows, width)


def _load_by_cell(path) -> Dataset:
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
    return Dataset(np.array(rows), np.array(mask_rows))


def _row_template(hidden: np.ndarray) -> str:
    # "%.0s" prints a hidden cell's NaN as nothing. csv.writer quotes a row
    # that is one empty field, so a one-column hidden row reads '""'.
    if hidden.size == 1 and hidden[0]:
        return '""%.0s\r\n'
    return ",".join("%.0s" if h else "%.17g" for h in hidden) + "\r\n"


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV, leaving hidden cells empty.

    The bytes are those of ``csv.writer`` with its defaults: visible cells as
    ``format(v, ".17g")``, hidden cells empty, rows ended by CRLF, and a row
    that is one hidden cell written as ``""``. Each row is formatted by a
    ``%`` template cached per hiding pattern, and the file is written at once.
    """
    templates: dict[bytes, str] = {}
    lines = []
    for row, hidden in zip(ds.values.tolist(), ds.mask):
        key = hidden.tobytes()
        template = templates.get(key)
        if template is None:
            template = templates[key] = _row_template(hidden)
        lines.append(template % tuple(row))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))

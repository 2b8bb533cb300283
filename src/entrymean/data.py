"""Sample tables with an explicit mask for hidden entries."""
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
    """
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

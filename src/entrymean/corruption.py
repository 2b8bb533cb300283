"""Corruption planners, budgets and the relations between adversary classes.

Three budget semantics are supported:

* ``sample_fraction``: fraction of whole samples the adversary may touch.
* ``per_coordinate_fraction``: largest fraction of entries it may touch
  within any single coordinate.
* ``cell_fraction``: fraction of all cells of the table it may touch.

Planners return an explicit :class:`CorruptionPlan`, four parallel arrays with
one entry per touched cell, rather than mutating the data, so budget
accounting and application are separate, testable array operations.
:func:`make_plan` maps the adversary names in :data:`ADVERSARIES` to their
planners. The adaptive choices inside planners are deterministic (ties broken
by index) to keep benchmark runs reproducible.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, _reduce_visible_columns
from .errors import ConfigError
from .structure import StructureMatrix

HIDE = "hide"
REPLACE = "replace"
DEFAULT_SHIFT = 10.0  # what sample_shift adds to each victim cell when no shift is given


class AdversaryKind(str, Enum):
    """Budget accountings, coarsest first; :func:`can_simulate` relies on the order."""

    SAMPLE_FRACTION = "sample_fraction"
    PER_COORDINATE_FRACTION = "per_coordinate_fraction"
    CELL_FRACTION = "cell_fraction"


@dataclass(frozen=True)
class Budget:
    kind: AdversaryKind
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AdversaryKind(self.kind))
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"budget must lie in [0, 1], got {self.value}")


@dataclass(frozen=True, eq=False)
class CorruptionPlan:
    """Touched cells as four parallel read-only 1-d arrays, one entry per edit.

    Edit ``k`` hides cell ``(sample[k], coord[k])`` when ``hide[k]`` is set and
    otherwise replaces its value by ``value[k]``; ``value`` is NaN exactly
    where ``hide`` is set.
    """

    sample: np.ndarray
    coord: np.ndarray
    hide: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        sample = np.array(self.sample, dtype=np.int64)
        coord = np.array(self.coord, dtype=np.int64)
        hide = np.array(self.hide, dtype=bool)
        value = np.array(self.value, dtype=float)
        if sample.ndim != 1 or not sample.shape == coord.shape == hide.shape == value.shape:
            raise ValueError("plan columns must be 1-d arrays of equal length")
        if (sample < 0).any() or (coord < 0).any():
            raise ValueError("plan indices must be nonnegative")
        if not np.isnan(value[hide]).all():
            raise ValueError("hide edits carry no value")
        if not np.isfinite(value[~hide]).all():
            raise ValueError("replace edits need a finite value")
        span = int(coord.max(initial=0)) + 1
        if (int(sample.max(initial=0)) + 1) * span <= np.iinfo(np.int64).max:
            cells = np.sort(sample * span + coord)  # cell ids, none of which wraps
            repeated = cells[1:] == cells[:-1]
        else:  # several times slower: sort the (sample, coord) pairs
            order = np.lexsort((coord, sample))
            repeated = (np.diff(sample[order]) == 0) & (np.diff(coord[order]) == 0)
        if repeated.any():
            raise ValueError("plan touches some cell twice")
        columns = {"sample": sample, "coord": coord, "hide": hide, "value": value}
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def hiding(cls, sample, coord) -> "CorruptionPlan":
        """A plan that hides each cell ``(sample[k], coord[k])``."""
        n = len(sample)
        return cls(sample, coord, np.ones(n, dtype=bool), np.full(n, np.nan))

    def __len__(self) -> int:
        return len(self.sample)


def apply_plan(ds: Dataset, plan: CorruptionPlan) -> Dataset:
    """Apply every edit to a copy of ``ds``; the input is left untouched."""
    s, c = plan.sample, plan.coord
    outside = (s < 0) | (s >= ds.n_samples) | (c < 0) | (c >= ds.dim)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"edit at ({s[k]}, {c[k]}) is outside the {ds.n_samples}x{ds.dim} table"
        )
    values = ds.values.copy()
    mask = ds.mask.copy()
    values[s, c] = plan.value
    mask[s, c] = plan.hide
    return Dataset(values, mask)


def plan_budget(plan: CorruptionPlan, kind: AdversaryKind, n_samples: int, dim: int) -> float:
    """Budget the plan consumes under the given accounting semantics."""
    kind = AdversaryKind(kind)
    if n_samples < 1 or dim < 1:
        raise ValueError("table dimensions must be positive")
    if len(plan) and (plan.sample.max() >= n_samples or plan.coord.max() >= dim):
        raise ValueError(f"plan does not fit a {n_samples}x{dim} table")
    if kind is AdversaryKind.SAMPLE_FRACTION:
        return np.unique(plan.sample).size / n_samples
    if kind is AdversaryKind.PER_COORDINATE_FRACTION:
        return float(np.bincount(plan.coord).max(initial=0)) / n_samples
    return len(plan) / (n_samples * dim)


def can_simulate(a: Budget, b: Budget, dim: int) -> bool:
    """Whether an adversary with budget ``a`` can reproduce any plan of ``b``.

    The relation captures worst-case accounting on tables with ``dim``
    coordinates: whatever ``b`` touches within its budget fits inside ``a``'s
    budget under ``a``'s own accounting.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    # A whole-sample budget dominates entry-level budgets scaled by dim, and a
    # per-coordinate one dominates a cell budget the same way; a finer budget
    # at or above a coarser one can afford whatever the coarser one touches.
    order = list(AdversaryKind)
    if order.index(a.kind) < order.index(b.kind):
        return b.value <= a.value / dim
    return a.value >= b.value


def _smallest_first(key: np.ndarray, count: int) -> np.ndarray:
    """Each key row's ``count`` smallest entries by column index, smallest first.

    Ties go to the lower index: the first ``count`` columns of a stable
    ``argsort``, found by selection. ``np.partition`` finds each row's
    count-th key, every entry at or below it is a candidate (so every tie at
    the cut is one), and one stable sort of the candidates alone by
    (row, key) orders them: O(N + k log k) per row of N keys, k candidates.
    """
    count = min(count, key.shape[1])
    kth = max(count, 1) - 1
    row, col = np.nonzero(key <= np.partition(key, kth, axis=1)[:, kth : kth + 1])
    col = col[np.lexsort((key[row, col], row))]  # nonzero is row-major: ties by index
    return col[np.searchsorted(row, np.arange(key.shape[0]))[:, None] + np.arange(count)]


def _order_by_largest_first_coordinate(ds: Dataset, count: int) -> np.ndarray:
    """The ``count`` samples with the largest visible first coordinate, ties by index."""
    key = np.where(ds.mask[:, 0], -np.inf, ds.values[:, 0])
    key = np.nan_to_num(key, nan=-np.inf)
    return _smallest_first(-key[None, :], count)[0]


def _hide_smallest(ds: Dataset, coords: np.ndarray, count: int) -> CorruptionPlan:
    """Hide up to ``count`` smallest visible values of each coordinate in ``coords``.

    Edits are coordinate-major; within a coordinate they run from the smallest
    value up, ties going to the lower sample index. A coordinate stops at its
    first already-hidden cell in that order.
    """
    hidden = ds.mask[:, coords]
    key = np.nan_to_num(np.where(hidden, np.inf, ds.values[:, coords]), nan=np.inf)
    order = _smallest_first(key.T, count)  # (coordinate, rank)
    keep = ~np.logical_or.accumulate(np.take_along_axis(hidden.T, order, axis=1), axis=1)
    return CorruptionPlan.hiding(order[keep], coords[np.nonzero(keep)[0]])


def plan_sample_shift(ds: Dataset, epsilon: float, shift=DEFAULT_SHIFT) -> CorruptionPlan:
    """Replace every coordinate of the floor(epsilon * N) most extreme samples.

    Victims are the samples with the largest first coordinate, a deterministic
    adaptive rule, and each of their cells is replaced by its value plus
    ``shift`` (scalar or per-coordinate vector).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), (ds.dim,))
    n_victims = int(np.floor(epsilon * ds.n_samples))
    victims = _order_by_largest_first_coordinate(ds, n_victims)
    if ds.mask[victims].any():
        raise ValueError("cannot shift samples that already carry hidden entries")
    n_edits = n_victims * ds.dim
    return CorruptionPlan(
        np.repeat(victims, ds.dim),
        np.tile(np.arange(ds.dim), n_victims),
        np.zeros(n_edits, dtype=bool),
        (ds.values[victims] + shift_vec).ravel(),
    )


def plan_tail_hiding(ds: Dataset, rho: float) -> CorruptionPlan:
    """Hide, per coordinate, the floor(rho * N) smallest visible values.

    This biases every per-coordinate statistic upward, the worst direction
    for estimators that ignore hidden cells. Ties go to the lower sample
    index.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return _hide_smallest(ds, np.arange(ds.dim), int(np.floor(rho * ds.n_samples)))


def plan_concentrated_hiding(ds: Dataset, alpha: float) -> CorruptionPlan:
    """Spend the whole cell budget hiding the tail of one coordinate.

    The coordinate with the largest visible variance is targeted (ties to the
    lowest index) and its floor(alpha * N * dim) smallest visible values are
    hidden, capped at N cells.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    variances = np.full(ds.dim, -np.inf)  # a column with no visible entry is never the target
    seen = np.flatnonzero(~ds.mask.all(axis=0))
    variances[seen] = _reduce_visible_columns(ds.values[:, seen], ds.mask[:, seen], np.var)
    target = int(np.argmax(variances))
    n_cells = min(int(np.floor(alpha * ds.n_samples * ds.dim)), ds.n_samples)
    return _hide_smallest(ds, np.array([target]), n_cells)


def plan_unrecoverable_hiding(
    ds: Dataset,
    alpha: float,
    removal_margin: int,
    rng: np.random.Generator,
) -> CorruptionPlan:
    """Hide a random rank-breaking set of coordinates in each victim sample.

    ``removal_margin`` is the minimum number of rows whose removal drops the
    row space of the structure matrix (see
    :attr:`entrymean.structure.StructureMatrix.removal_margin`). Hiding that
    many coordinates of a sample can leave its visible rows rank deficient,
    which defeats recovery that relies on the known structure. The number of
    victims is floor(alpha * dim * N / removal_margin) so the total cell
    budget is respected; victims are the samples with the largest first
    coordinate, each drawing its coordinates from ``rng`` in victim order.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not 1 <= removal_margin <= ds.dim:
        raise ValueError(f"removal_margin must lie in [1, {ds.dim}]")
    n_victims = min(
        int(np.floor(alpha * ds.dim * ds.n_samples / removal_margin)), ds.n_samples
    )
    victims = _order_by_largest_first_coordinate(ds, n_victims)
    coords = [np.sort(rng.choice(ds.dim, size=removal_margin, replace=False)) for _ in victims]
    return CorruptionPlan.hiding(
        np.repeat(victims, removal_margin), np.array(coords, dtype=np.int64).reshape(-1)
    )


ADVERSARIES = ("sample_shift", "tail_hiding", "concentrated_hiding", "unrecoverable_hiding")


def make_plan(
    adversary: str,
    ds: Dataset,
    budget: float,
    rng: np.random.Generator,
    *,
    shift=DEFAULT_SHIFT,
    structure: StructureMatrix | None = None,
) -> CorruptionPlan:
    """Plan the named adversary's corruption of ``ds`` at ``budget``.

    ``shift`` is used by ``sample_shift`` only, ``rng`` and ``structure`` by
    ``unrecoverable_hiding`` only. Unknown names and a missing structure raise
    :class:`~entrymean.errors.ConfigError`.
    """
    if adversary == "sample_shift":
        return plan_sample_shift(ds, budget, shift)
    if adversary == "tail_hiding":
        return plan_tail_hiding(ds, budget)
    if adversary == "concentrated_hiding":
        return plan_concentrated_hiding(ds, budget)
    if adversary == "unrecoverable_hiding":
        if structure is None:
            raise ConfigError("unrecoverable_hiding needs a structure matrix")
        return plan_unrecoverable_hiding(ds, budget, structure.removal_margin, rng)
    raise ConfigError(f"unknown adversary {adversary!r}, expected one of {ADVERSARIES}")


def save_plan_csv(plan: CorruptionPlan, path) -> None:
    """Write a plan as CSV with columns sample, coord, action, value.

    The bytes are those of ``csv.writer``: the indices as integers, the
    action word, and a replacement value as ``format(v, ".17g")`` or an empty
    cell for a hidden one.
    """
    columns = (plan.sample.tolist(), plan.coord.tolist(), plan.hide.tolist(), plan.value.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("sample,coord,action,value\r\n")
        rows = (
            f"{s},{c},{HIDE},\r\n" if h else f"{s},{c},{REPLACE},{v:.17g}\r\n"
            for s, c, h, v in zip(*columns)
        )
        fh.write("".join(rows))


def load_plan_csv(path) -> CorruptionPlan:
    sample, coord, hide, value = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample", "coord", "action", "value"]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for i, record in enumerate(reader):
            if len(record) != 4:
                raise ValueError(f"row {i + 1} has {len(record)} fields, expected 4")
            if record[2] not in (HIDE, REPLACE):
                raise ValueError(f"row {i + 1}: unknown action {record[2]!r}")
            sample.append(int(record[0]))
            coord.append(int(record[1]))
            hide.append(record[2] == HIDE)
            value.append(np.nan if record[3] == "" else float(record[3]))
    return CorruptionPlan(sample, coord, hide, value)

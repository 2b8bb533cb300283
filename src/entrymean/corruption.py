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

from .data import Dataset
from .errors import ConfigError
from .structure import StructureMatrix

HIDE = "hide"
REPLACE = "replace"


class AdversaryKind(str, Enum):
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
        cells = sample * (coord.max(initial=0) + 1) + coord
        if np.unique(cells).size != cells.size:
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
    ka, kb = a.kind, b.kind
    sample = AdversaryKind.SAMPLE_FRACTION
    coord = AdversaryKind.PER_COORDINATE_FRACTION
    cell = AdversaryKind.CELL_FRACTION
    if ka == kb:
        return a.value >= b.value
    # A whole-sample budget dominates entry-level budgets scaled by dim.
    if ka is sample and kb is coord:
        return b.value <= a.value / dim
    if ka is sample and kb is cell:
        return b.value <= a.value / dim
    if ka is coord and kb is cell:
        return b.value <= a.value / dim
    # Entry-level budgets at or above a sample budget can afford whole rows.
    if ka is coord and kb is sample:
        return a.value >= b.value
    if ka is cell and kb is sample:
        return a.value >= b.value
    if ka is cell and kb is coord:
        return a.value >= b.value
    raise AssertionError("unhandled kind pair")


def _order_by_largest_first_coordinate(ds: Dataset) -> np.ndarray:
    key = np.where(ds.mask[:, 0], -np.inf, ds.values[:, 0])
    key = np.nan_to_num(key, nan=-np.inf)
    # Stable sort on the negated key: larger values first, ties by sample index.
    return np.argsort(-key, kind="stable")


def _hide_smallest(ds: Dataset, coords: np.ndarray, count: int) -> CorruptionPlan:
    """Hide up to ``count`` smallest visible values of each coordinate in ``coords``.

    Edits are coordinate-major; within a coordinate they run from the smallest
    value up, ties going to the lower sample index. A coordinate stops at its
    first already-hidden cell in that order.
    """
    hidden = ds.mask[:, coords]
    key = np.nan_to_num(np.where(hidden, np.inf, ds.values[:, coords]), nan=np.inf)
    order = np.argsort(key, axis=0, kind="stable")[:count].T  # (coordinate, rank)
    keep = ~np.logical_or.accumulate(np.take_along_axis(hidden.T, order, axis=1), axis=1)
    return CorruptionPlan.hiding(order[keep], coords[np.nonzero(keep)[0]])


def plan_sample_shift(ds: Dataset, epsilon: float, shift=10.0) -> CorruptionPlan:
    """Replace every coordinate of the floor(epsilon * N) most extreme samples.

    Victims are the samples with the largest first coordinate, a deterministic
    adaptive rule, and each of their cells is replaced by its value plus
    ``shift`` (scalar or per-coordinate vector).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), (ds.dim,))
    n_victims = int(np.floor(epsilon * ds.n_samples))
    victims = _order_by_largest_first_coordinate(ds)[:n_victims]
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
    variances = np.full(ds.dim, -np.inf)
    for j in range(ds.dim):
        col = ds.values[~ds.mask[:, j], j]
        if col.size:
            variances[j] = float(np.var(col))
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
    victims = _order_by_largest_first_coordinate(ds)[:n_victims]
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
    shift=10.0,
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
    """Write a plan as CSV with columns sample, coord, action, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "coord", "action", "value"])
        columns = (plan.sample, plan.coord, plan.hide, plan.value)
        for sample, coord, hide, value in zip(*(c.tolist() for c in columns)):
            if hide:
                writer.writerow([sample, coord, HIDE, ""])
            else:
                writer.writerow([sample, coord, REPLACE, format(value, ".17g")])


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

"""Location estimators and the recover-then-estimate pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Dataset, _reduce_visible_columns
from .errors import (
    CapExceededError,
    CompletionNotConvergedError,
    FullyHiddenCoordinateError,
    NoCleanSamplesError,
    whole_number,
)
from .recovery import (
    CompletionReport,
    decode_replacements,
    iterative_svd_complete,
    recover_table,
)
from .structure import StructureMatrix

ESTIMATOR_KINDS = (
    "empirical_mean",
    "coordinate_median",
    "complete_case_mean",
    "tukey_median",
    "two_step",
)
RECOVERY_METHODS = ("known_structure", "iterative_svd", "replacement")
TUKEY_DIM_CAP = 2


@dataclass(frozen=True)
class RecoverySpec:
    """How the first stage of a two-step estimator repairs the data; the one
    owner of the recovery defaults and their checks."""

    method: str
    rank: int | None = None
    max_iter: int = 500
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.method not in RECOVERY_METHODS:
            raise ValueError(f"method must be one of {RECOVERY_METHODS}, got {self.method!r}")
        if self.rank is not None:
            object.__setattr__(self, "rank", whole_number("rank", self.rank))
        if self.method == "iterative_svd" and (self.rank is None or self.rank < 1):
            raise ValueError("iterative_svd recovery needs a positive rank")
        object.__setattr__(self, "max_iter", whole_number("max_iter", self.max_iter))
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and nonnegative")


@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator configuration for benchmark runs."""

    kind: str
    recovery: RecoverySpec | None = None
    inner: str = "empirical_mean"
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}")
        if self.kind == "two_step":
            if self.recovery is None:
                raise ValueError("two_step needs a recovery spec")
            if self.inner not in ESTIMATOR_KINDS or self.inner == "two_step":
                raise ValueError(f"inner estimator cannot be {self.inner!r}")
        elif self.recovery is not None:
            raise ValueError(f"{self.kind} does not take a recovery spec")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "two_step":
            return f"two_step+{self.recovery.method}+{self.inner}"
        return self.kind


def _reduce_visible(ds: Dataset, reduce) -> np.ndarray:
    fully_hidden = ds.mask.all(axis=0)
    if fully_hidden.any():
        raise FullyHiddenCoordinateError(f"coordinate {fully_hidden.argmax()} has no visible entries")
    return _reduce_visible_columns(ds.values, ds.mask, reduce)


def empirical_mean(ds: Dataset) -> np.ndarray:
    """Per-coordinate mean of the visible entries."""
    return _reduce_visible(ds, np.mean)


def coordinate_median(ds: Dataset) -> np.ndarray:
    """Per-coordinate median of the visible entries (midpoint on even counts)."""
    return _reduce_visible(ds, np.median)


def complete_case_mean(ds: Dataset) -> np.ndarray:
    """Mean over the samples with nothing hidden."""
    clean = ~ds.mask.any(axis=1)
    if not clean.any():
        raise NoCleanSamplesError("every sample has a hidden entry")
    return ds.values[clean].mean(axis=0)


def _halfplane_depth(points: np.ndarray, center: np.ndarray) -> int:
    """Fewest points in any closed halfplane whose boundary passes through center."""
    rel = points - center
    norms = np.linalg.norm(rel, axis=1)
    scale = max(1.0, float(norms.max(initial=0.0)))
    on_center = norms <= 1e-12 * scale
    base = int(on_center.sum())
    rel = rel[~on_center]
    if rel.shape[0] == 0:
        return base
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    # The count of points in the closed halfplane with inward normal at angle
    # psi changes only when psi crosses one of these critical values; checking
    # the events and the midpoints between them covers every regime.
    events = np.concatenate([angles + np.pi / 2, angles - np.pi / 2])
    events = np.unique(np.mod(events, 2 * np.pi))
    mids = (events + np.roll(events, -1)) / 2
    mids[-1] = (events[-1] + events[0] + 2 * np.pi) / 2
    best = rel.shape[0]
    for psi in np.concatenate([events, mids]):
        gap = np.mod(angles - psi + np.pi, 2 * np.pi) - np.pi
        count = int(np.count_nonzero(np.abs(gap) <= np.pi / 2 + 1e-12))
        best = min(best, count)
    return base + best


def _tukey_candidates(points: np.ndarray) -> np.ndarray:
    lines = []
    for i, j in combinations(range(points.shape[0]), 2):
        d = points[j] - points[i]
        if np.linalg.norm(d) > 1e-12:
            lines.append((points[i], d))
    candidates = [points]
    scale = max(1.0, float(np.abs(points).max()))
    for (p1, d1), (p2, d2) in combinations(lines, 2):
        det = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(det) <= 1e-12 * scale:
            continue
        rhs = p2 - p1
        t = (rhs[0] * d2[1] - rhs[1] * d2[0]) / det
        candidates.append((p1 + t * d1)[None, :])
    return np.unique(np.vstack(candidates), axis=0)


def tukey_median(ds: Dataset) -> np.ndarray:
    """Point of maximum halfspace depth; exact, so only for tiny dimensions.

    In one dimension this is the ordinary median. In two dimensions the depth
    is maximized over the sample points and all intersections of lines
    through sample pairs, which is sufficient because the depth function is
    piecewise constant on the arrangement those lines induce. Ties go to the
    lexicographically smallest candidate. Hidden entries are not accepted.
    """
    if ds.mask.any():
        raise ValueError("tukey_median needs fully visible data")
    if ds.dim > TUKEY_DIM_CAP:
        raise CapExceededError(f"dim={ds.dim} exceeds the exact-depth cap {TUKEY_DIM_CAP}")
    if ds.dim == 1:
        return np.array([np.median(ds.values[:, 0])])
    points = ds.values
    candidates = _tukey_candidates(points)
    # np.unique sorts rows lexicographically, so the first maximizer wins ties.
    best_depth = -1
    best = candidates[0]
    for candidate in candidates:
        depth = _halfplane_depth(points, candidate)
        if depth > best_depth:
            best_depth = depth
            best = candidate
    return best.copy()


def recover(
    ds: Dataset, spec: RecoverySpec, structure: StructureMatrix | None = None
) -> CompletionReport:
    """Repair the table by the spec's method, the first stage of a two-step estimator.

    A rank-only completion that stops at ``max_iter`` short of ``tol`` raises
    :class:`CompletionNotConvergedError` rather than return an unfinished table.
    """
    if spec.method == "iterative_svd":
        report = iterative_svd_complete(ds, spec.rank, spec.max_iter, spec.tol)
        if not report.converged:
            raise CompletionNotConvergedError(
                f"rank-{spec.rank} completion did not converge in {report.iterations} sweeps"
                f" (tol {spec.tol:g})"
            )
        return report
    if structure is None:
        raise ValueError(f"{spec.method} recovery needs the structure matrix")
    if spec.method == "known_structure":
        return recover_table(ds, structure)
    return decode_replacements(ds, structure)


def two_step_estimate(
    ds: Dataset, spec: EstimatorSpec, structure: StructureMatrix | None = None
) -> np.ndarray:
    """Repair the table with :func:`recover`, then run the inner estimator on the survivors.

    Unrecoverable samples are dropped. On a clean table the repair stage is a
    no-op and the result equals the inner estimator's output exactly.
    """
    if spec.recovery is None:
        raise ValueError("two_step_estimate needs a recovery spec")
    return _dispatch_basic(recover(ds, spec.recovery, structure).completed, spec.inner)


def _dispatch_basic(ds: Dataset, kind: str) -> np.ndarray:
    if kind == "empirical_mean":
        return empirical_mean(ds)
    if kind == "coordinate_median":
        return coordinate_median(ds)
    if kind == "complete_case_mean":
        return complete_case_mean(ds)
    if kind == "tukey_median":
        return tukey_median(ds)
    raise ValueError(f"unknown estimator kind {kind!r}")


def estimate(
    ds: Dataset, spec: EstimatorSpec, structure: StructureMatrix | None = None
) -> np.ndarray:
    """Run any configured estimator on the dataset."""
    if spec.kind == "two_step":
        return two_step_estimate(ds, spec, structure)
    return _dispatch_basic(ds, spec.kind)

"""Location estimators and the recover-then-estimate pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _reduce_visible_columns, median
from .errors import (
    CompletionNotConvergedError,
    FullyHiddenCoordinateError,
    NoCleanSamplesError,
    whole_number,
)
from .recovery import (
    COMPLETION_TOL,
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
    "two_step",
)
RECOVERY_METHODS = ("known_structure", "iterative_svd", "replacement")


@dataclass(frozen=True)
class RecoverySpec:
    """How the first stage of a two-step estimator repairs the data: a method,
    and the rank ``iterative_svd`` completes to; the one owner of their checks."""

    method: str
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.method not in RECOVERY_METHODS:
            raise ValueError(f"method must be one of {RECOVERY_METHODS}, got {self.method!r}")
        if self.rank is not None and self.method != "iterative_svd":
            raise ValueError("rank is for iterative_svd only")
        if self.rank is not None:
            object.__setattr__(self, "rank", whole_number("rank", self.rank))
        if self.method == "iterative_svd" and (self.rank is None or self.rank < 1):
            raise ValueError("iterative_svd recovery needs a positive rank")


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
        if self.name is not None and any(c in str(self.name) for c in ",\r\n"):
            raise ValueError(f"method name {self.name!r} holds a comma or a line break")

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
    return _reduce_visible(ds, median)


def complete_case_mean(ds: Dataset) -> np.ndarray:
    """Mean over the samples with nothing hidden."""
    clean = ~ds.mask.any(axis=1)
    if not clean.any():
        raise NoCleanSamplesError("every sample has a hidden entry")
    return ds.values[clean].mean(axis=0)


def recover(
    ds: Dataset, spec: RecoverySpec, structure: StructureMatrix | None = None
) -> CompletionReport:
    """Repair the table by the spec's method, the first stage of a two-step estimator.

    A rank-only completion that spends its fixed sweep cap short of its tolerance
    raises :class:`CompletionNotConvergedError` rather than return an unfinished table.
    """
    if spec.method == "iterative_svd":
        report = iterative_svd_complete(ds, spec.rank)
        if not report.converged:
            raise CompletionNotConvergedError(
                f"rank-{spec.rank} completion did not converge in {report.iterations} sweeps"
                f" (tol {COMPLETION_TOL:g})"
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
    raise ValueError(f"unknown estimator kind {kind!r}")


def estimate(
    ds: Dataset, spec: EstimatorSpec, structure: StructureMatrix | None = None
) -> np.ndarray:
    """Run any configured estimator on the dataset."""
    if spec.kind == "two_step":
        return two_step_estimate(ds, spec, structure)
    return _dispatch_basic(ds, spec.kind)

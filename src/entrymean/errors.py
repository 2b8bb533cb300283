"""Exception types shared across the package."""


class ConfigError(ValueError):
    """The run configuration is malformed."""


class CapExceededError(ValueError):
    """An exhaustive routine was asked to exceed its size or work cap."""


class DegenerateMatrixError(RuntimeError):
    """Rejection sampling exhausted its retry budget without an independent subset."""


class EstimatorFailure(RuntimeError):
    """Base for estimator failures that benchmark runs record as missing values."""


class FullyHiddenCoordinateError(EstimatorFailure):
    """A coordinate has no visible entries, so per-coordinate statistics are undefined."""


class NoCleanSamplesError(EstimatorFailure):
    """Every sample carries at least one hidden entry."""


class AllSamplesDiscardedError(EstimatorFailure):
    """The recovery step discarded every sample before estimation."""


class CompletionInfeasibleError(EstimatorFailure):
    """The hiding pattern leaves matrix completion without enough information."""


class CompletionNotConvergedError(EstimatorFailure):
    """Iterative completion stopped at its sweep cap before reaching its tolerance."""


class MetricFailure(RuntimeError):
    """A metric could not be evaluated on the given inputs."""

"""Exception types shared across the package, and the whole-number rule of config fields."""


class ConfigError(ValueError):
    """The run configuration is malformed."""


def whole_number(name: str, value) -> int:
    """``value`` as an int, exact for an int; a ConfigError naming ``name``
    unless it is a whole number (``3.0`` is, ``True`` is not)."""
    if type(value) is int:
        return value
    try:
        if not isinstance(value, bool) and float(value).is_integer():
            return int(float(value))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


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


class ReplacementDecodingError(EstimatorFailure):
    """Replacement decoding cannot run: the table has hidden cells, or the
    structure is past the decoder's exhaustive caps."""


class MetricFailure(RuntimeError):
    """A metric could not be evaluated on the given inputs."""

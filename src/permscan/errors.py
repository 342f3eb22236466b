"""Exception hierarchy.

The CLI maps these onto distinct exit codes: parse failures (2), model
fitting failures (3), resampling failures (4) and configuration problems
(5). Library callers can catch :class:`PermscanError` to get everything.
``check_integer``, ``check_real`` and ``check_level`` word every ConfigError
about a bad number.
"""

import math

import numpy as np


class PermscanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PermscanError):
    """A data file could not be parsed. Carries row/column context."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        super().__init__(message)


class ConsistencyError(ParseError):
    """Input files disagree (for example on the number of individuals)."""


class FitError(PermscanError):
    """Base class for null/full model fitting failures."""


class SingularDesignError(FitError):
    """The covariate design matrix is rank deficient."""


class QuasiSeparationError(FitError):
    """A binomial fit produced fitted probabilities at 0 or 1."""


class ConvergenceError(FitError):
    """Iterative fitting did not converge within the iteration budget."""


class DegenerateMarkerError(FitError):
    """A marker has zero score variance (constant, or collinear with the
    covariates after variance weighting)."""

    def __init__(self, message, marker=None):
        self.marker = marker
        super().__init__(message)


class ResamplingError(PermscanError):
    """Base class for resampling failures."""


class InsufficientReplicatesError(ResamplingError):
    """Too few replicates to estimate the requested quantile."""


class ReplicateFailureError(ResamplingError):
    """A replicate could not be completed after the retry budget."""

    def __init__(self, message, replicate=None):
        self.replicate = replicate
        super().__init__(message)


class ConfigError(PermscanError):
    """Invalid configuration value or combination."""


class SizeLimitError(ConfigError):
    """A dense computation was requested above its configured size cap."""


class InvalidCorrelationError(ConfigError):
    """A correlation matrix is not finite, symmetric and positive
    semidefinite within tolerance."""


def check_integer(name, value, low):
    """``value`` as an int; a ConfigError unless it is a Python or numpy
    integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name, value):
    """A ConfigError unless ``value`` is a finite Python or numpy real (not
    a bool). The value is not converted, so callers store it as given."""
    real = (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def check_level(name, value):
    """A ConfigError unless ``value`` passes ``check_real`` and lies in (0, 1)."""
    check_real(name, value)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be in (0, 1)")

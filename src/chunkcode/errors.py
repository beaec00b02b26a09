"""Exception types shared across the pipeline."""


class ChunkCodeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ChunkCodeError):
    """Invalid run configuration (bad chunk size, unknown mode, ...)."""


class IngestionError(ChunkCodeError):
    """A document, manifest or run directory could not be read, parsed or used."""


class CodebookError(ChunkCodeError):
    """A codebook file failed validation."""


class TransportError(ChunkCodeError):
    """HTTP transport failed after retries, or returned a non-retryable status."""


class CacheMissError(ChunkCodeError):
    """Strict replay was requested but the cache has no usable entry for the key."""


class SubjectMismatchError(ChunkCodeError):
    """Two rating sources do not cover the same subjects."""

    def __init__(self, message, *, missing=(), extra=()):
        super().__init__(message)
        self.missing = tuple(missing)
        self.extra = tuple(extra)


class UndefinedMetricError(ChunkCodeError):
    """A confusion metric was requested whose denominator is zero."""


class DegenerateKappaError(ChunkCodeError, ValueError):
    """Kappa is undefined for these ratings: fewer than two subjects, or every
    rating in a single category. Also a ``ValueError``, since a matrix too
    small for the statistic is a bad argument, as one of fewer than two
    raters is."""

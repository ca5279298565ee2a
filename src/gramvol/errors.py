"""Exception types shared across the package."""


class GramVolError(Exception):
    """Base class for all library errors."""


class ZeroVectorError(GramVolError):
    """A vector with (near-)zero norm where a direction is required."""


class DimensionMismatchError(GramVolError):
    """Vectors that should share a dimension do not."""


class EmptyInputError(GramVolError):
    """An operation received no vectors / no predictions."""


class NonFiniteInputError(GramVolError):
    """NaN or Inf in numeric input."""


class InconsistentBatchError(GramVolError):
    """Batches that must agree in size, dimension, or norm do not."""


class NonFiniteLossError(GramVolError):
    """A loss term evaluated to NaN or Inf."""


class BatchTooSmallError(GramVolError):
    """Negative mining needs at least two samples."""


class InvalidSpecError(GramVolError):
    """Synthetic dataset specification violates its constraints."""


class InvalidConfigError(GramVolError):
    """Training configuration file or values are invalid."""


class DivergedTrainingError(GramVolError):
    """Training loss became non-finite; carries the trace collected so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NonSquareError(GramVolError):
    """Retrieval expects a square similarity matrix."""


class DegenerateVarianceError(GramVolError):
    """Correlation is undefined when one series has zero variance."""


class EmbeddingParseError(GramVolError):
    """Embedding file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class MissingIdError(GramVolError):
    """A requested sample id is absent from one of the modality files."""


class UnknownAnchorError(GramVolError):
    """The anchor modality name matches none of the provided files."""

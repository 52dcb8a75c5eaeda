"""Exception hierarchy.

Every error raised by this package derives from :class:`EivPcrError`. The
concrete class names double as stable machine-readable error codes (the CLI
reports ``type(exc).__name__`` in its error JSON), so they are never renamed.
"""


class EivPcrError(Exception):
    """Base class for all package errors."""


class BadShape(EivPcrError):
    """An array or table has a shape the operation cannot accept."""


class BadParam(EivPcrError):
    """A scalar parameter is outside its legal range."""


class ShapeMismatch(EivPcrError):
    """Two inputs that must agree dimensionally do not."""


class NonFinite(EivPcrError):
    """An input holds NaN or infinity where finite values are required."""


class AllMissing(EivPcrError):
    """A masked matrix has no observed cells, so rescaling is undefined."""


class NoConverge(EivPcrError):
    """The underlying SVD iteration failed to converge."""


class RankOutOfRange(EivPcrError):
    """A requested rank lies outside [1, min(rows, cols)]."""


class DegenerateSpectrum(EivPcrError):
    """A retained singular value is numerically zero and cannot be inverted."""


class EmptySpectrum(EivPcrError):
    """A spectrum is too short for the requested selection."""


class AllZero(EivPcrError):
    """A spectrum with no positive mass carries no rank information."""


class Ragged(EivPcrError):
    """A CSV table has rows of unequal length."""


class ParseError(EivPcrError):
    """A CSV cell could not be parsed as a number or NA token."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class UnknownUnit(EivPcrError):
    """A requested panel unit does not exist."""


class TargetMissingPre(EivPcrError):
    """The target unit has unobserved pre-treatment outcomes."""


class SchemaMismatch(EivPcrError):
    """A model document is structurally not what this version writes, or a
    test design's column labels do not match the model's."""


class CorruptModel(EivPcrError):
    """A model document parses but violates a model invariant."""

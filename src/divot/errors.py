"""Exception types shared across the package."""
from __future__ import annotations


class DivotError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DivotError, ValueError):
    """An input file contains a line that cannot be parsed."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class PairParseError(ParseError):
    """A pair file contains a line that cannot be parsed."""


class SkeletonParseError(ParseError):
    """A skeleton edge-list file contains a line that cannot be parsed."""


class InsufficientDataError(DivotError, ValueError):
    """Fewer usable rows / batches than the operation requires."""


class DegenerateDataError(DivotError, ValueError):
    """Data with no variation where variation is required (zero std), or non-finite."""


class ShapeError(DivotError, ValueError):
    """Mismatched vector lengths."""


class NumericError(DivotError, ArithmeticError):
    """A computation produced a non-finite value."""


class SkeletonTooLargeError(DivotError, ValueError):
    """Skeleton has too many edges for exhaustive orientation scoring."""

"""Exception types shared across the package."""


class EvographError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGraphError(EvographError):
    """The input edge list was empty."""


class InactiveRootError(EvographError):
    """A traversal was started from a temporal node that is not active."""


class TimeOrderError(EvographError):
    """A causal operation was asked to move backwards (or sideways) in time."""


class ShapeError(EvographError):
    """A vector or block vector does not conform to the graph's dimensions."""


class TooLargeError(EvographError):
    """A guarded operation was invoked on an input above its size limit."""


class InfeasibleError(EvographError):
    """A random-graph request cannot be satisfied (capacity exceeded)."""


class ParseError(EvographError):
    """An input file could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class PathCountOverflowError(EvographError):
    """A path-count iteration would exceed the 64-bit integer range."""


class KeyTypeError(EvographError, TypeError):
    """A time label is not an integer, or node keys cannot be ordered
    against each other (e.g. ints mixed with strings)."""

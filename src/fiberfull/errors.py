"""Exception types shared across the library.

Every error carries a short machine-readable ``kind`` used by the CLI when
emitting JSON error reports.
"""


class AlgebraError(Exception):
    kind = "error"


class InvalidGradingError(AlgebraError):
    kind = "invalid-grading"


class InvalidFieldError(AlgebraError):
    kind = "invalid-field"


class RingMismatchError(AlgebraError):
    kind = "ring-mismatch"


class OrderMismatchError(AlgebraError):
    kind = "order-mismatch"


class InvalidArgumentError(AlgebraError):
    kind = "invalid-argument"


class IndexOutOfRangeError(InvalidArgumentError, IndexError):
    """An index outside its range; also an ``IndexError``, which is what
    library callers catch."""


class InfiniteDimensionError(AlgebraError):
    kind = "infinite-dimension"


class WeightVectorMismatchError(AlgebraError):
    kind = "weight-vector-mismatch"


class UnknownCommandError(AlgebraError):
    kind = "unknown-command"


class TheoremViolationError(AlgebraError):
    """A square-free degeneration with a fiber-full family produced unequal
    cohomology tables.  Carries the full offending report for reproduction."""

    kind = "theorem-violation"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(AlgebraError):
    kind = "syntax"

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col

"""Exception types shared across the package."""


class LatdistError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntry(LatdistError, ValueError):
    """A probability entry is negative."""


class NonFiniteEntry(LatdistError, ValueError):
    """A probability vector has a NaN or infinite entry, or a sum that overflows."""


class ZeroMass(LatdistError, ValueError):
    """A vector that must be normalized sums to zero."""


class NotNormalized(LatdistError, ValueError):
    """Entries do not sum to one and normalization was not requested."""


class DimensionMismatch(LatdistError, ValueError):
    """Two vectors that must share a dimension do not."""


class SumMismatch(LatdistError, ValueError):
    """Lattice counts do not sum to the declared denominator."""


class IndexOutOfRange(LatdistError, IndexError):
    """A codec index is outside the cardinality of the indexed set."""


class InvalidSubset(LatdistError, ValueError):
    """Position indices are not a strictly increasing subset of the dimension."""


class DomainError(LatdistError, ValueError):
    """A scalar argument is outside the function's domain."""


class BetaNotAboveDelta(DomainError):
    """Sparse budgets require the source distortion to exceed the tail mass."""


class EpsilonOutOfRange(DomainError):
    """The implied decoding error probability is outside the solvable range."""


class NoFeasibleN(LatdistError):
    """No blocklength can meet the requested operating point."""


class ParseError(LatdistError, ValueError):
    """An input file could not be parsed."""


class RaggedRows(ParseError):
    """Input rows have differing lengths."""

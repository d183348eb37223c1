"""Exception types shared across the package."""


class SqtError(Exception):
    """Base class for every error this package raises on bad input."""


class DimensionMismatch(SqtError):
    """Amplitude count does not match the declared qubit count."""


class NotNormalized(SqtError):
    """State norm deviates from 1 beyond the accepted tolerance."""


class IndexOutOfRange(SqtError):
    """Qubit index outside 0..n-1."""


class InvalidPermutation(SqtError):
    """Sequence is not a permutation of 0..n-1."""


class TooManyQubits(SqtError):
    """Operation would exceed the supported qubit count."""


class WrongQubitCount(SqtError):
    """Operation requires a specific qubit count."""


class ConstraintViolated(SqtError):
    """Family parameters violate the family's defining constraint."""


class OutOfRange(SqtError):
    """Scalar argument outside its allowed interval."""


class InvalidDocument(SqtError):
    """State document file is malformed."""

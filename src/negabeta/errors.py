"""Exception types shared across the package.

Every error that a caller can reasonably branch on gets its own class;
anything else is a plain ValueError.
"""


class NegabetaError(Exception):
    """Base class for all package-specific errors."""


class NotGreaterThanOne(NegabetaError):
    """A base was requested that is not strictly greater than 1."""


class NoRootIsolated(NegabetaError):
    """The supplied interval does not isolate exactly one real root."""


class RootNotGreaterThanOne(NegabetaError):
    """The isolated root exists but is not > 1, so it cannot serve as a base."""


class LengthMismatch(NegabetaError):
    """Alternate-order comparison of finite words requires equal lengths."""


class UndecidedAtHorizon(NegabetaError):
    """A sequence comparison could not be decided within the digit horizon."""


class InvariantBroken(NegabetaError):
    """A property the mathematics guarantees does not hold: a defect, or a
    base whose stated minimal polynomial is not irreducible."""


class HorizonTooShort(NegabetaError):
    """An operation needs more reference digits than were computed."""


class NotAnExpansionTail(NegabetaError):
    """The corrected form is only defined for purely periodic digit data."""


class IndexOutOfRange(NegabetaError):
    """A gap/block index outside its admissible range was requested."""


class NonIntegerCoefficient(NegabetaError):
    """A series that must have integer coefficients does not."""


class ParseFailure(NegabetaError):
    """Malformed digit-string or base description on the CLI."""

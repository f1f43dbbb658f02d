"""Exception types shared across the package."""


class FairmixError(Exception):
    """Base class for all errors raised by fairmix."""


class MalformedInstanceError(FairmixError):
    """Instance data is structurally invalid (missing values, bad rationals, overlaps)."""


class EnumerationLimitError(FairmixError):
    """An enumeration would exceed its module's fixed limit."""


class PreconditionError(FairmixError):
    """A documented precondition of an operation was violated by the caller."""


class EngineInvariantError(FairmixError):
    """An internal invariant of the engine failed; indicates a bug, not bad input."""

"""Exception types shared across the package."""


class FairmixError(Exception):
    """Base class for all errors raised by fairmix."""


class MalformedInstanceError(FairmixError):
    """Instance data is structurally invalid (missing values, bad rationals, overlaps)."""


class EnumerationLimitError(FairmixError):
    """An enumeration would exceed the configured budget."""


class MalformedLpError(FairmixError):
    """Linear program dimensions or coefficients are inconsistent."""


class EmptyDomainError(FairmixError):
    """The truncated simplex is empty (floor larger than 1/n)."""


class PreconditionError(FairmixError):
    """A documented precondition of an operation was violated by the caller."""


class ConfigurationError(FairmixError):
    """Engine configuration is invalid (e.g. an explicit floor above its bound)."""


class EngineInvariantError(FairmixError):
    """An internal invariant of the engine failed; indicates a bug, not bad input."""

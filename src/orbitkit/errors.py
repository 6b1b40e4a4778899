"""Exception hierarchy shared by all orbitkit modules."""


class OrbitKitError(Exception):
    """Base class for every error raised by orbitkit."""


class OutOfDomain(OrbitKitError):
    """A point lies outside the domain of a field or family."""


class OrderTooHigh(OrbitKitError):
    """Jet order above the highest order whose jet norms are estimated (3)."""


class DomainTooSmall(OrbitKitError):
    """No positive existence radius fits inside the working region."""


class GuardViolated(OrbitKitError):
    """An existence/smallness guard failed and no unsafe override was given."""


class LeftDomain(OrbitKitError):
    """An integrated trajectory exited the working region.

    ``row`` is the row of a stacked run whose trajectory left, when the
    stepper's region check found it, and ``None`` otherwise."""

    def __init__(self, message, last_point=None, last_time=None, row=None):
        super().__init__(message)
        self.last_point = last_point
        self.last_time = last_time
        self.row = row


class StepUnderflow(OrbitKitError):
    """The adaptive integrator drove the step size below resolution."""


class TailNotSummable(OrbitKitError):
    """The coefficient tail bound cannot be driven under tolerance."""


class WordNotIntegrable(OrbitKitError):
    """A flow word could not be integrated from the requested point."""


class InvalidArgument(OrbitKitError, ValueError):
    """An argument is outside the values an operation accepts."""


class ParseError(OrbitKitError):
    """Scenario text failed to parse."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class UnknownBuiltin(OrbitKitError):
    """Scenario referenced a builtin system that does not exist."""


class DimensionMismatch(ParseError):
    """Scenario data is inconsistent with the declared chart dimension."""

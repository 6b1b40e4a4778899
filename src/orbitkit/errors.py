"""Exception hierarchy shared by all orbitkit modules."""


class OrbitKitError(Exception):
    """Base class for every error raised by orbitkit."""


class OutOfDomain(OrbitKitError):
    """A point lies outside the domain of a field or family."""


class OrderTooHigh(OrbitKitError):
    """Jet order beyond what numerical differentiation supports."""


class DomainTooSmall(OrbitKitError):
    """No positive existence radius fits inside the working region."""


class GuardViolated(OrbitKitError):
    """An existence/smallness guard failed and no unsafe override was given."""


class LeftDomain(OrbitKitError):
    """An integrated trajectory exited the working region."""

    def __init__(self, message, last_point=None, last_time=None):
        super().__init__(message)
        self.last_point = last_point
        self.last_time = last_time


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

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownBuiltin(OrbitKitError):
    """Scenario referenced a builtin system that does not exist."""


class DimensionMismatch(ParseError):
    """Scenario data is inconsistent with the declared chart dimension."""

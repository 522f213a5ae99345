"""Exception types shared across the package."""


class StrongPropsError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the command line's exit status for the error and
    ``prefix`` starts its standard-error line; subclasses inherit both.
    """

    exit_code = 2
    prefix = "error"


class InputError(StrongPropsError):
    """Invalid input: bad dimensions, non-finite entries, class mismatch."""


class NotInClass(InputError):
    """A matrix handed to a verifier lies outside the class of its graph or
    sign pattern; a solve turns it into :class:`PatternViolation`."""


class ParseError(InputError):
    """Malformed input file; the message carries the source name and line number."""


class InternalCheckError(StrongPropsError):
    """A mandatory internal cross-check failed (e.g. primal/dual disagreement)."""

    exit_code = 8
    prefix = "internal check failed"


class SurjectivityFailure(StrongPropsError):
    """The derivative at zero is not surjective: the base matrix lacks the
    strong property required by the requested realization."""

    exit_code = 3


class NoConvergence(StrongPropsError):
    """Gauss-Newton ran out of iterations, or a homotopy stalled.

    ``best_residual`` holds the smallest residual seen; ``trace`` the
    residual history, so callers can decide whether to shrink the step.
    """

    exit_code = 4

    def __init__(self, message, best_residual=None, trace=()):
        super().__init__(message)
        self.best_residual = best_residual
        self.trace = tuple(trace)


class PatternViolation(StrongPropsError):
    """The realized matrix left the required pattern class (step too large)."""

    exit_code = 5


class PropertyNotPreserved(PatternViolation):
    """The realized matrix lost its strong property; treat like a pattern
    violation: shrink the step and retry."""


class TargetError(StrongPropsError):
    """The requested target is not reachable from the base matrix."""

    exit_code = 6


class NotARefinement(TargetError):
    pass


class UnreachableInertia(TargetError):
    pass


class NotASuperpattern(TargetError):
    pass


class HypothesisFailure(StrongPropsError):
    """A certification hypothesis (nilpotency, class membership, nSSP) failed."""

    exit_code = 1
    prefix = "hypothesis failure"

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details or {})

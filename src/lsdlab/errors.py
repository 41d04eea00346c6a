"""Exception types shared across the library."""

__all__ = ["LsdlabError", "InvalidInput", "NotADensity", "NoConvergence", "NoConvergenceEig"]


class LsdlabError(Exception):
    """Base class for all library errors."""


class InvalidInput(LsdlabError):
    """A precondition on user-supplied data was violated."""


class NotADensity(LsdlabError):
    """A covariance table does not define a nonnegative spectral density."""


class NoConvergence(LsdlabError):
    """A fixed-point iteration exhausted its budget.

    Carries the height Im z of the failing point and its last residual so
    callers can report where the solve stuck.
    """

    def __init__(self, message, height=None, residual=None):
        super().__init__(message)
        self.height = height
        self.residual = residual


class NoConvergenceEig(LsdlabError):
    """The symmetric eigensolver failed to converge."""

"""Exception hierarchy shared by all circlepoly modules."""


class CirclepolyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CirclepolyError):
    """Input outside the mathematical domain of an operation."""


class ToleranceError(CirclepolyError):
    """Adaptive computation failed to meet its tolerance.

    Carries the last two successive values in ``last`` and ``previous``.
    """

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class NearSingularMomentError(CirclepolyError):
    """A Toeplitz moment determinant is numerically zero.

    ``index`` names the first offending determinant; the measure is likely
    outside the class with unique one-sided orthogonal polynomials.
    """

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class MalformedLadderError(CirclepolyError):
    """Polynomial ladder with degree gaps or non-monic entries."""


class StrippingError(CirclepolyError):
    """Layer stripping hit a degenerate or non-exact pair."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class HypothesisError(CirclepolyError):
    """A theorem hypothesis required by an operation is violated."""


class ConfigError(CirclepolyError):
    """Malformed experiment configuration."""

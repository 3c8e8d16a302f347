"""Exception types shared across the library."""


class FracCalcError(Exception):
    """Base class for all library-specific errors."""


class DomainError(FracCalcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma requested at zero or a negative integer."""


class ConvergenceError(FracCalcError, ArithmeticError):
    """A series failed to meet its stopping rule within the term budget.

    Carries the partial sum and the last computed term so callers can see
    how far the summation got before giving up. index is the position of
    the failing point when a whole array of points was being evaluated.
    """

    def __init__(self, message, partial_sum=None, last_term=None, terms_used=None,
                 index=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.last_term = last_term
        self.terms_used = terms_used
        self.index = index


class AlphaMismatchError(FracCalcError, ValueError):
    """Two generalized power series live on different t^(k*alpha) lattices."""


class OrderError(FracCalcError, ValueError):
    """A truncated series is too short for the requested operation."""


class GridError(FracCalcError, ValueError):
    """An evaluation point does not coincide with a sample-grid node."""


class SingularityError(FracCalcError, ZeroDivisionError):
    """Evaluation requested where the operator kernel is infinite."""


class NoConvergenceError(FracCalcError, ArithmeticError):
    """Simultaneous root iteration exhausted its sweep budget."""


class SingularSystemError(FracCalcError, ValueError):
    """The initial-condition system is singular (degenerate mode set)."""


class PairingError(FracCalcError, ValueError):
    """Complex modes cannot be grouped into conjugate pairs."""


class ParseError(FracCalcError, ValueError):
    """A problem document is not well-formed."""


class ValidationError(FracCalcError, ValueError):
    """A problem document is well-formed but violates an invariant."""

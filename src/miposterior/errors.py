"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed or inconsistent input data (bad table, bad prior, bad flag value)."""


class NumericPreconditionError(ValueError):
    """Input is structurally valid but outside the domain of the requested
    computation (zero posterior cells, degenerate variance, ...)."""


class ZeroCellError(NumericPreconditionError):
    """A computation that requires strictly positive posterior cells met a zero.

    Carries the offending cell indices so callers can suggest a positive prior;
    `what` names the computation.
    """

    def __init__(self, cells, what):
        self.cells = list(cells)
        super().__init__(
            "%s requires strictly positive posterior cells; zero cells at %s "
            "(consider a positive prior such as jeffreys)" % (what, self.cells))


class DegenerateError(NumericPreconditionError):
    """Shape statistics are undefined: zero leading-order variance or mu4 underflow."""


class FitError(RuntimeError):
    """Four-moment fit: no root meets the residual contract; carries the best residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

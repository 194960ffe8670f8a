"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed or inconsistent input data (bad table, bad prior, bad flag value)."""


class NumericPreconditionError(ValueError):
    """Input is structurally valid but outside the domain of the requested
    computation (zero variance, counts too extreme for double precision,
    ...). Zero posterior cells are in the domain: every computation takes
    the posterior on the positive cells (see moments.summarize)."""


class DegenerateError(NumericPreconditionError):
    """Shape statistics are undefined: zero leading-order variance or mu4 underflow."""


class FitError(RuntimeError):
    """Four-moment fit: no root meets the residual contract; carries the best residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

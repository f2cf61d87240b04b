"""Exception hierarchy shared across the library."""


class LqrpgError(Exception):
    """Base class for all library errors."""


class ConfigurationError(LqrpgError):
    """Invalid dimensions, parameters, or configuration files."""


class InstabilityError(LqrpgError):
    """A closed loop required to be Schur stable is not.

    Carries the offending spectral radius in ``spectral_radius``.
    """

    def __init__(self, message, spectral_radius=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class NumericError(LqrpgError):
    """Non-finite values or failed numeric solves."""


class ConvergenceError(NumericError):
    """An iterative solver exhausted its iteration budget.

    ``residual`` holds the last relative residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OverflowedRollout(LqrpgError):
    """A simulated trajectory produced a non-finite state.

    Divergence is an observable outcome, not a crash: ``step`` records the
    first offending time index.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step

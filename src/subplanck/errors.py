"""Exception and warning types shared across the package."""


class SubplanckError(Exception):
    """Base class for all package errors."""


class TruncationError(SubplanckError):
    """Fock-space truncation too small; carries the measured tail mass."""

    def __init__(self, message, tail=None):
        super().__init__(message)
        self.tail = tail


class QuadratureError(SubplanckError):
    """Adaptive quadrature failed to converge."""


class GridExtentError(SubplanckError):
    """Spatial grid does not contain the requested state."""


class SamplingError(SubplanckError):
    """Outcome sampler could not be built (insufficient grid mass)."""


class ConditioningError(SubplanckError):
    """Conditional state requested at an outcome with negligible probability."""


class BoundaryLeakError(SubplanckError):
    """Wavefunction mass reached the edge of the spatial grid."""


class LeakageError(SubplanckError):
    """Oscillator-basis projection lost too much mass."""

    def __init__(self, message, leakage=None):
        super().__init__(message)
        self.leakage = leakage


class TruncationWarning(UserWarning):
    """Non-fatal warning that truncated support may degrade accuracy."""

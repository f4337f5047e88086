"""Exception hierarchy.

Two trunks: ConfigurationError for invalid inputs or requests outside a
routine's contract, ConvergenceError for numerical procedures that could
not reach the requested tolerance.  The CLI maps the first to exit code 2
and the second to exit code 3.
"""


class ConfigurationError(ValueError):
    """Invalid parameter, profile, or request."""


class ConvergenceError(ArithmeticError):
    """A numerical routine failed to meet its tolerance."""


class NonPositiveDuration(ConfigurationError):
    """Interrogation time must be strictly positive."""


class NegativeSample(ConfigurationError):
    """Tabulated sweep rates must be non-negative."""


class ZeroProfile(ConfigurationError):
    """An all-zero tabulated profile cannot be normalized."""


class UnsupportedFamily(ConfigurationError):
    """The requested operation has no closed form for this family."""


class TimeOutOfRange(ConfigurationError):
    """Requested time lies outside the interrogation window."""


class DegeneratePath(ConfigurationError):
    """Too few samples to define a polygon."""


class InvalidIndex(ConfigurationError):
    """Scheme index outside the family's admissible set.

    When the rejection is due to a non-vanishing spectrum limit (the
    cosinusoidal first harmonic), ``limit_value`` holds that limit.
    """

    def __init__(self, message, limit_value=None):
        super().__init__(message)
        self.limit_value = limit_value


class NoZeroInBracket(ConfigurationError):
    """The bracket holds no spectrum zero to the required depth."""


class QuadratureNonConvergence(ConvergenceError):
    """Adaptive quadrature exceeded its error budget."""


class InsufficientResolution(ConvergenceError):
    """Sampled-path resolution too coarse for the requested tolerance."""


class TruncationInsufficient(ConvergenceError):
    """Number-state truncation leaks probability into the top levels."""


class StepCountInsufficient(ConvergenceError):
    """Propagation step count fails the step-halving error check."""

"""Exception types shared across the package.

Argument-class problems derive from ValueError, runtime numerical
failures from RuntimeError, so callers can split the two coarsely.
"""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class SingularityError(ValueError):
    """State too close to |z| = 1, where the phase equation is singular."""


class ConfigError(ValueError):
    """A config file or flag set could not be interpreted."""


class ThresholdProximityError(ValueError):
    """Classification requested too close to the critical power."""


class StepFailureError(RuntimeError):
    """Adaptive step control underflowed the minimum step size."""


class NoConvergenceError(RuntimeError):
    """An iterative solver had a seed but failed to converge."""


class GridCoverageError(RuntimeError):
    """A sweep bin received no samples; the grid is too fine for the run."""


class FloatFloorError(RuntimeError):
    """A run's state underflowed to exactly the symmetric point (0, 0),
    which the flow cannot leave."""

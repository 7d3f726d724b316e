"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: config errors -> 2, step-size
violations -> 4, every other model/numeric failure -> 3.
"""


class ToolkitError(Exception):
    """Base class for all hybridlfc errors."""


# --- configuration -------------------------------------------------------

class ConfigError(ToolkitError):
    """Base class for configuration-file problems."""


class UnknownKey(ConfigError):
    pass


class InvalidValue(ConfigError):
    pass


class InvariantViolation(ConfigError):
    """A parameter set violates a structural constraint; the message names it."""


# --- transfer functions / linear algebra ---------------------------------

class ZeroDcDenominator(ToolkitError):
    """Denominator vanishes at s = 0 (free integrator); no finite DC gain."""


class ImproperTransferFunction(ToolkitError):
    """Numerator degree exceeds denominator degree; not realizable."""


class NonSquareMatrix(ToolkitError):
    pass


class ConvergenceFailure(ToolkitError):
    """Eigenvalue iteration failed to converge."""


# --- plant construction ---------------------------------------------------

class DegenerateTimeConstants(ToolkitError):
    """Governor lag time constants coincide; partial-fraction residues blow up."""


class NoConvergence(ToolkitError):
    """Implicit PV-current solve exhausted its iteration budget."""


class OrderingMismatch(ToolkitError):
    """State ordering handed to the feedback builder disagrees with the plant's."""


class MissingFrequencyState(ToolkitError):
    """Plant lacks the frequency states required for integrator augmentation."""


class DimensionMismatch(ToolkitError):
    pass


# --- simulation ------------------------------------------------------------

class UnstableStepSize(ToolkitError):
    """max|eigenvalue| * dt exceeds the RK4 stability bound."""


class NonFiniteState(ToolkitError):
    """A plant, a simulated state or a performance index came out NaN or infinite."""


class SingularSystem(ToolkitError):
    """Equilibrium solve hit a (numerically) rank-deficient system matrix."""


class NoStableGainsFound(ToolkitError):
    """Every controller-gain candidate evaluated by the tuner was unstable."""

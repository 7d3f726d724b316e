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


# --- linear algebra --------------------------------------------------------

class NonSquareMatrix(ToolkitError):
    pass


class ConvergenceFailure(ToolkitError):
    """Eigenvalue iteration failed to converge."""


# --- plant construction ---------------------------------------------------

class NoConvergence(ToolkitError):
    """PV-current solve did not settle, or its series-resistance drop overflows."""


class InvalidArgument(ToolkitError, ValueError):
    """A library call got an argument it cannot use: an input label the model
    lacks, duplicate state labels or non-finite entries. Also a ValueError,
    so callers that catch ValueError still catch it."""


class DimensionMismatch(InvalidArgument):
    """Counts or shapes disagree: labels against matrix sides, a feedback
    matrix against B, an initial state against the model."""


# --- simulation ------------------------------------------------------------

class UnstableStepSize(ToolkitError):
    """An RK4 step fails to damp a decaying mode: |R(lambda*dt)| >= 1 for some
    eigenvalue with Re lambda < 0, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""


class NonFiniteState(ToolkitError):
    """A plant, a simulated state or a performance index came out NaN or infinite."""


class SingularSystem(ToolkitError):
    """Equilibrium solve hit a (numerically) rank-deficient system matrix."""


class NoStableGainsFound(ToolkitError):
    """Every controller-gain candidate evaluated by the tuner was unstable."""

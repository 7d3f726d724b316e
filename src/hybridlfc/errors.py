"""Exception types shared across the toolkit, `report`, which maps one
onto its exit code, and the field check (real and finite, then > 0 or
>= 0 where named) that the parameter objects run first when they are
built, with `KEY_NAMES`, the config spellings of the fields whose key
differs from their name.
"""

import math
import sys
from numbers import Complex, Number, Real


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


def report(exc: BaseException) -> int:
    """Print the one stderr line `error: <Class>: <message>` for a
    ToolkitError or an OSError, and return the exit code of the CLI and
    the scripts: 2 for a config error, 4 for a step-size rejection, else 3."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    if isinstance(exc, ConfigError):
        return 2
    return 4 if isinstance(exc, UnstableStepSize) else 3


# `<section>.<field>` of each field whose config key is spelled otherwise
KEY_NAMES = {
    "system.Fs_nominal": "system.F",
    "pv.lam": "pv.lambda",
    "tune.dpl": "tune.dPl",
    "tune.dpiw": "tune.dPiw",
    "tune.dpis": "tune.dPis",
}


# `_rule`'s verdict per type, memoized: an abstract-class test costs
# several times a dict lookup
_RULES: dict[type, str] = {}


def _rule(tp: type) -> str:
    """How `check_fields` treats a field of type `tp`, neither float nor
    tuple: "finite" for a real number type (numpy float32, Decimal), "real"
    for a complex one, and "skip" for ints, flags and non-numbers."""
    if issubclass(tp, int) or not issubclass(tp, Number):
        rule = "skip"
    elif issubclass(tp, Complex) and not issubclass(tp, Real):
        rule = "real"
    else:
        rule = "finite"
    _RULES[tp] = rule
    return rule


def check_fields(params, prefix: str, positive=(), nonnegative=()) -> None:
    """Raise InvariantViolation for the first field of the parameter object
    `params` that breaks the field rule, named by its config key:
    `<prefix><name>`, or that key's spelling in KEY_NAMES (e.g. `system.F`
    for `Fs_nominal`).

    Every real-number field of any type, and every float-tuple field,
    must be finite, and a complex field is refused as not real (the
    closed loop would drop its imaginary part); other fields (integers,
    flags, nested parameter objects, mappings, arrays) are skipped. Then
    each field named in `positive` must be > 0, and each named in
    `nonnegative` >= 0, in the order given.

    Each parameter object's `__post_init__` calls it before its other
    checks: a NaN passes every comparison, and an inf fails only deep in a
    later solve, if at all.
    """
    # the instance dict holds exactly the dataclass fields, and is several
    # times cheaper to walk than `dataclasses.fields`
    values = vars(params)
    for name, value in values.items():
        # Python floats, the common case, take the first and cheapest test
        if isinstance(value, float):
            finite = math.isfinite(value)
        elif isinstance(value, tuple):
            finite = all(map(math.isfinite, value))
        else:
            rule = _RULES.get(type(value)) or _rule(type(value))
            if rule == "skip":
                continue
            if rule == "real":
                _refuse(prefix + name, "real")
            finite = math.isfinite(value)
        if not finite:
            _refuse(prefix + name, "finite")
    for name in positive:
        if not values[name] > 0:
            _refuse(prefix + name, "> 0")
    for name in nonnegative:
        if not values[name] >= 0:
            _refuse(prefix + name, ">= 0")


def _refuse(key: str, rule: str):
    raise InvariantViolation(f"{KEY_NAMES.get(key, key)} must be {rule}")

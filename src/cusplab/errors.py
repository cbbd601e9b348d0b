"""Exception hierarchy of the package, and the two tests that refuse an argument by name."""

import numpy as np


class CuspLabError(Exception):
    """Base class for all package-level errors."""


class CharacteristicViolation(CuspLabError):
    """A phase-space point is too far off the characteristic surface."""


class InsidePerturbation(CuspLabError):
    """An operation requiring a free-region point was given one inside the
    perturbation support."""


class ZeroBasePoint(CuspLabError):
    """The boundary chart is undefined at Z = 0."""


class ChartInvalid(CuspLabError):
    """Boundary-chart coordinates violate the chart's validity region."""


class TrappingSuspected(CuspLabError):
    """A bicharacteristic exceeded its transit-time budget inside the
    perturbation support."""


class StepFailure(CuspLabError):
    """Adaptive step size underflow or integrator breakdown."""


class BoundaryLeak(CuspLabError):
    """Wave-field mass in the outer shell of the periodic box exceeded the
    wrap-around contamination threshold."""


class ConvergenceFailure(CuspLabError):
    """An implicit solve failed to converge."""


class InsideWindow(CuspLabError):
    """Asymptotic data was requested at a time inside the perturbation
    window, where it is not defined."""


class PacketClipped(CuspLabError):
    """A coherent packet does not fit on the dual grid."""


class ZeroMass(CuspLabError):
    """Moments of a zero field are undefined."""


class ParseError(CuspLabError):
    """A scenario or report file failed to parse.

    Carries optional ``field`` context naming the offending entry.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class ValidationError(CuspLabError):
    """An input violated a declared invariant, named by ``invariant`` where given."""

    def __init__(self, message, invariant=None):
        self.invariant = invariant
        if invariant is not None:
            message = f"{message} [invariant: {invariant}]"
        super().__init__(message)


class NotPositiveDefinite(ValidationError):
    """The assembled inverse metric fails positive definiteness."""


class InvalidArgument(ValidationError, ValueError):
    """A refused argument: ``field`` names it, and the message starts with that name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field} {message}")

    def __reduce__(self):   # a pickle, as between processes, rebuilds it from both
        return type(self), (self.field, str(self).removeprefix(f"{self.field} "))


def in_range(field, value, low=-np.inf, high=np.inf):
    """``value`` as a float in the open interval (low, high), which holds
    no infinity or NaN, or an InvalidArgument naming ``field``."""
    try:
        number = float(value)
    except OverflowError:               # an integer beyond every float
        number = np.inf if value > 0 else -np.inf
    except (TypeError, ValueError):     # not a number: refused as NaN is
        number = np.nan
    if not low < number < high:
        verdict = ("too large" if number >= high else "too small" if number <= low
                   else "not a number")
        raise InvalidArgument(field, f"= {value} is {verdict}: {field} must be a finite "
                                     f"number in ({low!r}, {high!r})")
    return number


def not_finite(**values):
    """The InvalidArgument naming the first of ``values`` (keyword: field) not all finite."""
    field, value = next((k, v) for k, v in values.items() if not np.all(np.isfinite(v)))
    return InvalidArgument(field, f"must be finite, not {value!r}")

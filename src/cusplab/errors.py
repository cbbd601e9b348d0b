"""Exception hierarchy shared across the package."""


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


class NotPositiveDefinite(CuspLabError):
    """The assembled inverse metric fails positive definiteness."""


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
    """A scenario violated a declared invariant.

    ``invariant`` names the violated invariant.
    """

    def __init__(self, message, invariant=None):
        self.invariant = invariant
        if invariant is not None:
            message = f"{message} [invariant: {invariant}]"
        super().__init__(message)

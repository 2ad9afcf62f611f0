"""Exception types raised by the density model and its operations."""


class DensityError(ValueError):
    """Base class for all domain errors raised by this package."""


class LengthMismatchError(DensityError):
    """Array sizes inconsistent with the breakpoint count."""


class NegativeValueError(DensityError):
    """A limit, height, or point value is negative."""


class EmptySupportError(DensityError):
    """Fewer than two breakpoints, or first and last coincide."""


class NotNondecreasingError(DensityError):
    """Breakpoints decrease somewhere."""


class ZeroMassError(DensityError):
    """The unnormalized function integrates to zero, or to a mass that a
    float factor ``1/mass`` cannot normalize."""


class OutOfSupportError(DensityError):
    """Point lies outside the closed support."""


class NotNormalizedError(DensityError):
    """Operation requires a normalized density."""


class OrderTooLargeError(DensityError):
    """Moment order beyond the supported range."""


class BadProbabilityError(DensityError):
    """Probability argument outside [0, 1]."""


class BadOrderError(DensityError):
    """Family parameters violate their ordering constraints."""


class NotIncreasingError(DensityError):
    """Sample abscissas are not strictly increasing."""


class ParseError(DensityError):
    """Distribution spec document is not well-formed."""


class SchemaError(DensityError):
    """Distribution spec document violates the schema."""

"""Exception types shared across the package."""


class TriplepointError(Exception):
    """Base class for all package errors."""


class RingMismatchError(TriplepointError):
    """Operands live in different ring contexts."""


class ZeroPolynomialError(TriplepointError):
    """Operation undefined for the zero polynomial."""


class ParseError(TriplepointError):
    """Malformed polynomial, tag, or graph input."""


class ParameterError(TriplepointError):
    """Family parameters outside the catalog's allowed range."""


class ExponentRangeError(TriplepointError):
    """An exponent above the per-variable cap of packed order keys."""


class UnsupportedTypeError(TriplepointError):
    """Operation not defined for this presentation (e.g. trace for CM type != 2)."""


class ColengthBudgetError(TriplepointError):
    """The global quotient is infinite."""


class SearchFailureError(TriplepointError):
    """A bounded search (reduction of the maximal ideal) was exhausted."""


class ShapeError(TriplepointError):
    """A computed object does not have the shape an operation requires."""


class GraphInvariantError(TriplepointError):
    """A dual graph violates a structural invariant (e.g. negative definiteness)."""


class EngineInvariantError(TriplepointError):
    """A cross-check the engine guarantees internally has failed."""

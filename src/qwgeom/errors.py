"""Exception types raised across the package.

Everything derives from QwGeomError so callers can catch one base class
at an API boundary (the command line tool does exactly that).
"""


class QwGeomError(Exception):
    """Base class for all errors raised by this package."""


class GaplessPointError(QwGeomError):
    """A quantity was requested at or too close to a band-touching point."""


class CurveNotSupportedError(QwGeomError):
    """A transport curve violates a precondition (not closed, bad shape, ...)."""


class OrthogonalStatesError(QwGeomError):
    """Two states were orthogonal where an overlap-based quantity is undefined."""


class GridMismatchError(QwGeomError):
    """Two distributions live on different position grids."""


class FiniteDifferenceError(QwGeomError):
    """Finite-difference stencils at h and h/2 disagree beyond tolerance."""

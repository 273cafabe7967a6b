"""Exception types raised across the library.

The hierarchy is intentionally shallow: callers that only want "this input
was bad" can catch ShapeTensorError; the subclasses exist so tests and the
CLI can map failures to distinct exit codes and messages.
"""


class ShapeTensorError(Exception):
    """Base class for all library-specific failures."""


class ContractError(ShapeTensorError, ValueError):
    """An argument violated a documented precondition or type invariant
    (non-orthonormal representative, non-horizontal tangent, non-SPD
    matrix, malformed configuration, ...)."""


class DegenerateGeometryError(ShapeTensorError, ValueError):
    """The geometry itself is degenerate: rank-deficient landmarks,
    zero-length segments, singular scale matrices, zero-variance
    ensembles.  Carries ``index``, the position of the first degenerate
    shape in a standardized stack (``()`` for a single shape).
    """

    index = ()


class NormalNeighborhoodError(ShapeTensorError, ValueError):
    """A logarithm was requested between points too far apart: the
    target lies outside the normal neighborhood of the base point.

    Carries ``index``, the position of the first such target when the
    logarithm was taken over a stack (``()`` for a single pair).
    """

    index = ()


class ConvergenceError(ShapeTensorError, RuntimeError):
    """An iterative routine exhausted its iteration budget or stalled.

    Carries ``gradient_norm``, the norm of the final update direction,
    so callers can judge how close the iteration got, and
    ``trajectory``, the list of every gradient norm it computed (the last
    one is ``gradient_norm``).
    """

    def __init__(self, message, gradient_norm=None, trajectory=()):
        super().__init__(message)
        self.gradient_norm = gradient_norm
        self.trajectory = list(trajectory)


class ExtrapolationError(ShapeTensorError, ValueError):
    """A spanwise evaluation was requested outside the interpolated
    range; the schedules are interpolants, not extrapolants."""

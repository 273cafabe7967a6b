"""Exception types raised across the library.

The hierarchy is intentionally shallow: callers that only want "this input
was bad" can catch ShapeTensorError; the subclasses exist so tests and the
CLI can map failures to distinct exit codes and messages.  ``refuse``
raises the error of the first refused member of a stack with every
refused member's own error attached, and ``named`` puts the name of the
input it came from in front of a message.  ``_entry`` and
``check_stacks`` hold the input contract of the public entry points.
"""

import functools
import numbers
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np


class ShapeTensorError(Exception):
    """Base class for all library-specific failures.  A kernel over a
    stack that refuses members sets ``index``, the first one's position
    (``()`` when no member is named), and ``refused``, a sequence of the
    errors of every member the same check refused, each with its
    ``index``."""

    index = ()
    refused = ()


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


class NormalNeighborhoodError(ShapeTensorError, ValueError):
    """A logarithm was requested between points too far apart: the
    target lies outside the normal neighborhood of the base point.

    Carries ``index``, the position of the first such target when the
    logarithm was taken over a stack (``()`` for a single pair).
    """


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


def without_refused(fn, members):
    """fn(members) with the members fn refuses left out: while fn raises
    a ShapeTensorError whose ``index`` names a member, drop every member
    its ``refused`` names (by the first axis of their positions) and call
    fn again.  Returns (positions kept, fn's result on them, {position:
    the first error that refused it}); fn is not called once every member
    is refused, and the result is then []."""
    kept, refused = list(range(len(members))), {}
    while kept:
        try:
            return kept, fn([members[i] for i in kept]), refused
        except ShapeTensorError as err:
            if not err.index:
                raise
            for e in err.refused or [err]:
                refused.setdefault(kept[e.index[0]], e)
            kept = [i for i in kept if i not in refused]
    return kept, [], refused


class _Refused(Sequence):
    """make(j), with ``index`` j, for each position j in ``where``, made
    when asked for: a check over a large stack may refuse many members
    whose errors no caller reads.  The first is the error raised."""

    def __init__(self, where, make, first):
        self._where, self._make, self._first = where, make, first

    def __len__(self):
        return len(self._where)

    def __getitem__(self, k):
        j = tuple(int(i) for i in self._where[k])
        if j == self._first.index:
            return self._first
        err = self._make(j)
        err.index = j
        return err


def refuse(bad, make):
    """Raise make(i), with ``index`` i, for the first True entry i of the
    mask ``bad`` in C order (``()`` for a 0-d mask); return if there is
    none.  Its ``refused`` holds make(j), with ``index`` j, for every
    True entry j, in C order."""
    # any() of a 0-d mask costs microseconds, and a point is often one member
    if np.count_nonzero(bad) if bad.ndim else bad:
        where = np.argwhere(bad)
        index = tuple(int(i) for i in where[0])
        err = make(index)
        err.index = index
        err.refused = _Refused(where, make, err)
        raise err


@contextmanager
def named(where):
    """Re-raise a ShapeTensorError from the block as the same type with
    ``where: `` in front and no ``index``.  ``where`` may be a function,
    called with the refused member's index; an error that names no member
    then passes through unchanged."""
    try:
        yield
    except ShapeTensorError as err:
        if callable(where):
            if not err.index:
                raise
            where = where(*err.index)
        raise type(err)(f"{where}: {err}") from err


@functools.cache  # "n" -> 0, "n >= 3" -> 3; _entry is given a few such names
def _least(axis):
    return int(axis.partition(">=")[2] or 0)


def _entry(a, shape, what, finite=None):
    """``a`` as a float array of ``shape``: the input contract of the
    library's entry points.

    ``shape`` spells the axes: a length (an int), any length ("n") or at
    least some ("n >= 3"), after a leading "..." where any leading axes
    may hold a stack of members, zero of them included.  Refuses, with a
    ContractError, values that are not real numbers (complex, strings,
    objects that are not numbers), another shape, and each member with a
    non-finite entry, ``index`` naming the first; ``finite`` words that
    refusal ("``what`` has non-finite entries" by default), and False
    leaves it to the caller.
    """
    arr = a
    if type(a) is not np.ndarray or a.dtype != float:
        try:
            arr = np.asarray(a)
            if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat):
                arr = arr.astype(float)  # numbers held as objects, ints past 2**63
        except (ValueError, OverflowError) as err:  # ragged nests; ints past the floats
            raise ContractError(f"{what} is not an array of real numbers: {err}") from None
        if arr.dtype.kind not in "biuf":
            raise ContractError(f"{what} must hold real numbers, got dtype {arr.dtype}")
        arr = arr.astype(float, copy=False)
    stack = shape[:1] == ("...",)
    dims = shape[1:] if stack else shape
    lead = arr.ndim - len(dims)
    bad = lead < 0 or lead and not stack
    for got, want in zip(arr.shape[lead:], dims):
        bad |= got != want if type(want) is int else got < _least(want)
    if bad:
        raise ContractError(f"{what} must be ({', '.join(map(str, shape))}), "
                            f"got shape {arr.shape}")
    if finite is not False and np.count_nonzero(np.isfinite(arr)) < arr.size:
        refuse(~np.isfinite(arr).all(axis=tuple(range(lead, arr.ndim))),
               lambda i: ContractError(finite or f"{what} has non-finite entries"))
    return arr


def check_stacks(what, *arrays):
    """Refuse, with a ContractError, (..., n, k) arrays (``what``) whose
    trailing (n, k) shapes differ or whose leading shapes do not
    broadcast."""
    try:
        np.broadcast_shapes(*(a.shape[:-2] for a in arrays))
    except ValueError:
        pass
    else:
        if len({a.shape[-2:] for a in arrays}) == 1:
            return
    raise ContractError(f"{what} do not match: shapes "
                        f"{', '.join(str(a.shape) for a in arrays)}")

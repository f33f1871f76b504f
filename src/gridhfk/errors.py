"""Exception types shared across the package.

Input problems (bad marking data, malformed files, wrong link class)
derive from GridInputError so the CLI can map them to one exit code;
GridResourceError marks aborted oversized runs, and the remaining
types flag internal consistency failures.
"""

from __future__ import annotations


class GridHfkError(Exception):
    """Base class for all package errors."""


class GridInputError(GridHfkError):
    """Invalid user-supplied data (grids, files, arguments)."""


class NotAPermutation(GridInputError):
    """A marking sequence is not a permutation of 0..n-1."""


class MarkingCollision(GridInputError):
    """An X and an O occupy the same cell."""


class SizeMismatch(GridInputError):
    """Marking sequences disagree about the grid size."""


class NotAKnot(GridInputError):
    """An operation that needs a single component got a link."""


class IndexMismatch(GridInputError):
    """A declared surface index disagrees with the computed genus."""


class NegativeIndex(GridInputError):
    """A surface index that must be non-negative came out negative."""


class UnsupportedQ(GridInputError):
    """Cable parameter q = 0 does not define a cable knot."""


class GridResourceError(GridHfkError):
    """A computation would exceed the configured generator budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class InconsistentComplex(GridHfkError):
    """A boundary operator failed the d^2 = 0 check."""


class NotDivisible(GridHfkError):
    """Bigraded ranks are not divisible by the required tensor factor."""

"""Exception types shared across the package.

Input problems (bad marking data, malformed files, wrong link class)
derive from GridInputError so the CLI can map them to one exit code;
GridResourceError marks aborted oversized runs, and the remaining
types flag internal consistency failures.  ``read_input`` is the one
read of an input file (grids, case files, ledger files), ``parse_json``
the one parse of JSON input (case files, ledger files, ``--poincare``),
and ``json_field`` the one type check of a field read from it.
"""

from __future__ import annotations

import json
from pathlib import Path


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


_KINDS = {int: "an integer", str: "a string", bool: "a boolean",
          dict: "a JSON object"}


def json_field(obj: dict, key: str, kind: type, label: str, default=None):
    """obj[key] (or ``default``), which must be of ``kind``; bool is not
    taken for int.  Otherwise GridInputError names ``label`` and ``key``."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GridInputError(f"{label}: '{key}' must be {_KINDS[kind]}, "
                             f"got {value!r}")
    return value


def read_input(path):
    """The UTF-8 text of an input file.  GridInputError names the path
    when the text does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GridInputError(f"{path}: not UTF-8 text (byte "
                             f"0x{exc.object[exc.start]:02x} at offset {exc.start})") from None


def parse_json(text, label):
    """The JSON value of ``text``.  GridInputError names ``label`` (a
    file or an option) and gives the line and column when it is not
    JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridInputError(f"{label}: not valid JSON at line {exc.lineno} "
                             f"column {exc.colno} ({exc.msg})") from None

"""Generator enumeration: full stream, single Alexander level, or bottom window.

Generators are permutations stored as (m, n) arrays, one row per
generator, entry [i, c] being the row of the point on vertical circle
c.  Level and window enumeration return int64 arrays.  The full set of
n! generators is never held at once: ``permutation_blocks`` streams it
in lexicographic order as uint8 blocks of (n-1)! rows, one block per
value of the first column, so a pass over all generators keeps one
block plus whatever the caller selects from it.

Level enumeration runs a branch and bound over columns: the doubled
Alexander grading is a sum of independent per-point contributions, so
partial assignments carry exact attainable bounds from the per-column
minima and maxima over the rows still free.

Every routine takes a generator budget and aborts with
GridResourceError once it would enumerate more than that many rows; the
full stream checks n! against it before building any block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridResourceError
from .gradings import GradingCalculator

DEFAULT_MAX_GENERATORS = 100_000_000


def _as_calc(grid_or_calc):
    if isinstance(grid_or_calc, GradingCalculator):
        return grid_or_calc
    return GradingCalculator(grid_or_calc)


def _lex_table(k):
    """All k! permutations of range(k) as a uint8 (k!, k) array, lexicographic.

    The table for k is built from the one for k - 1: the rows starting
    with f are f followed by the smaller table with every entry >= f
    raised by one, a map that keeps the lexicographic order.
    """
    table = np.zeros((1, 0), dtype=np.uint8, order="F")
    for size in range(1, k + 1):
        m = len(table)
        grown = np.empty((size * m, size), dtype=np.uint8, order="F")
        for f in range(size):
            _prepend(table, f, grown[f * m:(f + 1) * m])
        table = grown
    return table


def _prepend(table, f, out):
    """Fill ``out`` with the rows f, then ``table`` with entries >= f raised."""
    out[:, 0] = f
    np.add(table, table >= f, out=out[:, 1:])
    return out


def permutation_blocks(n, max_generators=DEFAULT_MAX_GENERATORS):
    """Iterator over all n! generators in lexicographic order, in blocks.

    Block f is the uint8 ((n-1)!, n) array of the permutations whose
    first entry is f, stored column-major so each column is contiguous
    for the graders.  Raises GridResourceError, before building any
    block, when n! exceeds the budget.
    """
    total = math.factorial(n)
    if total > max_generators:
        raise GridResourceError(
            f"full enumeration of {total} generators exceeds the budget {max_generators}",
            estimate=total,
        )
    return _blocks(n)


def _blocks(n):
    table = _lex_table(n - 1)
    for f in range(n):
        yield _prepend(table, f, np.empty((len(table), n), dtype=np.uint8,
                                          order="F"))


def enumerate_all(grid_or_calc, max_generators=DEFAULT_MAX_GENERATORS):
    """All n! generators as one uint8 (n!, n) array, in lexicographic order."""
    return np.concatenate(list(permutation_blocks(grid_or_calc.n, max_generators)))


def _branch_and_bound(calc, lo, hi, max_generators):
    """Permutations whose alex2 lies in [lo, hi], lexicographic order."""
    n = calc.n
    fa = calc.fa
    const = calc.alex_const
    out = []
    perm = [0] * n

    def descend(depth, used, partial):
        if depth == n:
            total = partial + const
            if lo <= total <= hi:
                out.append(tuple(perm))
                if len(out) > max_generators:
                    raise GridResourceError(
                        f"level enumeration exceeded the budget {max_generators}",
                        estimate=len(out),
                    )
            return
        # Attainable range for the remaining columns, one row each.
        min_rest = 0
        max_rest = 0
        for c in range(depth, n):
            col = fa[c]
            best = None
            worst = None
            for r in range(n):
                if used & (1 << r):
                    continue
                v = col[r]
                if best is None or v < best:
                    best = v
                if worst is None or v > worst:
                    worst = v
            min_rest += best
            max_rest += worst
        if partial + min_rest + const > hi or partial + max_rest + const < lo:
            return
        col = fa[depth]
        for r in range(n):
            bit = 1 << r
            if used & bit:
                continue
            perm[depth] = r
            descend(depth + 1, used | bit, partial + col[r])

    descend(0, 0, 0)
    if not out:
        return np.empty((0, n), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def generators_in_level(grid_or_calc, alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with the given doubled Alexander grading.

    Returns an empty (0, n) array when the level is empty; an empty
    level is data, not an error.
    """
    calc = _as_calc(grid_or_calc)
    if alex2 < calc.level_floor() or alex2 > calc.level_ceiling():
        return np.empty((0, calc.n), dtype=np.int64)
    return _branch_and_bound(calc, alex2, alex2, max_generators)


def generators_up_to(grid_or_calc, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with alex2 at most the cutoff."""
    calc = _as_calc(grid_or_calc)
    if cutoff_alex2 < calc.level_floor():
        return np.empty((0, calc.n), dtype=np.int64)
    return _branch_and_bound(calc, calc.level_floor(), cutoff_alex2, max_generators)


def encode_perms(perms, n):
    """Pack permutation rows into unique int64 keys (mixed radix)."""
    weights = n ** np.arange(n, dtype=np.int64)
    return perms @ weights

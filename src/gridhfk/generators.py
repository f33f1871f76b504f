"""Generator enumeration: full stream, single Alexander level, or bottom
window, and the per-level counts without enumeration.

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

``level_counts`` gives the size and the signed count (the Euler
characteristic) of every level from a DP over (column, used-row mask),
in about n 2^n steps per level and without listing a generator.

Every enumeration routine takes a generator budget and aborts with
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


def level_counts(calc):
    """{alex2: (count, euler)} for every non-empty level, in increasing alex2.

    ``euler`` is the signed count sum (-1)^(maslov2/2) over the level.
    A DP over (column, used-row mask) builds the permutations column by
    column without listing them: the masks with c bits set are the
    partial permutations of columns 0..c-1, each carrying one count and
    one signed count per partial alex2.  Placing row r in column c adds
    fa[c][r] to alex2 and flips the sign by the parity of the new
    increasing pairs (rows of the mask below r) plus fm[c][r] / 2.
    The work is about n 2^n times the number of levels, the memory two
    popcount layers of masks.  The counts are int64, which holds n! up
    to n = 20; larger grids raise GridResourceError.
    """
    n = calc.n
    if n > 20:
        raise GridResourceError(f"level counts of {n}! generators overflow int64",
                                estimate=math.factorial(n))
    fa = calc.fa
    half_fm = calc.fm // 2
    lo = fa.min(axis=1)
    width = int((fa.max(axis=1) - lo).sum()) + 1
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = np.bitwise_count(masks)
    position = np.zeros(1 << n, dtype=np.int64)
    layers = []
    for c in range(n + 1):
        layer = masks[popcount == c]
        position[layer] = np.arange(len(layer))
        layers.append(layer)
    count = np.zeros((1, width), dtype=np.int64)
    euler = np.zeros((1, width), dtype=np.int64)
    count[0, 0] = euler[0, 0] = 1
    for c in range(n):
        layer = layers[c]
        next_count = np.zeros((len(layers[c + 1]), width), dtype=np.int64)
        next_euler = np.zeros_like(next_count)
        for r in range(n):
            free = (layer >> r & 1) == 0
            src = layer[free]
            dst = position[src | 1 << r]
            shift = int(fa[c][r] - lo[c])
            flips = np.bitwise_count(src & ((1 << r) - 1)) + half_fm[c][r]
            signs = 1 - 2 * (flips & 1)
            next_count[dst, shift:] += count[free, :width - shift]
            next_euler[dst, shift:] += signs[:, None] * euler[free, :width - shift]
        count, euler = next_count, next_euler
    sign = -1 if calc.maslov_const // 2 % 2 else 1
    floor = calc.level_floor()
    return {floor + i: (int(count[0, i]), sign * int(euler[0, i]))
            for i in np.flatnonzero(count[0]).tolist()}


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

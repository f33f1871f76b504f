"""Generator enumeration: graded subsets (a level, the levels up to a
cutoff, a set of Maslov slices), and the per-level counts without
enumeration.

Generators are permutations stored as (m, n) arrays, one row per
generator, entry [i, c] being the row of the point on vertical circle
c.  Graded enumeration returns int64 arrays in lexicographic order,
and every routine takes the grid's GradingCalculator.  The full set
of n! generators is listed only by ``enumerate_all``, which no command
calls.

Both gradings are sums of per-move terms over (column, used-row mask):
placing row r in column c adds fa[c][r] to alex2, and fm[c][r] / 2
plus the rows of the mask below r (the new increasing pairs) to
maslov2 / 2.  ``graded_generators`` reads an exact completion table of
that sum, built once per grading and cached on the GradingCalculator:
for every mask, the values the free rows can still add.  The table is
filled from the full mask down, one bulk gather-OR per move (c, r) for
alex2, and per move and count k of mask rows below r for maslov2.
Which masks each of those touches does not depend on the grid, so
``_move_groups`` lists them once per n (int32 masks sorted by k, with
run bounds; an LRU cache holds the last few n) and every table of that
size reuses them.  Partial permutations grow column by column in numpy,
and a partial is kept only when some completion lands in a target, so
no dead branch is entered and an empty level costs one table lookup.
``graded_levels`` reads the attained values off the same table.

``level_counts`` gives the size and the signed count (the Euler
characteristic) of every level from a DP over (column, used-row mask),
in about n 2^n steps per level and without listing a generator.

Every enumeration routine takes a generator budget and raises
GridResourceError once it would list more than that many rows: graded
enumeration checks each column's partials, which never outnumber the
rows of the result, before the result is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import GridResourceError

DEFAULT_MAX_GENERATORS = 100_000_000


def enumerate_all(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """All n! generators as one uint8 (n!, n) array, in lexicographic order.

    Only ``grid.n`` is read, so a grid or its calculator will do.
    Raises GridResourceError, before listing any generator, when n!
    exceeds the budget.
    """
    n = grid.n
    total = math.factorial(n)
    if total > max_generators:
        raise GridResourceError(
            f"full enumeration of {total} generators exceeds the budget {max_generators}",
            estimate=total,
        )
    rows = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(rows, dtype=np.uint8, count=total * n).reshape(total, n)


def _completion_table(calc, grading):
    """The exact completion table of one grading, built once per calculator.

    Returns (shift, base, inversions, reach_counts): placing row r in
    column c after the rows of ``mask`` adds shift[c][r], plus the rows
    of the mask below r when ``inversions``, to a relative value j, and
    a generator's grading is base + 2 j.  ``reach_counts[mask, j]`` is
    the number of relative values below j that the rows outside the
    mask can add by filling columns popcount(mask)..n-1, so a range of
    completions is attainable when the counts at its ends differ.
    """
    tables = calc.completion_tables
    if grading not in tables:
        tables[grading] = _build_completion_table(calc, grading)
    return tables[grading]


# One Murasugi check visits up to eight grid sizes in turn.
@functools.lru_cache(maxsize=8)
def _move_groups(n):
    """The grid-free part of every completion table of size n.

    Entry (c, r) is (masks, bounds): the int32 masks with c bits set and
    bit r clear, sorted by how many of their bits lie below r, and
    ``bounds[k]:bounds[k + 1]`` the run of those with k such bits.
    These are the partials that placing row r in column c extends, and
    that count is the number of increasing pairs the move adds.
    """
    masks = np.arange(1 << n, dtype=np.int32)
    groups = {}
    for r in range(n):
        src = masks[(masks >> r & 1) == 0]
        below = np.bitwise_count(src & ((1 << r) - 1))
        # Sort by (popcount, bits below r): one run per (c, k).  The
        # key fits 16 bits, where the stable sort is a radix sort.
        key = np.bitwise_count(src).astype(np.uint16) * (n + 1) + below
        order = np.argsort(key, kind="stable")
        src = src[order]
        bounds = np.searchsorted(key[order], np.arange(n * (n + 1) + 1)).tolist()
        for c in range(n):
            runs = bounds[c * (n + 1):c * (n + 1) + c + 2]
            groups[c, r] = (src[runs[0]:runs[-1]], [b - runs[0] for b in runs])
    return groups


def _build_completion_table(calc, grading):
    n = calc.n
    if grading == "alex":
        # alex2 adds fa[c][r]; within a column these share one parity.
        lo = calc.fa.min(axis=1)
        shift = (calc.fa - lo[:, None]) // 2
        base = int(lo.sum()) + calc.alex_const
        inversions = False
    elif grading == "maslov":
        # maslov2 / 2 adds fm[c][r] / 2 plus the new increasing pairs.
        half_fm = calc.fm // 2
        lo = half_fm.min(axis=1)
        shift = half_fm - lo[:, None]
        base = 2 * int(lo.sum()) + calc.maslov_const
        inversions = True
    else:
        raise ValueError(f"unknown grading {grading!r}")
    width = int(shift.max(axis=1).sum()) + 1
    if inversions:
        width += n * (n - 1) // 2
    groups = _move_groups(n)
    reach = np.zeros((1 << n, width), dtype=bool)
    reach[-1, 0] = True
    for c in range(n - 1, -1, -1):
        for r in range(n):
            src, bounds = groups[c, r]
            s = int(shift[c][r])
            child = reach[src | 1 << r]
            if not inversions:
                reach[src, s:] |= child[:, :width - s]
                continue
            # The run of masks with k rows below r adds k more.
            for k in range(c + 1):
                lo, hi = bounds[k], bounds[k + 1]
                if hi > lo:
                    reach[src[lo:hi], s + k:] |= child[lo:hi, :width - s - k]
    counts = np.zeros((1 << n, width + 1), dtype=np.min_scalar_type(width))
    np.cumsum(reach, axis=1, out=counts[:, 1:])
    return shift, base, inversions, counts


def graded_levels(calc, grading):
    """Every attained value of the grading ("alex" or "maslov"), increasing."""
    _, base, _, counts = _completion_table(calc, grading)
    return [base + 2 * j for j in np.flatnonzero(np.diff(counts[0])).tolist()]


def graded_generators(calc, grading, targets, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators whose alex2 or maslov2 lies in ``targets``.

    ``grading`` is "alex" (alex2) or "maslov" (maslov2).  Returns an
    int64 (m, n) array in lexicographic order, (0, n) when no generator
    is graded in the targets.  The permutations grow column by column:
    each alive partial expands into its free rows in increasing order,
    and a child lives on only when the completion table says some
    completion lands in a target.  So every alive partial has a
    completion, no column holds more partials than the result has rows,
    and GridResourceError is raised as soon as a column holds more than
    ``max_generators``, before the result is allocated.
    """
    n = calc.n
    shift, base, inversions, counts = _completion_table(calc, grading)
    width = counts.shape[1] - 1
    rel = sorted({(t - base) // 2 for t in targets
                  if (t - base) % 2 == 0 and 0 <= t - base < 2 * width})
    if not rel:
        return np.empty((0, n), dtype=np.int64)
    # Runs of consecutive relative targets, as half-open [start, stop).
    breaks = [i for i in range(1, len(rel)) if rel[i] != rel[i - 1] + 1]
    starts = [rel[i] for i in [0, *breaks]]
    stops = [rel[i - 1] + 1 for i in [*breaks, len(rel)]]

    def reachable(masks, acc):
        hit = np.zeros(len(masks), dtype=bool)
        # acc >= 0 and every stop <= width, so only the floor can bind.
        for start, stop in zip(starts, stops):
            lo = np.maximum(start - acc, 0)
            hi = np.maximum(stop - acc, 0)
            hit |= counts[masks, hi] > counts[masks, lo]
        return hit

    masks = np.zeros(1, dtype=np.int64)
    acc = np.zeros(1, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    parents = []
    placed = []
    for c in range(n):
        # Row-major nonzero lists the children parent by parent, each
        # parent's in increasing row: lexicographic order, with no sort.
        parent, row = np.nonzero((masks[:, None] >> rows & 1) == 0)
        used = masks[parent]
        child = used | 1 << row
        value = acc[parent] + shift[c][row]
        if inversions:
            value += np.bitwise_count(used & ((1 << row) - 1))
        alive = reachable(child, value)
        masks, acc = child[alive], value[alive]
        if len(masks) > max_generators:
            raise GridResourceError(
                f"enumeration of column {c} reached {len(masks)} partial "
                f"generators, over the budget {max_generators}",
                estimate=len(masks))
        parents.append(parent[alive])
        placed.append(row[alive])
    out = np.empty((len(masks), n), dtype=np.int64)
    index = np.arange(len(masks))
    for c in range(n - 1, -1, -1):
        out[:, c] = placed[c][index]
        index = parents[c][index]
    return out


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


def generators_in_level(calc, alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with the given doubled Alexander grading.

    Returns an empty (0, n) array when the level is empty; an empty
    level is data, not an error.
    """
    return graded_generators(calc, "alex", [alex2], max_generators)


def generators_up_to(calc, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with alex2 at most the cutoff."""
    top = min(cutoff_alex2, calc.level_ceiling())
    return graded_generators(calc, "alex", range(calc.level_floor(), top + 1),
                             max_generators)


def encode_perms(perms, n):
    """Pack permutation rows into unique int64 keys (mixed radix)."""
    weights = n ** np.arange(n, dtype=np.int64)
    return perms @ weights

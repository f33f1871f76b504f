"""Generator enumeration: graded subsets (a level, the levels up to a
cutoff, a set of Maslov slices), and the per-level counts without
enumeration.

Generators are permutations stored as (m, n) arrays, one row per
generator, entry [i, c] being the row of the point on vertical circle
c.  Graded enumeration returns uint8 arrays in lexicographic order;
``graded_generators`` also returns the grading each row was enumerated
by, which its callers read instead of grading the rows again.  Every
routine takes the grid's GradingCalculator.  The full set
of n! generators is listed only by ``enumerate_all``, which no command
calls.

Both gradings are sums of per-move terms over (column, used-row mask),
which the calculator's ``alex_terms()`` and ``maslov_terms()`` give
halved: placing row r in column c adds its Alexander shift to
(alex2 - floor) / 2, and its Maslov shift plus the rows of the mask
below r (the new increasing pairs) to (maslov2 - base) / 2.
``graded_generators`` reads an exact completion table of that sum,
built once per grading and cached on the GradingCalculator:
for every mask, the values the free rows can still add, as a bitset of
little-endian uint64 words.  The table is filled from the full mask
down, one column at a time: each mask ORs in its children's bitsets,
each shifted left by the value its move adds.  Which moves each column
holds does not depend on the grid, so ``_column_moves`` lists them once
per n (an LRU cache holds the last few n), with each mask's position in
its layer, and no routine here derives a move itself.  Partial
permutations grow column by column in numpy: a partial is its mask's
position and its value, its children, rows and new increasing pairs are
gathered from the cached moves of that position, and a child is kept
only when its mask's bitset meets the targets shifted down by its
value, so no dead branch is entered and an empty level costs one table
lookup.
``graded_levels`` reads the attained values off the same table.

``level_counts`` gives the size and the signed count (the Euler
characteristic) of every level without listing a generator, by the
same pull from the full mask down over the same ``_column_moves``:
each mask carries its completions' counts per sign parity, indexed by
the halved Alexander offsets of the alex table, with the signs taken
from ``maslov_terms()``, at its position in the flat array of its
layer, and a column is one gather and one sum (in fixed-size passes
over parents), n steps in all.

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

from .errors import GridResourceError, InconsistentComplex

DEFAULT_MAX_GENERATORS = 100_000_000

# Parent masks per pass of ``level_counts``.
_PASS = 1 << 10


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

    Returns (shift, base, inversions, width, reach): placing row r in
    column c after the rows of ``mask`` adds shift[c][r], plus the rows
    of the mask below r when ``inversions``, to a relative value j in
    [0, width), and a generator's grading is base + 2 j.  ``reach`` is a
    uint64 (W, 2^n) array, W = ceil(width / 64), word-major so that
    every gather is 1-D: bit j of column ``mask`` (word 0 the lowest)
    is set when the free rows can add j in columns popcount(mask)..n-1.
    """
    tables = calc.completion_tables
    if grading not in tables:
        tables[grading] = _build_completion_table(calc, grading)
    return tables[grading]


# One Murasugi check visits up to eight grid sizes in turn.
@functools.lru_cache(maxsize=8)
def _column_moves(n):
    """The grid-free part of every mask DP of size n: the completion
    tables, the enumeration and the level counts.

    Returns (position, moves).  ``position`` is the int32 (2^n,) index
    of each mask among the masks with as many bits set, in increasing
    order, the full mask at 0 (4 MiB at n = 20).  Entry c of ``moves``
    is (layer, child, row, below): the int32 masks with c bits set and,
    parent by parent, the moves that place a free row in column c, as
    (len(layer), n - c) arrays of the int32 child mask, the uint8 row,
    in increasing order, and the uint8 count of parent rows below it
    (the increasing pairs the move adds).
    """
    masks = np.arange(1 << n, dtype=np.int32)
    popcount = np.bitwise_count(masks)
    rows = np.arange(n, dtype=np.int32)
    position = np.zeros(1 << n, dtype=np.int32)
    moves = []
    for c in range(n):
        layer = masks[popcount == c]
        position[layer] = np.arange(len(layer))
        row = np.nonzero((layer[:, None] >> rows & 1) == 0)[1].astype(np.int32)
        row = row.reshape(len(layer), n - c)
        bit = 1 << row
        below = np.bitwise_count(layer[:, None] & (bit - 1))
        moves.append((layer, layer[:, None] | bit, row.astype(np.uint8), below))
    return position, moves


def _shift_left(words, bits):
    """Bitsets ``words`` (W, ...), word 0 the lowest, shifted left by
    ``bits`` (..., uint64, each 0..63); bits past word W - 1 are lost."""
    out = words << bits
    if len(words) > 1:
        # (x >> 1) >> (63 - b) is x >> (64 - b), and 0 when b = 0.
        out[1:] |= (words[:-1] >> np.uint64(1)) >> (np.uint64(63) - bits)
    return out


def _set_bits(words):
    """The set bits of one (W,) uint64 bitset, word 0 the lowest."""
    bits = words[:, None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)
    return np.flatnonzero(bits.ravel()).tolist()


def _build_completion_table(calc, grading):
    n = calc.n
    terms = {"alex": calc.alex_terms, "maslov": calc.maslov_terms}
    if grading not in terms:
        raise ValueError(f"unknown grading {grading!r}")
    shift, base, width = terms[grading]()
    inversions = grading == "maslov"
    # A move adds at most n, plus n - 1 pairs: under 64 for any n whose
    # 2^n masks fit in memory.
    reach = np.zeros((-(-width // 64), 1 << n), dtype=np.uint64)
    reach[0, -1] = 1
    _, moves = _column_moves(n)
    for c in range(n - 1, -1, -1):
        layer, child, row, below = moves[c]
        bits = shift[c].astype(np.uint64)[row]
        if inversions:
            bits += below
        reach[:, layer] = np.bitwise_or.reduce(_shift_left(reach[:, child], bits), axis=2)
    return shift, base, inversions, width, reach


def graded_levels(calc, grading):
    """Every attained value of the grading ("alex" or "maslov"), increasing."""
    _, base, _, _, reach = _completion_table(calc, grading)
    return [base + 2 * j for j in _set_bits(reach[:, 0])]


def graded_generators(calc, grading, targets, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators whose alex2 or maslov2 lies in ``targets``.

    ``grading`` is "alex" (alex2) or "maslov" (maslov2).  Returns
    (rows, values): a uint8 (m, n) array in lexicographic order, (0, n)
    when no generator is graded in the targets, and the int64 (m,)
    grading of each row, the value it was enumerated by, so no caller
    grades the rows again.  The permutations grow column by column:
    each alive partial expands into its free rows in increasing order,
    and a child lives on only when the completion table says some
    completion lands in a target; the children, their rows and the
    pairs they add are read from ``_column_moves``.  So every alive
    partial has a completion, no column holds more partials than the
    result has rows, and GridResourceError is raised as soon as a
    column holds more than ``max_generators``, before the result is
    allocated.
    """
    n = calc.n
    shift, base, inversions, width, reach = _completion_table(calc, grading)
    rel = sorted({(t - base) // 2 for t in targets
                  if (t - base) % 2 == 0 and 0 <= t - base < 2 * width})
    if not rel:
        return np.empty((0, n), dtype=np.uint8), np.empty(0, dtype=np.int64)
    # Column a of ``ahead`` packs hits[a:a + span], a window of one
    # strided view: the targets shifted down by a, in the table's layout.
    span = 64 * len(reach)
    hits = np.zeros(width + span, dtype=bool)
    hits[rel] = True
    window = np.ndarray((width, span), dtype=bool, buffer=hits, strides=(1, 1))
    ahead = np.packbits(window, axis=1, bitorder="little").view("<u8").T.copy()

    position, moves = _column_moves(n)
    # Each alive partial is its mask's position in its layer and its value.
    at = np.zeros(1, dtype=np.int32)
    acc = np.zeros(1, dtype=np.int64)
    parents = []
    placed = []
    for c in range(n):
        # The children parent by parent, each parent's in increasing row:
        # lexicographic order, with no sort.  The masks are widened to
        # intp once, as numpy casts an int32 index on every gather.
        _, child, row, below = moves[c]
        child, row = child[at].ravel().astype(np.intp), row[at].ravel()
        value = np.repeat(acc, n - c) + shift[c][row]
        if inversions:
            value += below[at].ravel()
        alive = np.zeros(len(child), dtype=bool)
        for words, shifted in zip(reach, ahead):
            alive |= (words[child] & shifted[value]) != 0
        keep = np.flatnonzero(alive)
        at, acc = position[child[keep]], value[keep]
        if len(at) > max_generators:
            raise GridResourceError(
                f"enumeration of column {c} reached {len(at)} partial "
                f"generators, over the budget {max_generators}",
                estimate=len(at))
        parents.append(keep // (n - c))
        placed.append(row[keep])
    out = np.empty((len(at), n), dtype=np.uint8)
    index = np.arange(len(at))
    for c in range(n - 1, -1, -1):
        out[:, c] = placed[c][index]
        index = parents[c][index]
    return out, base + 2 * acc


def level_counts(calc):
    """{alex2: (count, euler)} for every non-empty level, in increasing alex2.

    ``euler`` is the signed count sum (-1)^(maslov2/2) over the level.
    A pull DP from the full mask down, like the completion tables and
    over the same ``_column_moves``: each mask holds, per relative
    value j of the alex completion table (alex2 = floor + 2 j), the
    number of completions of its free rows whose sign flips an even and
    an odd number of times.  A mask with c bits sums its children's
    rows, each shifted right by shift[c][r] and with the two parities
    swapped when the move flips the sign: when the Maslov shift of
    ``maslov_terms()`` plus the mask's rows below r (the new increasing
    pairs) is odd, the sign of base / 2 applying to all.  One column
    is one gather and one sum, in passes of ``_PASS`` parents; the work
    is about n 2^n width additions, the memory two popcount layers of
    masks.  The counts are int64, which holds n! up to n = 20; larger
    grids raise GridResourceError before anything is allocated.  The
    counts must sum to n!, or InconsistentComplex is raised.
    """
    n = calc.n
    if n > 20:
        raise GridResourceError(f"level counts of {n}! generators overflow int64",
                                estimate=math.factorial(n))
    shift, floor, width = calc.alex_terms()
    flip, base, _ = calc.maslov_terms()
    # A mask's row is [pad | even (width) | pad | odd (width)]: a window
    # shifted right reads zeros from the pad in front of it.
    pad = int(shift.max())
    half = pad + width
    # start[c, r, k, s]: where, in its child's row, the window of the
    # parent's slot s (0 even, 1 odd) starts for the move placing row r
    # in column c above k rows of the mask.
    flips = flip[:, :, None, None] + np.arange(n)[:, None] + np.arange(2)
    start = (pad - shift)[:, :, None, None] + half * (flips & 1)
    # A mask's row begins at its position times 2 half in the flat
    # array of its layer; the int64 factor keeps the product from
    # wrapping in int32.
    position, moves = _column_moves(n)
    counts = np.zeros(2 * half, dtype=np.int64)
    counts[pad] = 1
    for c in range(n - 1, -1, -1):
        layer, child, row, below = moves[c]
        windows = np.ndarray((len(counts) - width + 1, width), dtype=np.int64,
                             buffer=counts, strides=(8, 8))
        out = np.zeros((len(layer), 2, half), dtype=np.int64)
        for p in range(0, len(layer), _PASS):
            at = (np.int64(2 * half) * position[child[p:p + _PASS]][:, :, None]
                  + start[c][row[p:p + _PASS], below[p:p + _PASS]])
            out[p:p + _PASS, :, pad:] = windows[at].sum(axis=1)
        counts = out.ravel()
    even, odd = counts[pad:half], counts[half + pad:]
    total = even + odd
    sign = -1 if base // 2 % 2 else 1
    levels = {floor + 2 * i: (int(total[i]), sign * int(even[i] - odd[i]))
              for i in np.flatnonzero(total).tolist()}
    size = sum(count for count, _ in levels.values())
    if size != math.factorial(n):
        raise InconsistentComplex(f"the level counts sum to {size}, "
                                  f"not {n}! = {math.factorial(n)}")
    return levels


def generators_in_level(calc, alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with the given doubled Alexander grading.

    Returns an empty (0, n) array when the level is empty; an empty
    level is data, not an error.
    """
    return graded_generators(calc, "alex", [alex2], max_generators)[0]


def generators_up_to(calc, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """All generators with alex2 at most the cutoff."""
    top = min(cutoff_alex2, calc.level_ceiling())
    return graded_generators(calc, "alex", range(calc.level_floor(), top + 1),
                             max_generators)[0]

"""Empty rectangle counts: the boundary operators of the grid complex.

A rectangle from generator x is chosen by an ordered pair of its points
p = (ci, a), q = (cj, b): it spans the cyclic column interval [ci, cj)
and the cyclic row interval [a, b), and connects x to the generator y
that swaps the two rows.  Both rectangles of a transposition arise this
way, one from each ordering, so the torus wrap is covered.

A rectangle is counted when its interior misses every generator point
and every O marking; the level-preserving operator additionally
requires the interior to miss every X.  Either way the target sits one
Maslov step below the source (maslov2 drops by exactly 2), and the
doubled Alexander grading drops by twice the number of X markings
crossed, which is zero in the level-preserving case.

The point test is a record low.  Write rel[t] = (x[ci + t] - x[ci]) % n
for the rows of the columns t = 1 .. n - 1 steps to the right of ci.
The rectangle of width w has height rel[w], and the points of the
columns strictly inside it lie inside exactly when their rel is below
that height, so the rectangle misses them exactly when rel[w] is below
min(rel[1 .. w - 1]): one ``np.minimum.accumulate`` along t finds every
point-free rectangle of a source.  Marking counts inside those come
from prefix sums over a doubled board, read by flat fancy indexing; the
grid's RectangleCounter holds one such table per marking set and one
flat table per boundary mode.  The marking-set tables also feed the
gradings: the GradingCalculator reads its per-point tables off them, so
each marking set's table is built once per grid.

``boundary_entries`` runs over all (source, ci, width) triples at once,
in passes of at most ``_CHUNK`` triples, so memory stays flat whatever
the number of sources.  The target basis is held as uint8 rows, each
viewed as one n-byte ``np.void`` scalar and sorted once; bytes compare
in lexicographic order, so the moved rows of each pass are found among
them with one ``np.searchsorted`` and kept where the bytes are equal.
The lookup is exact by construction, for every n up to 256, the most
that uint8 rows hold.  The multiplicity of every (source, target) pair
is reduced mod 2 by one ``np.unique(..., return_counts=True)`` over all
passes.
"""

from __future__ import annotations

import numpy as np

MODE_LEVEL = "level"
MODE_FILTERED = "filtered"

# (source, ci, width) triples per pass of ``boundary_entries``.
_CHUNK = 1 << 14


def _doubled_prefix(cols, n):
    """Prefix sums of the marking board tiled 2x2 for cyclic ranges."""
    board = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for r, c in enumerate(cols):
        for dc in (0, n):
            for dr in (0, n):
                board[c + dc, r + dr] = 1
    pp = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.int64)
    pp[1:, 1:] = board.cumsum(axis=0).cumsum(axis=1)
    return pp


class RectangleCounter:
    """Per-grid prefix tables of the O and X markings.

    ``o_prefix`` and ``x_prefix`` are the doubled prefix tables of one
    marking set each: entry [c, r] counts its markings in [0, c) x
    [0, r) of the board tiled 2x2, and restricted to [0, n]^2 it counts
    those southwest of (c, r), which is what the gradings read.
    ``marks[mode]`` is the table of the markings a counted rectangle
    must miss in one boundary mode, raveled so that entry c * (2n + 1)
    + r is [c, r]: the O markings for MODE_FILTERED, the O and X
    markings for MODE_LEVEL.
    """

    def __init__(self, grid):
        self.n = grid.n
        self.o_prefix = _doubled_prefix(grid.o_cols, grid.n)
        self.x_prefix = _doubled_prefix(grid.x_cols, grid.n)
        self.marks = {MODE_FILTERED: self.o_prefix.ravel(),
                      MODE_LEVEL: (self.o_prefix + self.x_prefix).ravel()}


def boundary_entries(counter, sources, targets, mode):
    """Sparse boundary entries for an array of source generators.

    ``targets`` is the target basis as an integer (k, n) array, row i
    being basis vector i; rectangles landing outside it are dropped,
    which is how level and Maslov-slice restrictions are imposed.
    Sources and targets may have any integer dtype.  Returns
    (target_rows, source_cols) index arrays with multiplicity already
    reduced mod 2 (the two rectangles of a transposition are distinct
    rectangles, each contributing one entry; coincidences cancel),
    ordered by source, then target.  Raises ValueError when n > 256,
    where uint8 rows would wrap.
    """
    n = counter.n
    if n > 256:
        raise ValueError(f"a {n}-grid has rows past the uint8 range")
    m = len(sources)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if m == 0 or n < 2 or len(targets) == 0:
        return empty
    keys = np.ascontiguousarray(targets, dtype=np.uint8).view(f"V{n}").ravel()
    index = np.argsort(keys)
    keys = keys[index]
    span = len(targets)
    # Markings that may not lie inside a counted rectangle, as a flat
    # doubled prefix table indexed by column * stride + row.
    marks = counter.marks[mode]
    stride = 2 * n + 1
    # ahead[ci, t - 1] is the column t steps to the right of ci.
    ahead = (np.arange(n)[:, None] + np.arange(1, n)) % n
    step = max(1, _CHUNK // (n * (n - 1)))
    pairs = [empty[0]]
    for lo in range(0, m, step):
        block = np.asarray(sources[lo:lo + step], dtype=np.uint8)
        # int16, since uint8 differences would wrap mod 256.
        chunk = block.astype(np.int16)
        rel = (chunk[:, ahead] - chunk[:, :, None]) % n
        low = np.empty_like(rel)
        low[:, :, 0] = n
        np.minimum.accumulate(rel[:, :, :-1], axis=2, out=low[:, :, 1:])
        x, ci, t = np.nonzero(rel < low)
        a = chunk[x, ci]
        c1 = ci + t + 1
        r1 = a + rel[x, ci, t]
        inside = (marks[c1 * stride + r1] - marks[ci * stride + r1]
                  - marks[c1 * stride + a] + marks[ci * stride + a])
        keep = inside == 0
        x, ci = x[keep], ci[keep]
        cj = c1[keep] % n
        # The moved row: the source with rows a and b swapped.
        row, at = block[x], np.arange(len(x))
        row[at, ci], row[at, cj] = row[at, cj], row[at, ci]
        moved = row.view(f"V{n}").ravel()
        pos = np.minimum(np.searchsorted(keys, moved), span - 1)
        hit = keys[pos] == moved
        pairs.append((x[hit] + lo) * span + index[pos[hit]])
    pairs, counts = np.unique(np.concatenate(pairs), return_counts=True)
    pairs = pairs[counts % 2 == 1]
    return pairs % span, pairs // span

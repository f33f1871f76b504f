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
from prefix sums over a doubled board, read by flat fancy indexing.

``boundary_entries`` runs over all (source, ci, width) triples at once,
in passes of at most ``_CHUNK`` triples, so memory stays flat whatever
the number of sources.  The targets of each pass are found among the
sorted target keys with one ``np.searchsorted``, and the multiplicity of
every (source, target) pair is reduced mod 2 by one
``np.unique(..., return_counts=True)`` over all passes.
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
    """Per-grid tables answering marking counts in cyclic rectangles."""

    def __init__(self, grid):
        self.grid = grid
        self.n = grid.n
        self._px = _doubled_prefix(grid.x_cols, grid.n)
        self._po = _doubled_prefix(grid.o_cols, grid.n)

    def _count(self, pp, c0, width, r0, height):
        # r0 may be a vector; c0, width are scalars, height a vector.
        c1 = c0 + width
        r1 = r0 + height
        return pp[c1, r1] - pp[c0, r1] - pp[c1, r0] + pp[c0, r0]

    def x_inside(self, c0, width, r0, height):
        return self._count(self._px, c0, width, r0, height)

    def o_inside(self, c0, width, r0, height):
        return self._count(self._po, c0, width, r0, height)


def boundary_entries(counter, sources, target_lookup, mode):
    """Sparse boundary entries for an array of source generators.

    ``target_lookup`` maps encoded permutations to row indices of the
    target basis; rectangles landing outside it are dropped, which is
    how level and Maslov-slice restrictions are imposed.  Sources must
    be a signed integer array (int64), since the target keys are built
    from row differences.  Returns (target_rows, source_cols) index
    arrays with multiplicity already reduced mod 2 (the two rectangles
    of a transposition are distinct rectangles, each contributing one
    entry; coincidences cancel), ordered by source, then target.
    """
    n = counter.n
    m = len(sources)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if m == 0 or n < 2 or not target_lookup:
        return empty
    keys = np.fromiter(target_lookup.keys(), dtype=np.int64,
                       count=len(target_lookup))
    index = np.fromiter(target_lookup.values(), dtype=np.int64,
                        count=len(target_lookup))
    order = np.argsort(keys)
    keys = keys[order]
    index = index[order]
    span = int(index.max()) + 1
    weights = n ** np.arange(n, dtype=np.int64)
    # Markings that may not lie inside a counted rectangle, as a flat
    # doubled prefix table indexed by column * stride + row.
    marks = counter._po if mode == MODE_FILTERED else counter._po + counter._px
    marks = marks.ravel()
    stride = 2 * n + 1
    # ahead[ci, t - 1] is the column t steps to the right of ci.
    ahead = (np.arange(n)[:, None] + np.arange(1, n)) % n
    step = max(1, _CHUNK // (n * (n - 1)))
    pairs = []
    for lo in range(0, m, step):
        chunk = sources[lo:lo + step]
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
        x, ci, a = x[keep], ci[keep], a[keep]
        cj = c1[keep] % n
        moved = ((chunk @ weights)[x]
                 + (chunk[x, cj] - a) * (weights[ci] - weights[cj]))
        pos = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
        found = keys[pos] == moved
        pairs.append((x[found] + lo) * span + index[pos[found]])
    pairs, counts = np.unique(np.concatenate(pairs), return_counts=True)
    pairs = pairs[counts % 2 == 1]
    return pairs % span, pairs // span


def rectangle_census(counter, perm, ci, cj):
    """Marking and interior data of the single rectangle r(p, q).

    Diagnostic helper used by the grading-relation tests: returns the
    counts of X markings, O markings and interior generator points.
    """
    n = counter.n
    arr = np.asarray(perm, dtype=np.int64)[None, :]
    a = int(arr[0, ci])
    b = int(arr[0, cj])
    width = (cj - ci) % n
    height = (b - a) % n
    x_in = int(counter.x_inside(ci, width, np.array([a]), np.array([height]))[0])
    o_in = int(counter.o_inside(ci, width, np.array([a]), np.array([height]))[0])
    interior = 0
    for t in range(1, width):
        c = (ci + t) % n
        rel = (int(arr[0, c]) - a) % n
        if 0 < rel < height:
            interior += 1
    return {"n_x": x_in, "n_o": o_in, "interior_points": interior}

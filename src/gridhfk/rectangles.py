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

Marking counts inside cyclic rectangles come from prefix sums over a
doubled board, evaluated in bulk for a whole array of generators.
Boundary entries are assembled without a per-entry loop: the targets
of each (ci, cj) rectangle are found among the sorted target keys with
``np.searchsorted``, and the multiplicity of every (source, target)
pair is reduced mod 2 with ``np.unique(..., return_counts=True)``.
"""

from __future__ import annotations

import numpy as np

MODE_LEVEL = "level"
MODE_FILTERED = "filtered"


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


def empty_rectangle_mask(counter, perms, ci, cj, mode):
    """Which rows of ``perms`` admit the counted rectangle r(p, q).

    p is the point on column ci, q on column cj.  Returns the boolean
    mask plus the rectangle's doubled Alexander drop (2 * n_X crossed)
    for the surviving rows.
    """
    n = counter.n
    a = perms[:, ci]
    b = perms[:, cj]
    width = (cj - ci) % n
    height = (b - a) % n

    o_in = counter.o_inside(ci, width, a, height)
    ok = o_in == 0
    x_in = counter.x_inside(ci, width, a, height)
    if mode == MODE_LEVEL:
        ok &= x_in == 0

    # Interior generator points: columns strictly between ci and cj
    # whose rows land strictly inside the cyclic row interval.
    for t in range(1, width):
        c = (ci + t) % n
        rel = (perms[:, c] - a) % n
        ok &= ~((rel > 0) & (rel < height))

    return ok, 2 * x_in


def boundary_entries(counter, sources, target_lookup, mode,
                     target_of=None):
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
    if m == 0 or not target_lookup:
        return empty
    keys = np.fromiter(target_lookup.keys(), dtype=np.int64,
                       count=len(target_lookup))
    index = np.fromiter(target_lookup.values(), dtype=np.int64,
                        count=len(target_lookup))
    order = np.argsort(keys)
    keys = keys[order]
    index = index[order]
    weights = n ** np.arange(n, dtype=np.int64)
    base_keys = sources @ weights
    hit_targets = []
    hit_sources = []
    for ci in range(n):
        for cj in range(n):
            if ci == cj:
                continue
            ok, _ = empty_rectangle_mask(counter, sources, ci, cj, mode)
            idx = np.nonzero(ok)[0]
            if len(idx) == 0:
                continue
            a = sources[idx, ci]
            b = sources[idx, cj]
            moved = base_keys[idx] + (b - a) * weights[ci] + (a - b) * weights[cj]
            pos = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
            found = keys[pos] == moved
            hit_targets.append(index[pos[found]])
            hit_sources.append(idx[found])
    if not hit_targets:
        return empty
    span = int(index.max()) + 1
    pairs = np.concatenate(hit_sources) * span + np.concatenate(hit_targets)
    pairs, counts = np.unique(pairs, return_counts=True)
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

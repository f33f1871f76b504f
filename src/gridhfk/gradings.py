"""Maslov and Alexander gradings of grid generators.

A generator is a permutation ``perm`` with one point (c, perm[c]) on
each vertical circle c; markings sit at cell centers, so the X of row r
occupies (x_cols[r] + 1/2, r + 1/2).  Gradings come from the planar
J-pairing on the fundamental domain [0, n) x [0, n):

    I(A, B) = #{(a, b) : a strictly southwest of b}
    J(A, B) = (I(A, B) + I(B, A)) / 2
    M(x)    = J(x, x) - 2 J(x, O) + J(O, O) + 1
    A(x)    = (M_O(x) - M_X(x)) / 2 - (n - l) / 2

with l the number of link components.  Both gradings are stored doubled
(maslov2 = 2M, alex2 = 2A) so that links, whose Alexander gradings can
be half-integral, stay in integer arithmetic.  Every empty rectangle
counted by a boundary operator drops maslov2 by exactly 2 and alex2 by
2(n_X - n_O) of the rectangle it crosses.

The doubled Alexander grading splits as a sum of one contribution per
generator point plus a grid constant, which is what the enumeration
module prunes on.
"""

from __future__ import annotations

import numpy as np

from .grids import count_components


def _pair_tables(cols, n):
    """Counts of markings weakly northeast / strictly southwest of (c, r).

    For a marking set placed at (cols[r] + 1/2, r + 1/2), entry [c, r] of
    the first table counts markings m with m_col >= c and m_row >= r;
    the second counts m_col < c and m_row < r.  Both are (n+1, n+1) so
    that lookups at c+1 or r+1 stay in range.
    """
    ne = np.zeros((n + 1, n + 1), dtype=np.int64)
    sw = np.zeros((n + 1, n + 1), dtype=np.int64)
    board = np.zeros((n, n), dtype=np.int64)
    for r, c in enumerate(cols):
        board[c, r] = 1
    # ne[c, r] = sum of board[c:, r:]; sw[c, r] = sum of board[:c, :r].
    suf = np.cumsum(np.cumsum(board[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    ne[:n, :n] = suf
    pre = np.cumsum(np.cumsum(board, axis=0), axis=1)
    sw[1:, 1:] = pre
    return ne, sw


def _marking_self_pairs(cols):
    n = len(cols)
    rows_by_col = [0] * n
    for r, c in enumerate(cols):
        rows_by_col[c] = r
    count = 0
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            if rows_by_col[c1] < rows_by_col[c2]:
                count += 1
    return count


class GradingCalculator:
    """Precomputed tables evaluating maslov2 and alex2 for one grid."""

    def __init__(self, grid):
        self.grid = grid
        n = grid.n
        self.n = n
        self.components = count_components(grid)

        x_ne, x_sw = _pair_tables(grid.x_cols, n)
        o_ne, o_sw = _pair_tables(grid.o_cols, n)
        i_oo = _marking_self_pairs(grid.o_cols)
        i_xx = _marking_self_pairs(grid.x_cols)

        # alex2(x) = sum_c fa[c, perm[c]] + alex_const
        self.fa = (x_ne[: n, : n] + x_sw[: n, : n]) - (o_ne[: n, : n] + o_sw[: n, : n])
        self.alex_const = i_oo - i_xx - (n - self.components)

        # maslov2(x) = 2 I(x, x) + sum_c fm[c, perm[c]] + maslov_const
        self.fm = -2 * (o_ne[: n, : n] + o_sw[: n, : n])
        self.maslov_const = 2 * i_oo + 2

    def alex2(self, perm):
        return int(sum(self.fa[c, r] for c, r in enumerate(perm))) + self.alex_const

    def maslov2(self, perm):
        n = self.n
        ixx = 0
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                if perm[c1] < perm[c2]:
                    ixx += 1
        fm = sum(self.fm[c, r] for c, r in enumerate(perm))
        return 2 * ixx + int(fm) + self.maslov_const

    def gradings(self, perm):
        return self.maslov2(perm), self.alex2(perm)

    def alex2_batch(self, perms):
        """alex2 for an (m, n) array of permutations (any integer dtype)."""
        total = np.full(len(perms), self.alex_const, dtype=np.int64)
        for c in range(self.n):
            total += self.fa[c][perms[:, c]]
        return total

    def maslov2_batch(self, perms):
        """maslov2 for an (m, n) array of permutations (any integer dtype).

        Works column by column on contiguous columns (views of a
        column-major array, copies otherwise), so the largest temporary
        is one column, never an (m, n) int64 array.  The count of
        increasing pairs, at most n(n-1)/2, fits an int16 accumulator
        for n <= 256.
        """
        n = self.n
        cols = [np.ascontiguousarray(perms[:, c]) for c in range(n)]
        ixx = np.zeros(len(perms), dtype=np.int16)
        fm = np.full(len(perms), self.maslov_const, dtype=np.int64)
        for c1 in range(n):
            col1 = cols[c1]
            for c2 in range(c1 + 1, n):
                ixx += col1 < cols[c2]
            fm += self.fm[c1][col1]
        fm += ixx
        fm += ixx  # 2 * ixx, with no int64 temporary
        return fm

    def level_floor(self):
        """A lower bound for alex2 over all generators (relaxed assignment)."""
        return int(self.fa.min(axis=1).sum()) + self.alex_const

    def level_ceiling(self):
        """An upper bound for alex2 over all generators."""
        return int(self.fa.max(axis=1).sum()) + self.alex_const

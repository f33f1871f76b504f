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
generator point plus a grid constant, and maslov2 / 2 as such a sum plus
the count of increasing pairs.  The per-point tables are read off the
rectangle counter's prefix counts: with sw[c, r] the markings of one set
southwest of (c, r), a grid's one marking per row and per column puts
n - c - r + sw[c, r] of them weakly northeast, so the Alexander table
fa = 2 (sw_X - sw_O) is even by construction.  ``alex_terms`` and
``maslov_terms`` halve these tables into move terms, which the
enumeration module builds its completion tables from (caching them on
the calculator) and ``level_counts`` reads its levels and signs from.

The calculator is the one per-grid object below the entry points of
``homology`` and ``invariants``: it holds the grading tables, the
component count, the completion tables and the grid's RectangleCounter,
and every function beneath those entry points takes it in place of the
grid.  Gradings are read only in batches, over (m, n) arrays of
generators; ``tests/oracle.py`` recomputes both formulas by direct pair
counting.
"""

from __future__ import annotations

import numpy as np

from .grids import count_components
from .rectangles import RectangleCounter


class GradingCalculator:
    """Precomputed tables of one grid: the batch graders' per-point
    tables, the enumeration's completion tables and the rectangle
    counter."""

    def __init__(self, grid):
        n = grid.n
        self.n = n
        self.components = count_components(grid)
        self.rectangles = RectangleCounter(grid)

        # sw[c, r] counts the markings southwest of (c, r): column < c and
        # row < r.  One marking per row and per column makes the count
        # weakly northeast n - c - r + sw[c, r], and a marking set's
        # self-pairing I(O, O) the sum of sw at its own cells.
        rows = np.arange(n)
        o_sw = self.rectangles.o_prefix[:n, :n]
        x_sw = self.rectangles.x_prefix[:n, :n]
        i_oo = int(o_sw[grid.o_cols, rows].sum())
        i_xx = int(x_sw[grid.x_cols, rows].sum())

        # alex2(x) = sum_c fa[c, perm[c]] + alex_const
        self.fa = 2 * (x_sw - o_sw)
        self.alex_const = i_oo - i_xx - (n - self.components)

        # maslov2(x) = 2 I(x, x) + sum_c fm[c, perm[c]] + maslov_const
        self.fm = -2 * (n - rows[:, None] - rows + 2 * o_sw)
        self.maslov_const = 2 * i_oo + 2

        # Completion tables of the enumeration, built on first use.
        self.completion_tables = {}

    def alex2_batch(self, perms):
        """alex2 for an (m, n) array of permutations (any integer dtype)."""
        total = np.full(len(perms), self.alex_const, dtype=np.int64)
        for c in range(self.n):
            total += self.fa[c].take(perms[:, c])
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
            fm += self.fm[c1].take(col1)
        fm += ixx
        fm += ixx  # 2 * ixx, with no int64 temporary
        return fm

    def alex_terms(self):
        """The halved Alexander move terms: (shift, floor, width).

        Placing row r in column c adds fa[c][r] to alex2, and fa is even,
        so alex2 = floor + 2 sum_c shift[c][perm[c]], with shift >= 0
        and the sum below ``width``.  The enumeration's alex completion
        table and ``level_counts`` both index levels by that sum.
        """
        lo = self.fa.min(axis=1)
        shift = (self.fa - lo[:, None]) // 2
        return (shift, int(lo.sum()) + self.alex_const,
                int(shift.max(axis=1).sum()) + 1)

    def maslov_terms(self):
        """The halved Maslov move terms: (shift, base, width).

        Placing row r in column c after the rows of a mask adds fm[c][r]
        / 2 plus the mask's rows below r (the new increasing pairs) to
        maslov2 / 2, so maslov2 = base + 2 (sum_c shift[c][perm[c]] +
        increasing pairs), with shift >= 0 and the sum below ``width``.
        The enumeration's Maslov completion table and the signs of
        ``level_counts`` both read these terms.
        """
        half = self.fm // 2
        lo = half.min(axis=1)
        shift = half - lo[:, None]
        return (shift, 2 * int(lo.sum()) + self.maslov_const,
                int(shift.max(axis=1).sum()) + 1 + self.n * (self.n - 1) // 2)

    def level_floor(self):
        """A lower bound for alex2 over all generators (relaxed assignment)."""
        return self.alex_terms()[1]

    def level_ceiling(self):
        """An upper bound for alex2 over all generators."""
        return int(self.fa.max(axis=1).sum()) + self.alex_const

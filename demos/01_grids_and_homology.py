"""A walk through grid diagrams and their GF(2) link homology.

A grid diagram is an n x n board with one X and one O in every row and
every column, read on a torus.  Connecting X to O vertically and O to X
horizontally (vertical strands in front) draws a link.  This demo builds
a few small grids, computes their bigraded homology, and shows the two
structural facts everything else in the package leans on:

  * the "tilde" homology of an n x n grid of an l-component link is the
    "hat" invariant tensored with a rank-2 factor (n - l) times, so the
    hat table is recovered by exact division; and
  * the hat table does not depend on which grid presents the link.
"""

import numpy as np

from gridhfk.grids import format_grid, load_corpus, make_grid, mirror, count_components
from gridhfk.gradings import GradingCalculator
from gridhfk.homology import (
    BigradedRanks,
    build_level_complex,
    deflate_to_hat,
    inflate,
    verify_d2,
)
from gridhfk.invariants import hat_ranks, homology_ranks
from gridhfk.rectangles import MODE_LEVEL, boundary_entries


def art(grid):
    """Render the board, row 0 at the bottom (matrix convention reversed)."""
    lines = []
    for r in range(grid.n - 1, -1, -1):
        cells = ["." for _ in range(grid.n)]
        cells[grid.x_cols[r]] = "X"
        cells[grid.o_cols[r]] = "O"
        lines.append(" ".join(cells))
    return "\n".join(lines)


def show_table(ranks):
    for (m2, a2), r in sorted(ranks.ranks.items(), key=lambda kv: kv[0][::-1]):
        print(f"    Maslov {m2 / 2:+.1f}  Alexander {a2 / 2:+.1f}  rank {r}")


print("=" * 66)
print("1. The smallest grid: a 2 x 2 unknot")
print("=" * 66)
unknot = load_corpus("unknot2")
print(art(unknot))
print("\nOn disk this is three lines (column of X in each row, then O):\n")
print(format_grid(unknot))

print("A generator is a permutation: one dot on each grid line crossing.")
calc = GradingCalculator(unknot)
perms = np.array([(0, 1), (1, 0)])
for perm, m2, a2 in zip(perms.tolist(), calc.maslov2_batch(perms),
                        calc.alex2_batch(perms)):
    print(f"  generator {tuple(perm)}: Maslov {m2 / 2:+.1f}, Alexander {a2 / 2:+.1f}"
          "  (stored doubled, so every grading is an integer)")

print("\nThe boundary map counts empty rectangles; it squares to zero:")
for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
    lc = build_level_complex(calc, a2)
    rows, cols = boundary_entries(calc.rectangles, lc.gens, lc.gens, MODE_LEVEL)
    verify_d2(rows, cols, lc.size)  # raises if the structure is broken
    print(f"  Alexander level {a2 / 2:+.1f}: {lc.size} generators, d^2 = 0  ok")

print("\nFull tilde homology of the 2 x 2 unknot:")
tilde = homology_ranks(unknot)
show_table(tilde)

print("""
That is the hat invariant of the unknot (one class at (0, 0)) tensored
with one rank-2 factor, because the grid carries n - l = 2 - 1 = 1 row
beyond the minimum.  Bigger unknot grids pick up one factor per row:
""")
one_class = BigradedRanks({(0, 0): 1})
for n in range(2, 6):
    t = homology_ranks(load_corpus(f"unknot{n}"))
    assert t == inflate(one_class, n - 1)
    print(f"  {n} x {n} unknot: total tilde rank {t.total_rank():3d} = 2^{n - 1}")

print()
print("=" * 66)
print("2. The trefoil, and why grid size does not matter")
print("=" * 66)
tre5 = load_corpus("trefoil5")
tre6 = load_corpus("trefoil6")
print(art(tre5))
hat5 = deflate_to_hat(homology_ranks(tre5), tre5.n - 1)
hat6 = deflate_to_hat(homology_ranks(tre6), tre6.n - 1)
assert hat5 == hat6
print("\nHat table from the 5 x 5 grid (identical from the 6 x 6 one):")
show_table(hat5)
assert hat_ranks(tre5) == hat5
print(f"\n  hat_ranks() returns this table as it builds it (homology_ranks()"
      f" is it inflated): total rank {hat_ranks(tre5).total_rank()}.")

print()
print("=" * 66)
print("3. Mirrors reflect the table")
print("=" * 66)
print("""Reversing the columns mirrors the link.  The hat table reflects
through the origin, with an extra Maslov shift of -(l-1) for an
l-component link (zero for knots):""")
for name in ("trefoil5", "hopf_plus4"):
    g = load_corpus(name)
    l = count_components(g)
    print(f"\n  {name} ({l} component{'s' if l > 1 else ''}) mirrored:")
    show_table(hat_ranks(mirror(g)))

print("""
The positive Hopf link's mirror is the negative one; compare
hat_ranks(load_corpus("hopf_minus4")) with the table above.

Build your own grid with make_grid(x_cols, o_cols); every structural
rule (permutations, no X on top of O) is validated on construction:
""")
custom = make_grid([2, 0, 3, 1], [0, 3, 1, 2])
print(art(custom))
print(f"\n  components: {count_components(custom)}; "
      f"total hat rank {hat_ranks(custom).total_rank()}")

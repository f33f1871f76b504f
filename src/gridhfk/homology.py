"""Level complexes, bigraded homology ranks, and τ's filtration window.

The entry points ``homology_ranks`` and ``induced_map_rank`` take a
grid and build its one GradingCalculator; everything below them,
``walk_levels``, ``build_level_complex``, ``build_two_step`` and
``induced_map_ranks`` included, takes that calculator, whose completion
tables and rectangle counts they share.  A boundary's target basis is
passed as an array of generators.

The level complex at doubled Alexander grading s is spanned by the
generators of that level with the boundary counting rectangles empty of
all markings; it splits along maslov2 into blocks mapping m2 -> m2 - 2,
so ranks per bigrading fall out of one sparse elimination per block,
the rank out of it (``_block_ranks``, which τ's window shares).

The full table is built from the bottom tail of levels.  The tilde
homology is the hat tensored with (F2 + F2[-1,-1])^k, k = n - l, so
tilde level s involves only hat levels s .. s + 2k, and dividing the
tilde levels s <= -2k by (1 + mt)^k from the bottom gives every hat
level a2 <= 0.  The hat symmetry HFK_d(a) = HFK_{d-2a}(-a), in doubled
units (m2, a2) <-> (m2 - 2 a2, -a2), gives the levels a2 > 0, and the
tilde table is the hat inflated.

One walk, ``walk_levels``, builds the levels of both tails: the table's
and that of the bottom scan in ``invariants``.  It takes (alex2,
generators or None) in increasing alex2, builds each level complex,
gives each enumeration the budget the levels before it left, computes
the level's ranks and checks its signed generator count against their
signed sum.  The table hands it its tail split by alex2 from one pass
of ``generators_up_to``; the subset DP ``level_counts`` sizes that tail
against the budget beforehand, reports every level's count, and gives
each level's Euler characteristic, which the finished table must match
on every call.  No level above the tail is enumerated or graded.  The
bottom scan hands it one level at a time and stops at the first with
homology, so it enumerates just the levels it visits.

The filtered boundary (X markings allowed) never raises alex2, so the
generators at or below a cutoff span a subcomplex, τ's window.  It is
held as a LevelComplex whose alex2 is the cutoff and whose boundary is
the filtered one.  ``two_step_from_levels`` joins walked levels into the
window up to the last of them: each level after the first adds its
filtered boundary into the levels before it, from one rectangle pass
with those levels as targets, made only when τ runs.  On the one-level
tails of simplified grids there is no such pass.  ``build_two_step``
builds the window for any cutoff from the generators up to it, in one
pass, and the tests hold the two to each other.  Either way the window
holds every generator at or below its alex2, so membership is a grading
test: a generator of the full complex lies outside exactly when its
alex2 is above the window's.  The rank of the map on homology induced by
the inclusion is computed per Maslov slice as

    dim Z_S - dim(B  intersect  S),   B the image of the full boundary,

which is dim Z_S - dim(Z_S intersect B): S is a subcomplex and the
boundary squares to zero, so a boundary lying in S is a cycle of S.
Both terms are ranks.  dim Z_S is the window block's size less the rank
out of it, from the same block ranks as the level tables, and
dim(B intersect S) counts the pivots of one elimination of the image
whose bit order lists the window's generators first.  Slices
outside the Maslov window [-2(n-1), 0] are skipped: the total homology
of the filtered complex is (F2 + F2[-1]) to the (n-1), so the target
vanishes there and the induced map contributes nothing.  Every
slice's term is non-negative, so ``induced_map_ranks`` yields them one
at a time, lowest slice first, and a caller that needs only whether the
rank is positive stops at the first positive term.  The full complex is
read one slice pair (m2, m2 + 2) at a time, when the slice is reached,
enumerated straight from the Maslov completion table, so time and
memory scale with the slices visited and not with n!.
"""

from __future__ import annotations

# Unused here, but perfbench's traced run swaps this name in this module
# for a pool that propagates spans; it raises KeyError when it is missing.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import GridResourceError, InconsistentComplex, NotDivisible
from .generators import (
    DEFAULT_MAX_GENERATORS,
    # Unused here, but perfbench's traced run wraps this name in this module.
    enumerate_all,  # noqa: F401
    generators_in_level,
    generators_up_to,
    graded_generators,
    level_counts,
)
from .gradings import GradingCalculator
from .rectangles import MODE_FILTERED, MODE_LEVEL, boundary_entries


@dataclass
class LevelComplex:
    """One Alexander level with its level-preserving boundary, or τ's
    window: the generators at or below alex2 with the filtered boundary."""

    alex2: int
    gens: np.ndarray          # (m, n) permutations, canonical order
    maslov2: np.ndarray       # (m,)
    rows: np.ndarray          # boundary entries: target indices
    cols: np.ndarray          # boundary entries: source indices

    @property
    def size(self):
        return len(self.gens)

    @property
    def is_empty(self):
        return len(self.gens) == 0


def _canonical(calc, gens):
    """Lexicographic ``gens`` sorted by maslov2, keeping that order within
    each slice; returns (gens, maslov2)."""
    m2 = calc.maslov2_batch(gens)
    order = np.argsort(m2, kind="stable")
    return gens[order], m2[order]


def build_level_complex(calc, alex2, max_generators=DEFAULT_MAX_GENERATORS,
                        gens=None):
    """The level complex at alex2 of the calculator's grid.

    ``gens``, when given, are all int64 generators of that level in
    lexicographic order, and enumeration is skipped.
    """
    if gens is None:
        gens = generators_in_level(calc, alex2, max_generators)
    gens, m2 = _canonical(calc, gens)
    rows, cols = boundary_entries(calc.rectangles, gens, gens, MODE_LEVEL)
    return LevelComplex(alex2=alex2, gens=gens, maslov2=m2, rows=rows,
                        cols=cols)


def verify_d2(rows, cols, size):
    """Raise InconsistentComplex unless the sparse boundary squares to zero.

    The entries are sorted by source, so the entries out of every middle
    generator form one run; each entry (mid, c) is composed with the run
    out of mid, and the products are counted per (c, target) mod 2.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) == 0:
        return
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    lo = np.searchsorted(cols, rows, side="left")
    run = np.searchsorted(cols, rows, side="right") - lo
    # Position of each product in the run out of its middle generator.
    ends = np.cumsum(run)
    offset = np.arange(ends[-1]) - np.repeat(ends - run, run)
    targets = rows[np.repeat(lo, run) + offset]
    pairs = np.repeat(cols, run) * size + targets
    pairs, counts = np.unique(pairs, return_counts=True)
    odd = pairs[counts % 2 == 1]
    if len(odd):
        raise InconsistentComplex(f"d^2 != 0 from generator {int(odd[0]) // size}")


def _block_ranks(lc):
    """{maslov2: (block size, rank of the boundary out of the block)}, in
    increasing maslov2, of a complex whose boundary lowers maslov2 by 2.

    ``lc.maslov2`` must be sorted, so each block is a contiguous run of
    generators.  The entries are bucketed by source block with one stable
    sort, their sources counted from the start of the block and their
    targets from the start of block m2 - 2, and every block with entries
    is one ``gf2.matrix_rank``.
    """
    values, starts, sizes = np.unique(lc.maslov2, return_index=True,
                                      return_counts=True)
    src_block = np.searchsorted(values, lc.maslov2[lc.cols])
    order = np.argsort(src_block, kind="stable")
    src_block = src_block[order]
    tgt_block = np.searchsorted(values, values[src_block] - 2)
    cols = lc.cols[order] - starts[src_block]
    rows = lc.rows[order] - starts[tgt_block]
    bounds = np.searchsorted(src_block, np.arange(len(values) + 1)).tolist()
    blocks = {}
    for i, (m2, size) in enumerate(zip(values.tolist(), sizes.tolist())):
        lo, hi = bounds[i], bounds[i + 1]
        out = 0
        if hi > lo:
            out = gf2.matrix_rank(rows[lo:hi], cols[lo:hi],
                                  int(sizes[tgt_block[lo]]), size)
        blocks[m2] = (size, out)
    return blocks


def level_homology_ranks(lc):
    """Homology ranks of one level complex, keyed by maslov2.

    The boundary maps the maslov2 = m block into m - 2; the rank at m is
    dim(block) - rank(out of m) - rank(out of m + 2).
    """
    blocks = _block_ranks(lc)
    ranks = {}
    for m2, (size, out) in blocks.items():
        r = size - out - blocks.get(m2 + 2, (0, 0))[1]
        if r:
            ranks[m2] = r
    return ranks


def _check_level_euler(lc, ranks):
    """Raise InconsistentComplex unless the level's signed generator count
    equals the signed sum of its homology ranks."""
    count = int((1 - 2 * (lc.maslov2 // 2 % 2)).sum())
    euler = sum(-r if m2 // 2 % 2 else r for m2, r in ranks.items())
    if count != euler:
        raise InconsistentComplex(
            f"Euler characteristic {euler} at alex2 = {lc.alex2} differs "
            f"from the signed generator count {count}")


def walk_levels(calc, levels, max_generators=DEFAULT_MAX_GENERATORS):
    """Build, rank and check the levels of a tail, lowest first.

    ``levels`` yields (alex2, gens) in increasing alex2, ``gens`` being
    the level's generators, or None to enumerate them.  Yields
    (LevelComplex, ranks keyed by maslov2) per level once the level's
    signed generator count has matched the signed sum of its ranks.
    Each enumeration is given the budget that the levels before it left,
    so a tail over ``max_generators`` raises GridResourceError before its
    last level is allocated or any of its rectangles is counted.
    """
    seen = 0
    for s, gens in levels:
        try:
            lc = build_level_complex(calc, s, max_generators - seen, gens)
        except GridResourceError as exc:
            size = seen + exc.estimate
            raise GridResourceError(
                f"the levels up to {s} hold at least {size} generators, "
                f"over the budget {max_generators}", estimate=size) from None
        seen += lc.size
        ranks = level_homology_ranks(lc)
        _check_level_euler(lc, ranks)
        yield lc, ranks


@dataclass
class BigradedRanks:
    """Nonzero homology ranks keyed by (maslov2, alex2)."""

    ranks: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ranks = {k: int(v) for k, v in self.ranks.items() if v}
        for (m2, a2), v in self.ranks.items():
            if v < 0:
                raise ValueError(f"negative rank {v} at {(m2, a2)}")

    def total_rank(self):
        return sum(self.ranks.values())

    def alex_levels(self):
        return sorted({a2 for _, a2 in self.ranks})


def inflate(hat, k_minus_l):
    """Tensor with (F2 + F2[-1,-1]) repeatedly: the tilde from the hat."""
    ranks = dict(hat.ranks)
    for _ in range(k_minus_l):
        out = {}
        for (m2, a2), v in ranks.items():
            out[(m2, a2)] = out.get((m2, a2), 0) + v
            out[(m2 - 2, a2 - 2)] = out.get((m2 - 2, a2 - 2), 0) + v
        ranks = out
    return BigradedRanks(ranks)


def deflate_to_hat(tilde, k_minus_l, top=None):
    """Exact division by (1 + mt) to the (k - l): the hat from the tilde.

    Peels terms from the bottom in (alex2, maslov2) order: the lowest
    remaining coefficient c at (m2, a2) is the quotient's coefficient at
    (m2 + 2, a2 + 2), and c is taken off the term there; a negative
    coefficient raises NotDivisible.  The quotient sits where the
    top-aligned division would put it.  ``top``, when given, says the
    tilde ranks are known only at alex2 <= top: each division then
    yields the quotient at alex2 <= top + 2, so the result is the hat
    at alex2 <= top + 2(k - l).
    """
    ranks = dict(tilde.ranks)
    for _ in range(k_minus_l):
        quotient = {}
        rem = {k: v for k, v in ranks.items() if v}
        while rem:
            key = min(rem, key=lambda k: (k[1], k[0]))
            coeff = rem.pop(key)
            if coeff < 0:
                raise NotDivisible("bigraded ranks are not divisible by (1 + mt)")
            upper = (key[0] + 2, key[1] + 2)
            quotient[upper] = coeff
            if top is None or upper[1] <= top:
                rem[upper] = rem.get(upper, 0) - coeff
                if rem[upper] == 0:
                    del rem[upper]
        ranks = quotient
        if top is not None:
            top += 2
    return BigradedRanks(ranks)


def homology_ranks(grid, max_generators=DEFAULT_MAX_GENERATORS,
                   level_sizes=None):
    """Tilde homology ranks of every level, from the bottom tail of levels.

    With k = n - l, the tilde levels alex2 <= -2k are built and divided
    by (1 + mt)^k from the bottom, which gives every hat level
    alex2 <= 0; the symmetry (m2, a2) <-> (m2 - 2 a2, -a2) of the hat
    gives the rest, and the result is the hat inflated.  The tail is
    enumerated in one pass after ``level_counts`` has checked its size
    against the budget, and ``walk_levels`` builds, ranks and checks its
    levels; no level above it is graded.  The Euler characteristic of
    every level of the result must equal the signed count from
    ``level_counts``, or InconsistentComplex is raised.  ``level_sizes``,
    when given, is a dict that receives the number of generators of
    every non-empty level, in increasing alex2.
    """
    calc = GradingCalculator(grid)
    k = calc.n - calc.components
    levels = level_counts(calc)
    if level_sizes is not None:
        level_sizes.update((s, count) for s, (count, _) in levels.items())
    tail = [s for s in levels if s <= -2 * k]
    size = sum(levels[s][0] for s in tail)
    if size > max_generators:
        raise GridResourceError(
            f"the {size} generators of the levels up to {-2 * k} exceed "
            f"the budget {max_generators}", estimate=size)
    gens = generators_up_to(calc, -2 * k, max_generators)
    alex2 = calc.alex2_batch(gens)
    walk = walk_levels(calc, ((s, gens[alex2 == s]) for s in tail),
                       max_generators)
    ranks = {(m2, lc.alex2): r for lc, level in walk
             for m2, r in level.items()}
    hat = deflate_to_hat(BigradedRanks(ranks), k, top=-2 * k).ranks
    hat.update({(m2 - 2 * a2, -a2): r for (m2, a2), r in hat.items()
                if a2 < 0})
    tilde = inflate(BigradedRanks(hat), k)
    euler = dict.fromkeys(levels, 0)
    for (m2, a2), r in tilde.ranks.items():
        euler[a2] = euler.get(a2, 0) + (-r if m2 // 2 % 2 else r)
    for s, e in euler.items():
        want = levels.get(s, (0, 0))[1]
        if e != want:
            raise InconsistentComplex(
                f"Euler characteristic {e} at alex2 = {s} differs from the "
                f"signed generator count {want}")
    return tilde


def build_two_step(calc, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """τ's window at the cutoff: the generators at or below it with the
    filtered boundary."""
    gens = generators_up_to(calc, cutoff_alex2, max_generators)
    gens, m2 = _canonical(calc, gens)
    rows, cols = boundary_entries(calc.rectangles, gens, gens, MODE_FILTERED)
    return LevelComplex(alex2=cutoff_alex2, gens=gens, maslov2=m2, rows=rows,
                        cols=cols)


def two_step_from_levels(calc, levels):
    """τ's window spanned by the level complexes of a tail, lowest first,
    as ``walk_levels`` yields them: every non-empty level up to the last
    one, so ``build_two_step`` at the last level's alex2.

    Each level brings its level boundary, and each level after the first
    its filtered boundary into the levels before it, from one rectangle
    pass with those levels as the targets (a rectangle with no X inside
    keeps alex2, so it misses them).  The levels are joined in their
    order and re-sorted by maslov2 (stable) into canonical order.
    """
    gens = np.concatenate([lc.gens for lc in levels])
    rows, cols = [], []
    start = 0
    for lc in levels:
        rows.append(lc.rows + start)
        cols.append(lc.cols + start)
        if start:
            down_rows, down_cols = boundary_entries(
                calc.rectangles, lc.gens, gens[:start], MODE_FILTERED)
            rows.append(down_rows)
            cols.append(down_cols + start)
        start += lc.size
    m2 = np.concatenate([lc.maslov2 for lc in levels])
    order = np.argsort(m2, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return LevelComplex(alex2=levels[-1].alex2, gens=gens[order],
                        maslov2=m2[order], rows=position[np.concatenate(rows)],
                        cols=position[np.concatenate(cols)])


def induced_map_ranks(calc, filt, max_generators=DEFAULT_MAX_GENERATORS):
    """Per-slice terms of the rank of H(sub) -> H(full), lowest slice first.

    ``filt`` is the window of the subcomplex, on the grid of the
    calculator: every generator at or below ``filt.alex2``, as
    ``build_two_step`` and ``two_step_from_levels`` build it.

    Yields, for every needed Maslov slice m2 in increasing order, the
    number dim Z_S - dim(B meet S) >= 0, where Z_S is the cycle space
    of the subcomplex in slice m2 and B the image of the full filtered
    boundary from slice m2 + 2; the rank is their sum.  A boundary in S
    is a cycle of S, so B meet S is Z_S meet B.  dim Z_S is the window
    block's size less its rank, and dim(B meet S) the number of image
    pivots under the prefix of window generators.  The needed m2 are
    those where Z_S is nonzero and the target homology can be nonzero.
    A slice's generators, and those of the slice m2 + 2 above it, are
    enumerated only when the slice is reached, so a consumer that stops
    early never lists the slices above, and the budget bounds the slices
    visited and not n!.
    """
    window_lo = -2 * (calc.n - 1)
    for m2, (size, out) in _block_ranks(filt).items():
        if size == out or not window_lo <= m2 <= 0:
            continue
        pair = graded_generators(calc, "maslov", {m2, m2 + 2}, max_generators)
        pair_m2 = calc.maslov2_batch(pair)
        # The full slice at m2 with the window's generators first (low bits).
        slice_gens = pair[pair_m2 == m2]
        inside = calc.alex2_batch(slice_gens) <= filt.alex2
        basis = np.concatenate([slice_gens[inside], slice_gens[~inside]])

        sources = pair[pair_m2 == m2 + 2]
        rows, cols = boundary_entries(calc.rectangles, sources, basis,
                                      MODE_FILTERED)
        meet = gf2.image_in_prefix(rows, cols, len(basis), len(sources), size)
        yield size - out - len(meet)


def induced_map_rank(grid, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """Rank of H(sub) -> H(full) for the subcomplex of the generators at
    or below the cutoff: the sum of ``induced_map_ranks`` over every
    needed Maslov slice."""
    calc = GradingCalculator(grid)
    filt = build_two_step(calc, cutoff_alex2, max_generators)
    return sum(induced_map_ranks(calc, filt, max_generators))

"""Level complexes, bigraded homology ranks, and τ's filtration window.

The entry point ``induced_map_rank`` takes a grid and builds its one
GradingCalculator; everything below it,
``walk_levels``, ``build_level_complex``, ``build_two_step`` and
``induced_map_ranks`` included, takes that calculator, whose completion
tables and rectangle counts they share.  A boundary's target basis is
passed as an array of generators.

The level complex at doubled Alexander grading s is spanned by the
generators of that level with the boundary counting rectangles empty of
all markings.  Every rectangle lowers maslov2 by exactly 2, so the
complex splits along maslov2 into blocks mapping m2 -> m2 - 2, and a
level is held as its blocks: one (size, rank out) per block, each rank
from one rectangle pass with block m2 - 2 as the targets and one sparse
elimination (``_block_ranks``, which τ's window shares).  No entry
outlives its block pair, so memory follows the largest block pair, not
the level.

One walk, ``walk_levels``, builds the levels of both tails in
``invariants``: the hat table's and the bottom scan's.  It takes
(alex2, generators or None) in increasing alex2, builds each level
complex, gives each enumeration the budget the levels before it left,
and computes the level's ranks.  A rank is a block's size less the
ranks out of it and into it, so a boundary rank counted too high shows
as a negative homology rank, and ``level_homology_ranks`` raises
InconsistentComplex on one.  The table hands the walk its tail split
by the alex2 it was enumerated by; the bottom scan hands it one level
at a time and stops at the first with homology, so it enumerates just
the levels it visits.

The filtered boundary (X markings allowed) never raises alex2, so the
generators at or below a cutoff span a subcomplex, τ's window.  It is
held as a LevelComplex whose alex2 is the cutoff and whose blocks are
ranked with the filtered boundary, by the same block loop, only inside
the Maslov window [-2(n-1), 0] that τ reads.  ``build_two_step`` builds
the window for any cutoff from the generators up to it.
``two_step_from_levels`` builds it from the walked levels of a tail:
a one-level tail is its level, since nothing lies below the lowest
level and a rectangle through an X leaves the window, so τ reuses the
level's ranks and counts no rectangle for them; a longer tail joins its
levels' generators and ranks its window blocks only when τ runs.  The
tests hold the two builders to each other.  Either way the window holds
every generator at or below its alex2, so membership is a grading test:
a generator of the full complex lies outside exactly when its alex2 is
above the window's.  The rank of the map on homology induced by the
inclusion is computed per Maslov slice as

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
slice's term is non-negative, and a negative one raises
InconsistentComplex, so ``induced_map_ranks`` yields them one at a
time, lowest slice first, and a caller that needs only whether the rank
is positive stops at the first positive term.  The full complex is read
one slice pair (m2, m2 + 2) at a time, when the slice is reached,
enumerated straight from the Maslov completion table together with the
maslov2 of each generator, so time and memory scale with the slices
visited and not with n!.
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
)
from .gradings import GradingCalculator
from .rectangles import MODE_FILTERED, MODE_LEVEL, boundary_entries


@dataclass
class LevelComplex:
    """One Alexander level with the block ranks of its level-preserving
    boundary, or τ's window: the generators at or below alex2 with the
    block ranks of the filtered boundary.

    ``blocks`` maps each ranked maslov2, in increasing order, to (block
    size, rank of the boundary out of the block).  A level ranks every
    block, a window built from generators only those of the Maslov window
    [-2(n - 1), 0]."""

    alex2: int
    gens: np.ndarray          # (m, n) permutations, canonical order
    maslov2: np.ndarray       # (m,), sorted
    blocks: dict              # {maslov2: (size, rank out)}

    @property
    def size(self):
        return len(self.gens)

    @property
    def is_empty(self):
        return len(self.gens) == 0


def _complex(calc, alex2, gens, m2, mode, lo=float("-inf"), hi=float("inf")):
    """The LevelComplex of ``gens`` with the boundary of ``mode``, its
    generators sorted by maslov2 (stable, so each slice keeps the order
    given) and its blocks ranked from lo to hi."""
    order = np.argsort(m2, kind="stable")
    gens, m2 = gens[order], m2[order]
    return LevelComplex(alex2=alex2, gens=gens, maslov2=m2,
                        blocks=_block_ranks(calc, gens, m2, mode, lo, hi))


def build_level_complex(calc, alex2, max_generators=DEFAULT_MAX_GENERATORS,
                        gens=None):
    """The level complex at alex2 of the calculator's grid.

    ``gens``, when given, are all generators of that level, as an
    integer array in lexicographic order, and enumeration is skipped.
    """
    if gens is None:
        gens = generators_in_level(calc, alex2, max_generators)
    return _complex(calc, alex2, gens, calc.maslov2_batch(gens), MODE_LEVEL)


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


def _block_ranks(calc, gens, m2, mode, lo=float("-inf"), hi=float("inf")):
    """{maslov2: (block size, rank of the boundary out of the block)}, in
    increasing maslov2, of the generators ``gens`` sorted by ``m2``.

    Every rectangle lowers maslov2 by exactly 2, so the boundary out of
    block m lands in block m - 2.  Each block with lo <= maslov2 <= hi
    is listed, and ranked, when a block two below it exists, by one
    ``boundary_entries`` pass with that block as the targets and one
    ``gf2.matrix_rank`` of the entries found.  The entries are dropped
    once ranked, so memory follows the largest block pair.
    """
    values, starts, sizes = np.unique(m2, return_index=True,
                                      return_counts=True)
    runs = {m: gens[start:start + size] for m, start, size
            in zip(values.tolist(), starts.tolist(), sizes.tolist())}
    blocks = {}
    for m, sources in runs.items():
        if not lo <= m <= hi:
            continue
        targets = runs.get(m - 2)
        out = 0
        if targets is not None:
            rows, cols = boundary_entries(calc.rectangles, sources, targets,
                                          mode)
            if len(rows):
                out = gf2.matrix_rank(rows, cols, len(targets), len(sources))
        blocks[m] = (len(sources), out)
    return blocks


def level_homology_ranks(lc):
    """Homology ranks of one level complex, keyed by maslov2.

    The boundary maps the maslov2 = m block into m - 2; the rank at m is
    dim(block) - rank(out of m) - rank(out of m + 2).  A negative rank,
    which a boundary rank counted too high gives, raises
    InconsistentComplex.
    """
    ranks = {}
    for m2, (size, out) in lc.blocks.items():
        r = size - out - lc.blocks.get(m2 + 2, (0, 0))[1]
        if r < 0:
            raise InconsistentComplex(f"negative homology rank {r} at "
                                      f"(maslov2, alex2) = ({m2}, {lc.alex2})")
        if r:
            ranks[m2] = r
    return ranks


def walk_levels(calc, levels, max_generators=DEFAULT_MAX_GENERATORS):
    """Build and rank the levels of a tail, lowest first.

    ``levels`` yields (alex2, gens) in increasing alex2, ``gens`` being
    the level's generators, or None to enumerate them.  Yields
    (LevelComplex, ranks keyed by maslov2) per level.  Each enumeration
    is given the budget that the levels before it left, so a tail over
    ``max_generators`` raises GridResourceError before its last level is
    allocated or any of its rectangles is counted.
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
        yield lc, level_homology_ranks(lc)


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


def _window(calc, alex2, gens, m2):
    """τ's window at alex2 spanned by ``gens``, every generator at or
    below it: the filtered boundary's ranks on the Maslov window blocks."""
    return _complex(calc, alex2, gens, m2, MODE_FILTERED,
                    -2 * (calc.n - 1), 0)


def build_two_step(calc, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """τ's window at the cutoff: the generators at or below it with the
    filtered boundary."""
    gens = generators_up_to(calc, cutoff_alex2, max_generators)
    return _window(calc, cutoff_alex2, gens, calc.maslov2_batch(gens))


def two_step_from_levels(calc, levels):
    """τ's window spanned by the level complexes of a tail, lowest first,
    as ``walk_levels`` yields them: every non-empty level up to the last
    one, so ``build_two_step`` at the last level's alex2.

    A one-level tail is its level: nothing lies below the lowest level,
    so a rectangle through an X leaves the window and the filtered
    boundary inside it is the level boundary.  A longer tail joins its
    levels' generators and ranks the filtered boundary on them.
    """
    if len(levels) == 1:
        return levels[0]
    return _window(calc, levels[-1].alex2,
                   np.concatenate([lc.gens for lc in levels]),
                   np.concatenate([lc.maslov2 for lc in levels]))


def induced_map_ranks(calc, filt, max_generators=DEFAULT_MAX_GENERATORS):
    """Per-slice terms of the rank of H(sub) -> H(full), lowest slice first.

    ``filt`` is the window of the subcomplex, on the grid of the
    calculator: every generator at or below ``filt.alex2``, as
    ``build_two_step`` and ``two_step_from_levels`` build it.  Only its
    blocks inside the Maslov window [-2(n - 1), 0] are read.

    Yields, for every needed Maslov slice m2 in increasing order, the
    number dim Z_S - dim(B meet S) >= 0 (InconsistentComplex when it is
    negative), where Z_S is the cycle space of the subcomplex in slice
    m2 and B the image of the full filtered boundary from slice m2 + 2;
    the rank is their sum.  A boundary in S
    is a cycle of S, so B meet S is Z_S meet B.  dim Z_S is the window
    block's size less its rank, and dim(B meet S) the number of image
    pivots under the prefix of window generators.  The needed m2 are
    those where Z_S is nonzero and the target homology can be nonzero.
    A slice's generators, and those of the slice m2 + 2 above it, are
    enumerated only when the slice is reached, so a consumer that stops
    early never lists the slices above, and the budget bounds the slices
    visited and not n!.
    """
    lo = -2 * (calc.n - 1)
    for m2, (size, out) in filt.blocks.items():
        if not lo <= m2 <= 0 or size == out:
            continue
        pair, pair_m2 = graded_generators(calc, "maslov", {m2, m2 + 2},
                                          max_generators)
        # The full slice at m2 with the window's generators first (low bits).
        slice_gens = pair[pair_m2 == m2]
        inside = calc.alex2_batch(slice_gens) <= filt.alex2
        basis = np.concatenate([slice_gens[inside], slice_gens[~inside]])

        sources = pair[pair_m2 == m2 + 2]
        rows, cols = boundary_entries(calc.rectangles, sources, basis,
                                      MODE_FILTERED)
        meet = gf2.image_in_prefix(rows, cols, len(basis), len(sources), size)
        if len(meet) > size - out:
            raise InconsistentComplex(f"negative slice term at maslov2 = {m2}")
        yield size - out - len(meet)


def induced_map_rank(grid, cutoff_alex2, max_generators=DEFAULT_MAX_GENERATORS):
    """Rank of H(sub) -> H(full) for the subcomplex of the generators at
    or below the cutoff: the sum of ``induced_map_ranks`` over every
    needed Maslov slice."""
    calc = GradingCalculator(grid)
    filt = build_two_step(calc, cutoff_alex2, max_generators)
    return sum(induced_map_ranks(calc, filt, max_generators))

"""Frozen invariant values for the bundled corpus, plus structural laws.

Every frozen dictionary below was computed independently by the
enumeration oracle in ``tests/oracle.py`` and agrees with published
rank tables for these links; the tests pin the library to those values.
Grading pairs are written (maslov2, alex2) in doubled coordinates.
"""

import dataclasses
import io
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gridhfk import homology, invariants
from gridhfk.cli import run
from gridhfk.errors import (
    GridResourceError,
    InconsistentComplex,
    NotAKnot,
    NotDivisible,
)
from gridhfk.grids import (
    connected_sum,
    count_components,
    load_corpus,
    load_grid,
    make_grid,
    mirror,
    simplify,
)
from gridhfk.generators import graded_levels
from gridhfk.gradings import GradingCalculator
from gridhfk.homology import (
    BigradedRanks,
    build_two_step,
    deflate_to_hat,
    induced_map_ranks,
    inflate,
    two_step_from_levels,
    walk_levels,
)
from gridhfk.invariants import (
    ExtremalGroup,
    alexander_polynomial,
    bottom_group,
    genus2,
    hat_ranks,
    homology_ranks,
    scan_bottom,
    state_sum,
    tau_bot_is_minus_g,
    tau_top_is_g,
    top_group,
)
from gridhfk.polynomials import LaurentPoly
from gridhfk.rectangles import MODE_FILTERED, boundary_entries

from oracle import (
    oracle_bottom_group,
    oracle_components,
    oracle_hat_ranks,
    oracle_inclusion_rank,
)
from test_grids import random_grid


@lru_cache(maxsize=None)
def corpus(name):
    return load_corpus(name)


# A 3-component link whose τ_bot flag is False and answered by no
# certificate.
UNCERTIFIED = make_grid([1, 0, 5, 4, 2, 6, 3], [0, 1, 3, 6, 5, 4, 2])


HAT = {
    "unknot2": {(0, 0): 1},
    "unknot3": {(0, 0): 1},
    "unknot4": {(0, 0): 1},
    "unknot5": {(0, 0): 1},
    "hopf_plus4": {(-4, -2): 1, (-2, 0): 2, (0, 2): 1},
    "hopf_minus4": {(-2, -2): 1, (0, 0): 2, (2, 2): 1},
    "trefoil5": {(-4, -2): 1, (-2, 0): 1, (0, 2): 1},
    "trefoil_left5": {(0, -2): 1, (2, 0): 1, (4, 2): 1},
    "trefoil6": {(-4, -2): 1, (-2, 0): 1, (0, 2): 1},
    "figure_eight6": {(-2, -2): 1, (0, 0): 3, (2, 2): 1},
    "knot_5_2_7": {(-4, -2): 2, (-2, 0): 3, (0, 2): 2},
    "torus_2_5_7": {
        (-8, -4): 1, (-6, -2): 1, (-4, 0): 1, (-2, 2): 1, (0, 4): 1,
    },
}

GENUS2 = {
    "unknot2": 0, "unknot5": 0,
    "hopf_plus4": 2, "hopf_minus4": 2,
    "trefoil5": 2, "trefoil_left5": 2, "trefoil6": 2,
    "figure_eight6": 2, "knot_5_2_7": 2, "torus_2_5_7": 4,
}

# (tau_bot_is_minus_g, tau_top_is_g)
TAU_FLAGS = {
    "unknot2": (True, True),
    "unknot5": (True, True),
    "hopf_plus4": (False, True),
    "hopf_minus4": (True, False),
    "trefoil5": (False, True),
    "trefoil_left5": (True, False),
    "trefoil6": (False, True),
    "figure_eight6": (False, False),
    "knot_5_2_7": (False, True),
    "torus_2_5_7": (False, True),
}

ALEXANDER = {
    "unknot3": {0: 1},
    "trefoil5": {-1: 1, 0: -1, 1: 1},
    "trefoil_left5": {-1: 1, 0: -1, 1: 1},
    "trefoil6": {-1: 1, 0: -1, 1: 1},
    "figure_eight6": {-1: -1, 0: 3, 1: -1},
    "knot_5_2_7": {-1: 2, 0: -3, 1: 2},
    "torus_2_5_7": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
}


# --------------------------------------------------------------------------
# hat homology


def test_hat_ranks_match_frozen_tables():
    for name, want in HAT.items():
        assert hat_ranks(corpus(name)).ranks == want, name


def test_hat_is_stabilization_invariant():
    assert hat_ranks(corpus("trefoil5")) == hat_ranks(corpus("trefoil6"))
    tower = [hat_ranks(corpus(f"unknot{n}")) for n in range(2, 6)]
    assert all(h == tower[0] for h in tower)


def test_unknot_tower_tilde_totals():
    for n in range(2, 6):
        assert homology_ranks(corpus(f"unknot{n}")).total_rank() == 2 ** (n - 1)


def test_tilde_table_is_the_hat_inflated_once(monkeypatch):
    """The tilde table is the hat inflated, the very table whose Euler
    characteristics were checked: one product per call."""
    right = invariants.inflate
    calls = []

    def counted(*args):
        calls.append(args)
        return right(*args)

    monkeypatch.setattr(invariants, "inflate", counted)
    for name in ("trefoil5", "hopf_plus4", "knot_5_2_7"):
        g = corpus(name)
        calls.clear()
        tilde = homology_ranks(g)
        assert len(calls) == 1, name
        k = g.n - count_components(g)
        assert tilde == right(hat_ranks(g), k), name
        assert len(calls) == 2, name


def test_mirror_reflects_hat_ranks():
    """Mirror duality reflects both gradings and shifts doubled Maslov
    down by 2(l-1); for knots that is a plain reflection."""
    for name in ("trefoil5", "figure_eight6", "hopf_plus4", "knot_5_2_7"):
        g = corpus(name)
        l = count_components(g)
        flipped = {(-m2 - 2 * (l - 1), -a2): r
                   for (m2, a2), r in hat_ranks(g).ranks.items()}
        assert hat_ranks(mirror(g)).ranks == flipped, name
    # the two Hopf grids are literal mirrors of each other
    assert hat_ranks(mirror(corpus("hopf_plus4"))).ranks == HAT["hopf_minus4"]


def test_hat_ranks_match_oracle_on_random_grids():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_grid(rng, int(rng.integers(2, 6)))
        want = oracle_hat_ranks(g.x_cols, g.o_cols)
        assert hat_ranks(g).ranks == want


# --------------------------------------------------------------------------
# extremal groups


def test_bottom_and_top_groups_frozen():
    cases = {
        "trefoil5": ((-2, {-4: 1}), (2, {0: 1})),
        "trefoil_left5": ((-2, {0: 1}), (2, {4: 1})),
        "figure_eight6": ((-2, {-2: 1}), (2, {2: 1})),
        "knot_5_2_7": ((-2, {-4: 2}), (2, {0: 2})),
        "torus_2_5_7": ((-4, {-8: 1}), (4, {0: 1})),
        "hopf_plus4": ((-2, {-4: 1}), (2, {2: 1})),
        "hopf_minus4": ((-2, {-2: 1}), (2, {4: 1})),
        "unknot4": ((0, {0: 1}), (0, {0: 1})),
    }
    for name, ((ba, bp), (ta, tp)) in cases.items():
        g = corpus(name)
        bot, top = bottom_group(g), top_group(g)
        assert (bot.alex2, bot.poincare.coeffs) == (ba, bp), name
        assert (top.alex2, top.poincare.coeffs) == (ta, tp), name
        assert bot.components == top.components == count_components(g)


def test_extremal_groups_agree_with_hat_table_edges():
    """The bottom/top scans must reproduce the extreme columns of the
    full hat table — a cross-check between two different code paths.

    The bottom scan reads the grid directly, so it matches the table
    edge verbatim.  The top group goes through the mirror, whose
    duality shifts doubled Maslov by 2(l-1) for an l-component link, so
    the top edge matches after that shift (exactly, for knots).
    """
    for name in HAT:
        g = corpus(name)
        l = count_components(g)
        table = hat_ranks(g).ranks
        lo = min(a2 for _, a2 in table)
        hi = max(a2 for _, a2 in table)
        bot, top = bottom_group(g), top_group(g)
        assert bot.alex2 == lo and top.alex2 == hi, name
        assert bot.poincare.coeffs == {
            m2: r for (m2, a2), r in table.items() if a2 == lo}, name
        assert top.poincare.coeffs == {
            m2 + 2 * (l - 1): r
            for (m2, a2), r in table.items() if a2 == hi}, name


def test_reflected_is_an_involution():
    top = top_group(corpus("trefoil5"))
    assert top.reflected().reflected() == top
    assert top.reflected().alex2 == -top.alex2
    assert top.reflected().rank == top.rank


def test_genus_values_and_mirror_invariance():
    for name, want in GENUS2.items():
        g = corpus(name)
        assert genus2(g) == want, name
        assert genus2(mirror(g)) == want, name


def computed_tau_flag(scan):
    """The τ flag of a scan from its Maslov slices, never from a
    certificate."""
    return scan.tau_computed()


def test_genus_agrees_with_mirror_and_top_group_on_random_grids():
    """HFK_d(a) = HFK_{d-2a}(-a): the top group sits at the genus, and a
    link and its mirror have the same genus.  The Murasugi checks rely on
    both when they read a link's bottom group and τ_top off one scan of
    its mirror, so that scan must give the grid's own bottom group and
    must not change tau."""
    rng = np.random.default_rng(33)
    links = 0
    for _ in range(40):
        g = random_grid(rng, int(rng.integers(2, 7)))
        links += count_components(g) > 1
        g2 = genus2(g)
        assert genus2(mirror(g)) == g2 == top_group(g).alex2
        if g.n <= 5:
            scan = scan_bottom(mirror(g))
            assert scan.group.mirrored() == bottom_group(g)
            assert scan.group is scan.group  # built once per scan
            m = mirror(g)
            want = oracle_inclusion_rank(m.x_cols, m.o_cols,
                                         scan.levels[-1].alex2) > 0
            assert computed_tau_flag(scan) == want, g
            assert tau_top_is_g(g, mirror_scan=scan) == want, g
            assert tau_top_is_g(g) == want, g
    assert links


def _generators_and_edges(calc, window):
    """The window's top level, its generators as row tuples, and its
    filtered boundary entries as (source, target) pairs of those tuples."""
    rows, cols = boundary_entries(calc.rectangles, window.gens, window.gens,
                                  MODE_FILTERED)
    gens = [tuple(row) for row in window.gens.tolist()]
    edges = sorted((gens[c], gens[r])
                   for r, c in zip(rows.tolist(), cols.tolist()))
    return window.alex2, sorted(gens), edges


def _window_blocks(calc, window):
    """The window's block ranks inside the Maslov window [-2(n - 1), 0],
    the blocks τ reads."""
    return {m2: block for m2, block in window.blocks.items()
            if -2 * (calc.n - 1) <= m2 <= 0}


def test_mirror_scans_of_multi_level_tails_match_the_oracle():
    """The CLI simplifies every grid, and the tails of those grids are one
    level each, so the scans with two or more levels are drawn here: the
    bottom group read off the mirror's scan, and τ_top on its tail (true
    for three of the four, false for one).  The tail joined from the
    levels is the subcomplex ``build_two_step`` builds at its top level."""
    rng = np.random.default_rng(45)
    found = 0
    for _ in range(200):
        g = random_grid(rng, int(rng.integers(3, 7)))
        scan = scan_bottom(mirror(g))
        if len(scan.levels) < 2:
            continue
        found += 1
        alex2, ranks = oracle_bottom_group(g.x_cols, g.o_cols)
        group = scan.group.mirrored()
        assert (group.alex2, group.poincare.coeffs) == (alex2, ranks), g
        m = mirror(g)
        cutoff = alex2 - 2 * (g.n - oracle_components(g.x_cols, g.o_cols))
        assert scan.levels[-1].alex2 == cutoff, g
        want = oracle_inclusion_rank(m.x_cols, m.o_cols, cutoff) > 0
        assert tau_top_is_g(g, mirror_scan=scan) == want, g
        assert computed_tau_flag(scan) == want, g
        tail = two_step_from_levels(scan.calc, scan.levels)
        window = build_two_step(scan.calc, cutoff)
        assert np.all(np.diff(tail.maslov2) >= 0), g
        assert (_generators_and_edges(scan.calc, tail)
                == _generators_and_edges(scan.calc, window)), g
        assert (_window_blocks(scan.calc, tail)
                == _window_blocks(scan.calc, window)), g
        if found == 4:
            break
    assert found == 4


def test_window_from_levels_is_the_two_step_at_every_cutoff():
    """τ's window joined from the walked levels up to each level is the
    subcomplex ``build_two_step`` builds at that cutoff: the same
    generators, the same filtered entries and the same block ranks in
    the Maslov window."""
    rng = np.random.default_rng(47)
    for _ in range(20):
        g = random_grid(rng, int(rng.integers(3, 7)))
        calc = GradingCalculator(g)
        levels = []
        alex = graded_levels(calc, "alex")
        for lc, _ in walk_levels(calc, ((s, None) for s in alex)):
            levels.append(lc)
            window = two_step_from_levels(calc, levels)
            want = build_two_step(calc, lc.alex2)
            assert np.all(np.diff(window.maslov2) >= 0), g
            assert (_generators_and_edges(calc, window)
                    == _generators_and_edges(calc, want)), (g, lc.alex2)
            assert (_window_blocks(calc, window)
                    == _window_blocks(calc, want)), (g, lc.alex2)


def test_bottom_group_of_the_frozen_20_grid():
    """On the 20-grid of trefoil5 spliced with torus_2_5_7 three times,
    simplified after each splice and frozen in ``tests/data``, the bottom
    scan reaches the size where int64 mixed-radix keys of generators
    collide; its level holds uint8 rows and gives the bottom group."""
    g = load_grid(Path(__file__).parent / "data" / "splice20.grid")
    assert g.n == 20
    scan = scan_bottom(g)
    assert all(lc.gens.dtype == np.uint8 for lc in scan.levels)
    group = scan.group
    assert (group.alex2, group.poincare.coeffs) == (-14, {-28: 1})


def test_tau_ranks_only_the_window_blocks_it_reads(monkeypatch):
    """The mirror scan of the simplified figure_eight6#trefoil5 (n = 9)
    stops at one level, alex2 -20, whose blocks run m2 = -24 .. -12: the
    scan ranks the six that have a block two below them.  That one-level
    tail is τ's window, so τ reads the scan's ranks of the blocks in the
    Maslov window [-16, 0] and ranks none itself."""
    g = simplify(connected_sum(corpus("figure_eight6"), corpus("trefoil5")))
    assert g.n == 9
    right = homology.gf2.matrix_rank
    calls = []

    def counted(*args):
        calls.append(args)
        return right(*args)

    monkeypatch.setattr(homology.gf2, "matrix_rank", counted)
    scan = scan_bottom(mirror(g))
    assert len(calls) == 6
    filt = two_step_from_levels(scan.calc, scan.levels)
    assert filt is scan.levels[0]
    assert [lc.alex2 for lc in scan.levels] == [-20]
    assert list(filt.blocks) == list(range(-24, -11, 2))
    calls.clear()
    assert list(induced_map_ranks(scan.calc, filt)) == [0, 0]
    assert not tau_top_is_g(g, mirror_scan=scan)
    assert len(calls) == 0


def test_overcounted_boundary_rank_raises_a_negative_homology_rank(monkeypatch):
    """A boundary rank counted one too high makes a homology rank
    negative, which raises InconsistentComplex, and the CLI reports it as
    exit 1; so does a τ slice term made negative by an image counted too
    large, which ``any`` would otherwise read as True."""
    right = homology.gf2.matrix_rank
    raised = []

    def first_one_too_many(*args):
        rank = right(*args)
        if rank and not raised:
            raised.append(rank)
            return rank + 1
        return rank

    monkeypatch.setattr(homology.gf2, "matrix_rank", first_one_too_many)
    err = io.StringIO()
    assert run(["compute", "--window", "bottom", "corpus:knot_5_2_7"],
               out=io.StringIO(), err=err) == 1
    assert err.getvalue().startswith(
        "InconsistentComplex: negative homology rank -1 at "
        "(maslov2, alex2) = (-18, -14)")
    raised.clear()
    with pytest.raises(InconsistentComplex, match="negative homology rank"):
        bottom_group(corpus("knot_5_2_7"))
    monkeypatch.undo()

    scan = scan_bottom(UNCERTIFIED)
    monkeypatch.setattr(homology.gf2, "image_in_prefix",
                        lambda rows, cols, n_rows, n_cols, prefix:
                        range(prefix + 1))
    with pytest.raises(InconsistentComplex, match="negative slice term"):
        scan.tau_extremal()


def test_scan_refuses_the_level_over_budget_before_its_boundary(monkeypatch):
    """The levels -12 (18 states) and -10 (378) of this 7-grid pass a
    budget of 395: -10 is refused while it is enumerated, so only the
    block pairs of -12 get boundary passes, and the error names the tail
    and the budget."""
    g = make_grid([6, 5, 1, 0, 2, 4, 3], [5, 2, 4, 1, 3, 0, 6])
    right = homology.boundary_entries
    sources = []
    levels = []
    alex2 = GradingCalculator(g).alex2_batch

    def counted(counter, srcs, targets, mode):
        sources.append(len(srcs))
        levels.extend(alex2(srcs).tolist())
        return right(counter, srcs, targets, mode)

    monkeypatch.setattr(homology, "boundary_entries", counted)
    scan = scan_bottom(g, max_generators=396)
    assert [(lc.alex2, lc.size) for lc in scan.levels][:2] == [(-12, 18),
                                                                (-10, 378)]
    sources.clear()
    levels.clear()
    with pytest.raises(GridResourceError,
                       match="levels up to -10 hold at least 396 generators, "
                             "over the budget 395$"):
        scan_bottom(g, max_generators=395)
    # The blocks of -12 with a block two below them, lowest first; no
    # pass follows the refusal of -10.
    assert sources == [4, 7, 5, 1]
    assert set(levels) == {-12}
    # Through the CLI, on knot_5_2_7 (minimal), whose scan stops at its
    # first level, -14, of 4 states: a budget of 3 refuses that level.
    sources.clear()
    err = io.StringIO()
    assert run(["--max-generators", "3", "compute", "--window", "bottom",
                "corpus:knot_5_2_7"], out=io.StringIO(), err=err) == 3
    assert err.getvalue().startswith("GridResourceError")
    assert ("levels up to -14 hold at least 4 generators, over the budget 3"
            in err.getvalue())
    assert sources == []


def test_extremal_predicates():
    """Total rank one (the fiberedness signal) and thinness (support in
    one Maslov grading), read off the group."""
    assert top_group(corpus("trefoil5")).rank == 1
    assert top_group(corpus("figure_eight6")).rank == 1
    assert top_group(corpus("torus_2_5_7")).rank == 1
    five_two = top_group(corpus("knot_5_2_7"))
    assert five_two.rank != 1
    assert len(five_two.poincare.coeffs) == 1  # rank 2 in one Maslov grading
    spread = ExtremalGroup(2, LaurentPoly({0: 1, 2: 1}), 1)
    assert len(spread.poincare.coeffs) != 1
    assert spread.rank == 2


# --------------------------------------------------------------------------
# tau flags


def test_tau_flags_frozen():
    for name, (want_bot, want_top) in TAU_FLAGS.items():
        g = corpus(name)
        assert tau_bot_is_minus_g(g) == want_bot, name
        assert tau_top_is_g(g) == want_top, name


def test_tau_flags_swap_under_mirror():
    for name in ("trefoil5", "hopf_plus4", "figure_eight6"):
        g = corpus(name)
        assert tau_top_is_g(mirror(g)) == tau_bot_is_minus_g(g)
        assert tau_bot_is_minus_g(mirror(g)) == tau_top_is_g(g)


# --------------------------------------------------------------------------
# the Legendrian front's τ certificate

# The nontrivial corpus knots whose simplified pairwise sums the front
# is checked on, and the ordered pairs left out because their τ_top,
# computed from Maslov slices, takes over a second: 8 s for
# knot_5_2_7 # torus_2_5_7, and past the 3 * 10^6 generator budget for
# knot_5_2_7 # knot_5_2_7 (n = 13).  The front certifies both.
PAIR_KNOTS = ("trefoil5", "trefoil_left5", "figure_eight6", "knot_5_2_7",
              "torus_2_5_7")
SLOW_PAIRS = {("knot_5_2_7", "torus_2_5_7"), ("knot_5_2_7", "knot_5_2_7")}


def test_front_fires_on_the_corpus_knots_exactly_where_tau_is_extremal():
    """The certificates answer both flags of every corpus knot: the front
    (or genus 0, for the unknots) exactly where τ is extremal, and the
    bottom group's Maslov support everywhere else."""
    for name, flags in TAU_FLAGS.items():
        g = corpus(name)
        if count_components(g) > 1:
            continue
        fronts = tuple(scan_bottom(side)._certified()
                       for side in (g, mirror(g)))
        assert fronts == flags, name
        assert tuple(computed_tau_flag(scan_bottom(side))
                     for side in (g, mirror(g))) == flags, name


def test_front_certificate_implies_the_computed_flag():
    """tb + |rot| <= 2τ - 1 and τ <= g make the mirror front's equality a
    proof of τ = -g, so wherever it fires the flag computed from the
    slices is True: on random knot grids up to n = 7, on both sides, and
    on the simplified sums of nontrivial corpus knots that compute
    within a second, where it fires on 8 of 46 sides."""
    rng = np.random.default_rng(53)
    grids = []
    while len(grids) < 60:
        g = random_grid(rng, int(rng.integers(3, 8)))
        if count_components(g) == 1:
            grids.append(g)
    sums = [simplify(connected_sum(corpus(a), corpus(b)))
            for a, b in product(PAIR_KNOTS, repeat=2)
            if (a, b) not in SLOW_PAIRS]
    fired = []
    for g in grids + sums:
        for side in (g, mirror(g)):
            scan = scan_bottom(side)
            if scan._certified():
                fired.append(g in sums)
                assert computed_tau_flag(scan), side
    assert fired.count(True) == 8
    assert fired.count(False) > 20


def test_certificates_agree_with_the_computed_flag_and_the_oracle():
    """Every flag a certificate answers equals the flag computed from the
    Maslov slices, and the oracle's inclusion rank, on seeded random grids
    with n = 4-7, knots and 2- and 3-component links, on both sides.  The
    oracle runs on every certified side up to n = 5, on the first side of
    each certificate kind at n = 6, and on the first certified side at
    n = 7, which takes it over a second.  Each kind fires:
    the front of a knot of positive genus, of a 2- and of a 3-component
    link, genus 0, and the Maslov support of a knot's and of a 2- and a
    3-component link's bottom group."""
    rng = np.random.default_rng(61)
    fired = Counter()
    oracled = set()
    for _ in range(150):
        g = random_grid(rng, int(rng.integers(4, 8)))
        l = count_components(g)
        for side in (g, mirror(g)):
            scan = scan_bottom(side)
            certified = scan._certified()
            if certified is None:
                continue
            assert certified == scan.tau_computed(), side
            kind = ("support" if not certified else
                    "genus 0" if l == 1 and scan.group.alex2 == 0 else
                    "front")
            fired[kind, l] += 1
            seen = kind if side.n == 6 else "any"
            if side.n <= 5 or (seen, side.n) not in oracled:
                oracled.add((seen, side.n))
                rank = oracle_inclusion_rank(side.x_cols, side.o_cols,
                                             scan.levels[-1].alex2)
                assert certified == (rank > 0), side
    assert set(fired) == {("support", 1), ("support", 2), ("support", 3),
                          ("genus 0", 1),
                          ("front", 1), ("front", 2), ("front", 3)}
    assert {(seen, n) for seen, n in oracled if n >= 6} == {
        ("support", 6), ("genus 0", 6), ("front", 6), ("any", 7)}


def test_an_uncertified_flag_is_computed(monkeypatch):
    """No certificate answers the τ flag of this 3-component 7-grid, whose
    bottom group sits at doubled index 2 in Maslov gradings -6 and -4,
    inside the window of the total homology: the flag is computed, False,
    as the oracle's inclusion rank is 0."""
    scan = scan_bottom(UNCERTIFIED)
    group = scan.group
    assert (group.alex2, group.poincare.coeffs) == (-2, {-6: 1, -4: 1})
    assert scan._certified() is None
    images = []
    right = homology.gf2.image_in_prefix

    def counted(*args):
        images.append(args)
        return right(*args)

    monkeypatch.setattr(homology.gf2, "image_in_prefix", counted)
    assert scan.tau_extremal() is False
    assert len(images) == 1
    g = UNCERTIFIED
    assert oracle_inclusion_rank(g.x_cols, g.o_cols,
                                 scan.levels[-1].alex2) == 0


def test_a_genus_one_too_low_trips_the_front_bound():
    """Both fronts must satisfy tb + |rot| + l <= 2g.  The scan of the
    mirror of trefoil5 with its last level raised by one genus claims
    2g = 0, which the trefoil's front (tb 1, rot 0) exceeds.  So do the
    scans of the mirrors of the Hopf links with their last level raised
    by two, against the Hopf link's front and l = 2.  Every τ call checks
    the fronts, also of a link whose flag another certificate answers."""
    scan = scan_bottom(mirror(corpus("trefoil5")))
    assert scan.tau_extremal()
    with pytest.raises(InconsistentComplex,
                       match="tb [+] [|]rot[|] [+] 1 = 2, above the scanned "
                             "doubled genus 0"):
        _last_level_raised(scan, 2).tau_extremal()
    for name in ("hopf_plus4", "hopf_minus4"):
        scan = scan_bottom(mirror(corpus(name)))
        assert scan.tau_extremal() == TAU_FLAGS[name][1]
        with pytest.raises(InconsistentComplex,
                           match="tb [+] [|]rot[|] [+] 2 = 2, above the "
                                 "scanned doubled genus -2"):
            _last_level_raised(scan, 4).tau_extremal()


def _last_level_raised(scan, by):
    """A new scan, its group not yet built, whose last level sits ``by``
    higher than that of ``scan``."""
    last = scan.levels[-1]
    levels = scan.levels[:-1] + [dataclasses.replace(last, alex2=last.alex2 + by)]
    return dataclasses.replace(scan, levels=levels)


def test_a_proof_against_the_maslov_support_raises():
    """The front of trefoil5's mirror proves τ_top = g, so the bottom
    group of that mirror has a term in Maslov grading 0; moved two
    gradings up, it has none, and the certificates disagree."""
    scan = scan_bottom(mirror(corpus("trefoil5")))
    assert scan._certified() is True
    # A new scan, since the group is built once per scan.
    scan = dataclasses.replace(scan, ranks={m2 + 2: r for m2, r in scan.ranks.items()})
    with pytest.raises(InconsistentComplex, match="τ = -g is proved"):
        scan.tau_extremal()


def test_fronts_whose_tb_do_not_sum_to_minus_n_exit_1(monkeypatch):
    monkeypatch.setattr(invariants, "legendrian_front", lambda grid: (0, 0))
    with pytest.raises(InconsistentComplex, match="do not sum to -n = -5"):
        tau_top_is_g(corpus("trefoil5"))
    err = io.StringIO()
    assert run(["murasugi", "--connect", "corpus:trefoil5", "corpus:trefoil6"],
               out=io.StringIO(), err=err) == 1
    assert err.getvalue().startswith("InconsistentComplex")


# --------------------------------------------------------------------------
# Euler characteristic and the Alexander polynomial


def test_alexander_polynomials_frozen():
    for name, want in ALEXANDER.items():
        assert alexander_polynomial(corpus(name)).coeffs == want, name


def test_alexander_is_symmetric_and_one_at_one():
    for name in ALEXANDER:
        poly = alexander_polynomial(corpus(name))
        assert poly == poly.reflect(), name
        assert poly.eval_one() == 1, name


@pytest.mark.parametrize("a, b", [("trefoil5", "trefoil6"),
                                  ("torus_2_5_7", "trefoil5"),
                                  ("knot_5_2_7", "trefoil5")])
def test_alexander_polynomial_multiplies_under_connected_sum(a, b):
    """Unsimplified sums of size 10 and 11, past the oracle's reach: the
    signed level counts of the summed grid give the product of the
    summands' polynomials."""
    summed = connected_sum(corpus(a), corpus(b))
    assert summed.n in (10, 11)
    got = alexander_polynomial(summed)
    assert got == LaurentPoly(ALEXANDER[a]) * LaurentPoly(ALEXANDER[b]), got.coeffs


def test_state_sum_requires_a_knot():
    with pytest.raises(NotAKnot):
        state_sum(corpus("hopf_plus4"))
    with pytest.raises(NotAKnot):
        alexander_polynomial(make_grid([2, 3, 0, 1], [1, 0, 3, 2]))  # unlink


# --------------------------------------------------------------------------
# tilde <-> hat translation


def test_deflate_inflate_round_trip_on_corpus():
    for name in ("unknot3", "trefoil5", "hopf_minus4", "figure_eight6"):
        g = corpus(name)
        k = g.n - count_components(g)
        tilde = homology_ranks(g)
        hat = deflate_to_hat(tilde, k)
        assert inflate(hat, k) == tilde, name


def test_deflate_raises_on_a_remainder_and_stops_at_top():
    single = BigradedRanks({(0, 0): 1})
    with pytest.raises(NotDivisible):
        deflate_to_hat(single, 1)
    # Known only up to alex2 = 0, the tilde determines the quotient up
    # to alex2 = 2, and the unknown terms above are not subtracted.
    assert deflate_to_hat(single, 1, top=0).ranks == {(2, 2): 1}
    tilde = homology_ranks(corpus("trefoil5"))
    tail = BigradedRanks({k: v for k, v in tilde.ranks.items() if k[1] <= -8})
    assert deflate_to_hat(tail, 4, top=-8).ranks == {
        k: v for k, v in deflate_to_hat(tilde, 4).ranks.items() if k[1] <= 0}


def test_deflate_inflate_round_trip_on_random_grids():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g = random_grid(rng, int(rng.integers(2, 6)))
        k = g.n - count_components(g)
        tilde = homology_ranks(g)
        hat = deflate_to_hat(tilde, k)
        assert inflate(hat, k) == tilde
        # hat total rank is the tilde total divided by 2^(n-l)
        assert hat.total_rank() * 2 ** k == tilde.total_rank()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))


def test_each_entry_point_builds_one_calculator_and_one_counter(monkeypatch):
    """The GradingCalculator is the one per-grid object: every entry point
    builds it once, with the grid's RectangleCounter, and the layers
    beneath share it."""
    from gridhfk.gradings import GradingCalculator
    from gridhfk.rectangles import RectangleCounter

    built = []
    for cls in (GradingCalculator, RectangleCounter):
        def counted(self, grid, original=cls.__init__, name=cls.__name__):
            built.append(name)
            original(self, grid)
        monkeypatch.setattr(cls, "__init__", counted)
    g = corpus("figure_eight6")
    calls = {
        "bottom_group": lambda: bottom_group(g),
        "homology_ranks": lambda: homology_ranks(g),
        "tau_bot_is_minus_g": lambda: tau_bot_is_minus_g(g),
        "alexander_polynomial": lambda: alexander_polynomial(g),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert sorted(built) == ["GradingCalculator", "RectangleCounter"], name

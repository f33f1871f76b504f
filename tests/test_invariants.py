"""Frozen invariant values for the bundled corpus, plus structural laws.

Every frozen dictionary below was computed independently by the
enumeration oracle in ``tests/oracle.py`` and agrees with published
rank tables for these links; the tests pin the library to those values.
Grading pairs are written (maslov2, alex2) in doubled coordinates.
"""

import io
from functools import lru_cache

import numpy as np
import pytest

from gridhfk import homology
from gridhfk.cli import run
from gridhfk.errors import (
    GridResourceError,
    InconsistentComplex,
    NotAKnot,
    NotDivisible,
)
from gridhfk.grids import count_components, load_corpus, make_grid, mirror
from gridhfk.generators import encode_perms, graded_levels
from gridhfk.gradings import GradingCalculator
from gridhfk.homology import (
    BigradedRanks,
    build_two_step,
    deflate_to_hat,
    homology_ranks,
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
    is_extremal_rank_one,
    is_extremal_thin,
    scan_bottom,
    state_sum,
    tau_bot_is_minus_g,
    tau_top_is_g,
    top_group,
)
from gridhfk.polynomials import LaurentPoly

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
            assert tau_top_is_g(g, mirror_scan=scan) == tau_top_is_g(g)
    assert links


def _generators_and_edges(filt, n):
    keys = encode_perms(filt.gens, n).tolist()
    edges = sorted((keys[c], keys[r])
                   for r, c in zip(filt.rows.tolist(), filt.cols.tolist()))
    return sorted(keys), edges


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
        tail = two_step_from_levels(scan.calc, scan.levels)
        assert np.all(np.diff(tail.maslov2) >= 0), g
        assert (_generators_and_edges(tail, g.n) == _generators_and_edges(
            build_two_step(scan.calc, cutoff), g.n)), g
        if found == 4:
            break
    assert found == 4


def test_window_from_levels_is_the_two_step_at_every_cutoff():
    """τ's window joined from the walked levels up to each level, with the
    filtered entries of each level into the ones below, is the subcomplex
    ``build_two_step`` builds at that cutoff."""
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
            assert (_generators_and_edges(window, g.n)
                    == _generators_and_edges(want, g.n)), (g, lc.alex2)


def test_scan_checks_each_level_euler_characteristic(monkeypatch):
    """A level whose ranks do not sum, signed, to its signed generator
    count raises InconsistentComplex, which the CLI reports as exit 1."""
    right = homology.level_homology_ranks

    def one_too_many(lc):
        ranks = right(lc)
        m2 = int(lc.maslov2[0])
        return {**ranks, m2: ranks.get(m2, 0) + 1}

    monkeypatch.setattr(homology, "level_homology_ranks", one_too_many)
    with pytest.raises(InconsistentComplex, match="Euler characteristic"):
        bottom_group(corpus("trefoil5"))
    err = io.StringIO()
    assert run(["compute", "--window", "bottom", "corpus:trefoil5"],
               out=io.StringIO(), err=err) == 1
    assert err.getvalue().startswith("InconsistentComplex")


def test_scan_refuses_the_level_over_budget_before_its_boundary(monkeypatch):
    """The levels -12 (18 states) and -10 (378) of this 7-grid pass a
    budget of 395: -10 is refused while it is enumerated, so only -12
    gets a boundary pass, and the error names the tail and the budget."""
    g = make_grid([6, 5, 1, 0, 2, 4, 3], [5, 2, 4, 1, 3, 0, 6])
    right = homology.boundary_entries
    sources = []

    def counted(counter, srcs, targets, mode):
        sources.append(len(srcs))
        return right(counter, srcs, targets, mode)

    monkeypatch.setattr(homology, "boundary_entries", counted)
    sizes = {}
    scan_bottom(g, max_generators=396, level_sizes=sizes)
    assert list(sizes.items())[:2] == [(-12, 18), (-10, 378)]
    sources.clear()
    with pytest.raises(GridResourceError,
                       match="levels up to -10 hold at least 396 generators, "
                             "over the budget 395$"):
        scan_bottom(g, max_generators=395)
    assert sources == [18]
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
    assert is_extremal_rank_one(top_group(corpus("trefoil5")))
    assert is_extremal_rank_one(top_group(corpus("figure_eight6")))
    assert is_extremal_rank_one(top_group(corpus("torus_2_5_7")))
    five_two = top_group(corpus("knot_5_2_7"))
    assert not is_extremal_rank_one(five_two)
    assert is_extremal_thin(five_two)  # rank 2 in a single Maslov grading
    spread = ExtremalGroup(2, LaurentPoly({0: 1, 2: 1}), 1)
    assert not is_extremal_thin(spread)
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
# Euler characteristic and the Alexander polynomial


def test_alexander_polynomials_frozen():
    for name, want in ALEXANDER.items():
        assert alexander_polynomial(corpus(name)).coeffs == want, name


def test_alexander_is_symmetric_and_one_at_one():
    for name in ALEXANDER:
        poly = alexander_polynomial(corpus(name))
        assert poly.is_symmetric(), name
        assert poly.eval_one() == 1, name


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

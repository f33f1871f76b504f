"""Level complexes: differentials, partitions, and structural laws."""

import io
import json
from collections import Counter
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from gridhfk import generators, homology
from gridhfk.cli import run
from gridhfk.errors import GridResourceError, InconsistentComplex
from gridhfk.generators import (
    enumerate_all,
    generators_in_level,
    generators_up_to,
    graded_generators,
    graded_levels,
    level_counts,
)
from gridhfk.gf2 import image_in_prefix, kernel_basis, span_intersection_dim
from gridhfk.gradings import GradingCalculator
from gridhfk.grids import load_corpus
from gridhfk.homology import (
    build_level_complex,
    build_two_step,
    homology_ranks,
    induced_map_rank,
    induced_map_ranks,
    inflate,
    level_homology_ranks,
    two_step_from_levels,
    verify_d2,
    walk_levels,
)
from gridhfk.invariants import hat_ranks
from gridhfk.rectangles import (
    MODE_FILTERED,
    MODE_LEVEL,
    RectangleCounter,
    boundary_entries,
)

from oracle import (
    oracle_alex2,
    oracle_boundary_pairs,
    oracle_components,
    oracle_deflate,
    oracle_inclusion_rank,
    oracle_maslov2,
    oracle_rectangles,
    oracle_tilde_ranks,
)

from test_grids import random_grid


# --------------------------------------------------------------------------
# generator enumeration


def test_levels_partition_all_permutations():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = random_grid(rng, int(rng.integers(2, 7)))
        calc = GradingCalculator(g)
        seen = set()
        total = 0
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            gens = generators_in_level(calc, a2)
            total += len(gens)
            for p in gens:
                key = tuple(int(v) for v in p)
                assert key not in seen
                assert oracle_alex2(g.x_cols, g.o_cols, key) == a2
                seen.add(key)
        assert total == factorial(g.n)


def test_every_alexander_grading_has_the_parity_of_the_floor():
    # The bottom scan visits only the levels of this parity.
    rng = np.random.default_rng(24)
    for _ in range(30):
        g = random_grid(rng, int(rng.integers(2, 7)))
        floor = GradingCalculator(g).level_floor()
        for p in permutations(range(g.n)):
            assert (oracle_alex2(g.x_cols, g.o_cols, p) - floor) % 2 == 0


def test_level_enumeration_is_lexicographic():
    g = load_corpus("trefoil5")
    calc = GradingCalculator(g)
    for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
        gens = generators_in_level(calc, a2)
        as_tuples = [tuple(int(v) for v in p) for p in gens]
        assert as_tuples == sorted(as_tuples)


def test_out_of_range_level_is_empty_not_error():
    calc = GradingCalculator(load_corpus("unknot2"))
    assert len(generators_in_level(calc, 10**6)) == 0
    assert len(generators_in_level(calc, 1)) == 0  # wrong parity


def test_generators_up_to_matches_filter():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = random_grid(rng, 5)
        calc = GradingCalculator(g)
        cutoff = int(calc.level_floor()) + 4
        got = {tuple(int(v) for v in p) for p in generators_up_to(calc, cutoff)}
        want = {p for p in permutations(range(5))
                if oracle_alex2(g.x_cols, g.o_cols, p) <= cutoff}
        assert got == want


def _check_graded(calc, grading, targets, perms, values):
    """The enumerator against a filter of all permutations, and its budget."""
    want = perms[np.isin(values, list(targets))]
    got = graded_generators(calc, grading, targets)
    assert got.dtype == np.int64 and got.shape == (len(want), calc.n)
    assert np.array_equal(got, want), (grading, targets)
    if len(want):
        with pytest.raises(GridResourceError):
            graded_generators(calc, grading, targets,
                              max_generators=len(want) - 1)
    assert len(graded_generators(calc, grading, targets,
                                 max_generators=len(want))) == len(want)


def test_graded_generators_match_a_filter_of_all_permutations():
    """Single levels, up-to ranges and sets of Maslov slices, on knots
    and links, against a filter of the lexicographic full stream graded
    by the oracle: same rows in the same order, int64, and a budget that
    passes at the count and trips one below it."""
    rng = np.random.default_rng(38)
    components = Counter()
    for n in [2] * 10 + [3] * 20 + [4] * 30 + [5] * 25 + [6] * 12 + [7] * 3:
        g = random_grid(rng, n)
        components[oracle_components(g.x_cols, g.o_cols)] += 1
        calc = GradingCalculator(g)
        perms = np.array(list(permutations(range(n))), dtype=np.int64)
        rows = perms.tolist()
        alex2 = np.array([oracle_alex2(g.x_cols, g.o_cols, p) for p in rows])
        maslov2 = np.array([oracle_maslov2(g.x_cols, g.o_cols, p)
                            for p in rows])
        levels = sorted(set(alex2.tolist()))
        slices = sorted(set(maslov2.tolist()))
        assert graded_levels(calc, "alex") == levels
        assert graded_levels(calc, "maslov") == slices
        for a2 in range(levels[0] - 2, levels[-1] + 3):
            _check_graded(calc, "alex", [a2], perms, alex2)
            assert np.array_equal(generators_in_level(calc, a2),
                                  perms[alex2 == a2])
        for cutoff in (levels[0] - 1, levels[len(levels) // 2], levels[-1]):
            _check_graded(calc, "alex", range(levels[0], cutoff + 1),
                          perms, alex2)
            assert np.array_equal(generators_up_to(calc, cutoff),
                                  perms[alex2 <= cutoff])
        for _ in range(3):
            picked = rng.choice(slices, size=min(len(slices), 3),
                                replace=False).tolist()
            _check_graded(calc, "maslov", {*picked, picked[0] + 2}, perms,
                          maslov2)
        _check_graded(calc, "maslov", [slices[0] - 2, slices[-1] + 1],
                      perms, maslov2)
        _check_graded(calc, "alex", [], perms, alex2)
    assert sum(components.values()) == 100
    assert len(components) > 1  # links are among the grids


def test_resource_guard_trips():
    g = load_corpus("torus_2_5_7")
    with pytest.raises(GridResourceError) as info:
        enumerate_all(g, max_generators=factorial(g.n) - 1)
    assert info.value.estimate == factorial(g.n)
    # At the budget: every generator, as uint8 rows in lexicographic order.
    perms = enumerate_all(g, max_generators=factorial(g.n))
    assert perms.dtype == np.uint8
    assert [tuple(p) for p in perms.tolist()] == list(permutations(range(g.n)))


# --------------------------------------------------------------------------
# rectangle counts


def test_boundary_matches_oracle_on_random_levels():
    rng = np.random.default_rng(24)
    for _ in range(25):
        g = random_grid(rng, int(rng.integers(2, 6)))
        calc = GradingCalculator(g)
        levels = range(calc.level_floor(), calc.level_ceiling() + 1, 2)
        for a2 in levels:
            lc = build_level_complex(calc, a2)
            if lc.is_empty:
                continue
            gens = [tuple(int(v) for v in p) for p in lc.gens]
            want = set(oracle_boundary_pairs(g.x_cols, g.o_cols, gens,
                                             mode="level"))
            got = set(zip(lc.rows.tolist(), lc.cols.tolist()))
            assert got == want


# --------------------------------------------------------------------------
# differential laws


def test_d_squared_zero_on_100_random_grids():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 100:
        g = random_grid(rng, int(rng.integers(2, 7)))
        calc = GradingCalculator(g)
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            lc = build_level_complex(calc, a2)
            verify_d2(lc.rows, lc.cols, lc.size)  # raises on failure
        checked += 1
    assert checked == 100


def test_d_squared_zero_on_corpus_up_to_seven():
    for name in ["unknot2", "hopf_plus4", "trefoil5", "figure_eight6",
                 "knot_5_2_7", "torus_2_5_7"]:
        g = load_corpus(name)
        calc = GradingCalculator(g)
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            lc = build_level_complex(calc, a2)
            verify_d2(lc.rows, lc.cols, lc.size)


def test_boundary_entries_are_transpositions_dropping_maslov_by_two():
    rng = np.random.default_rng(26)
    for _ in range(20):
        g = random_grid(rng, int(rng.integers(3, 7)))
        calc = GradingCalculator(g)
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            lc = build_level_complex(calc, a2)
            for tgt, src in zip(lc.rows.tolist(), lc.cols.tolist()):
                diff = np.flatnonzero(lc.gens[tgt] != lc.gens[src])
                assert len(diff) == 2
                ci, cj = diff
                assert lc.gens[src][ci] == lc.gens[tgt][cj]
                assert lc.maslov2[src] - lc.maslov2[tgt] == 2


def test_grading_relations_on_rectangle_connected_pairs():
    """Every rectangle between generators satisfies the grading relation
    maslov2 drop = 2 - 4*n_o + 4*interior and alex2 drop = 2*(n_x - n_o).
    In particular an empty rectangle drops maslov2 by exactly 2 and
    preserves alex2."""
    rng = np.random.default_rng(27)
    g = random_grid(rng, 6)
    calc = GradingCalculator(g)
    checked = 0
    while checked < 1000:
        perm = [int(v) for v in rng.permutation(6)]
        ci, cj = sorted(rng.choice(6, size=2, replace=False).tolist())
        target = list(perm)
        target[ci], target[cj] = target[cj], target[ci]
        pair = np.array([perm, target])
        (m_s, m_t), (a_s, a_t) = calc.maslov2_batch(pair), calc.alex2_batch(pair)
        # the two rectangles from perm to target: the one spanning columns
        # [ci, cj), then the one spanning the complementary way round
        records = oracle_rectangles(g.x_cols, g.o_cols, perm, target)
        assert len(records) == 2
        for rec in records:
            assert m_s - m_t == 2 - 4 * rec["n_o"] + 4 * rec["interior_points"]
            assert a_s - a_t == 2 * (rec["n_x"] - rec["n_o"])
            if not rec["n_x"] and not rec["n_o"] and not rec["interior_points"]:
                assert m_s - m_t == 2 and a_s == a_t
            checked += 1


# --------------------------------------------------------------------------
# homology structure


def test_trefoil_full_complex_total_rank():
    # hat rank 3 tensored with 2^(n-l) = 2^4 tilde factors
    assert homology_ranks(load_corpus("trefoil5")).total_rank() == 48


def test_euler_characteristic_symmetry_for_knots():
    """The state sum of a knot grid is the Alexander polynomial times
    (1-t)^(n-1) up to a unit, so reflecting t -> 1/t reproduces it up to
    the sign (-1)^(n-1) and an exponent shift."""
    from gridhfk.grids import count_components
    from gridhfk.invariants import state_sum
    rng = np.random.default_rng(28)
    checked = 0
    while checked < 20:
        g = random_grid(rng, int(rng.integers(2, 7)))
        if count_components(g) != 1:
            continue
        poly = state_sum(g)
        sign = (-1) ** (g.n - 1)
        mid_twice = poly.min_exp() + poly.max_exp()
        for e, c in poly.coeffs.items():
            assert poly.coeffs.get(mid_twice - e, 0) == sign * c
        checked += 1


# --------------------------------------------------------------------------
# uint8 generator arrays


def test_batch_gradings_on_uint8_blocks_match_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_grid(rng, int(rng.integers(2, 8)))
        calc = GradingCalculator(g)
        perms = np.array(list(permutations(range(g.n))), dtype=np.uint8)
        for block in np.split(perms, g.n):
            rows = block[rng.choice(len(block), size=min(len(block), 15),
                                    replace=False)]
            m2 = calc.maslov2_batch(rows)
            a2 = calc.alex2_batch(rows)
            for i, p in enumerate(rows.tolist()):
                assert m2[i] == oracle_maslov2(g.x_cols, g.o_cols, p)
                assert a2[i] == oracle_alex2(g.x_cols, g.o_cols, p)


def test_boundary_entries_same_for_int64_and_cast_kept_rows():
    rng = np.random.default_rng(30)
    for _ in range(6):
        g = random_grid(rng, int(rng.integers(4, 7)))
        calc = GradingCalculator(g)
        counter = RectangleCounter(g)
        reference = np.array(list(permutations(range(g.n))), dtype=np.int64)
        ref_m2 = calc.maslov2_batch(reference)
        m2 = int(np.median(ref_m2)) // 2 * 2
        small = reference.astype(np.uint8)
        kept = small[calc.maslov2_batch(small) == m2].astype(np.int64)
        assert len(kept) and np.array_equal(kept, reference[ref_m2 == m2])
        targets = reference[ref_m2 == m2 - 2]
        for mode in (MODE_LEVEL, MODE_FILTERED):
            want = boundary_entries(counter, reference[ref_m2 == m2],
                                    targets, mode)
            got = boundary_entries(counter, kept, targets, mode)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_induced_map_rank_matches_oracle_at_every_cutoff():
    """Also guards the Maslov window [-2(n-1), 0] outside which slices
    are skipped."""
    rng = np.random.default_rng(31)
    for n in [3] * 6 + [4] * 7 + [5] * 6 + [6]:
        g = random_grid(rng, n)
        calc = GradingCalculator(g)
        for cutoff in range(calc.level_floor(), calc.level_ceiling() + 1):
            want = oracle_inclusion_rank(g.x_cols, g.o_cols, cutoff)
            assert induced_map_rank(g, cutoff) == want, (g, cutoff)


def test_slice_terms_sum_to_the_oracle_and_any_decides_positivity():
    """τ reads only whether some slice term is positive; that is exact
    because no term is negative, and the terms sum to the rank."""
    rng = np.random.default_rng(31)
    for n in [3] * 6 + [4] * 7 + [5] * 6 + [6]:
        g = random_grid(rng, n)
        calc = GradingCalculator(g)
        for cutoff in range(calc.level_floor(), calc.level_ceiling() + 1):
            want = oracle_inclusion_rank(g.x_cols, g.o_cols, cutoff)
            filt = build_two_step(calc, cutoff)
            terms = list(induced_map_ranks(calc, filt))
            assert all(t >= 0 for t in terms), (g, cutoff, terms)
            assert sum(terms) == want, (g, cutoff, terms)
            assert any(induced_map_ranks(calc, filt)) == (want > 0), (g, cutoff)


def _terms_from_cycles(calc, filt):
    """τ's slice terms as dim Z_S - dim(Z_S meet B): a kernel basis of
    each window block, tagged in the window's own slice order, met with
    the image of the full boundary in a basis that lists the window's
    generators first in that same order."""
    terms = []
    for m2 in np.unique(filt.maslov2).tolist():
        if not -2 * (calc.n - 1) <= m2 <= 0:
            continue
        block = np.flatnonzero(filt.maslov2 == m2)
        below = np.flatnonzero(filt.maslov2 == m2 - 2)
        out = np.isin(filt.cols, block)
        kern = kernel_basis(np.searchsorted(below, filt.rows[out]),
                            np.searchsorted(block, filt.cols[out]),
                            len(below), len(block))
        if not kern:
            continue
        pair = graded_generators(calc, "maslov", {m2, m2 + 2})
        pair_m2 = calc.maslov2_batch(pair)
        slice_gens = pair[pair_m2 == m2]
        outside = slice_gens[calc.alex2_batch(slice_gens) > filt.alex2]
        basis = np.concatenate([filt.gens[block], outside])
        sources = pair[pair_m2 == m2 + 2]
        rows, cols = boundary_entries(calc.rectangles, sources, basis,
                                      MODE_FILTERED)
        image = image_in_prefix(rows, cols, len(basis), len(sources),
                                len(block))
        terms.append(len(kern) - span_intersection_dim(kern, image, len(block)))
    return terms


def test_each_slice_term_is_the_one_from_cycles_in_both_windows():
    """Every term dim Z_S - dim(B meet S), read off block ranks and the
    image pivots under the window's generators, equals the term met from
    a kernel basis, slice by slice, in the windows of both builders."""
    rng = np.random.default_rng(59)
    terms = 0
    for n in [3] * 5 + [4] * 5 + [5] * 4 + [6] * 2:
        g = random_grid(rng, n)
        calc = GradingCalculator(g)
        windows = [build_two_step(calc, cutoff) for cutoff in
                   range(calc.level_floor(), calc.level_ceiling() + 1)]
        levels = []
        for lc, _ in walk_levels(calc, ((s, None) for s in
                                        graded_levels(calc, "alex"))):
            levels.append(lc)
            windows.append(two_step_from_levels(calc, levels))
        for filt in windows:
            want = _terms_from_cycles(calc, filt)
            assert list(induced_map_ranks(calc, filt)) == want, (g, filt.alex2)
            terms += len(want)
    assert terms >= 100


# --------------------------------------------------------------------------
# the full table in one bucketed pass


def test_one_pass_table_matches_oracle_and_per_level_complexes():
    """The bucketed pass against the oracle and against the branch and
    bound at every level from the floor to the ceiling."""
    rng = np.random.default_rng(33)
    components = set()
    for n in (2, 3, 3, 4, 4, 5, 5, 5, 6, 6):
        g = random_grid(rng, n)
        calc = GradingCalculator(g)
        components.add(calc.components)
        table = homology_ranks(g).ranks
        assert table == oracle_tilde_ranks(g.x_cols, g.o_cols), g
        per_level = {}
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1):
            for m2, r in level_homology_ranks(build_level_complex(calc, a2)).items():
                per_level[(m2, a2)] = r
        assert table == per_level, g
    assert max(components) > 1  # links are among the grids


def test_one_pass_table_generator_counts_sum_to_n_factorial():
    for name in ("hopf_plus4", "trefoil5", "figure_eight6"):
        out = io.StringIO()
        assert run(["--json", "compute", f"corpus:{name}"], out=out) == 0
        counts = json.loads(out.getvalue())["generator_counts"]
        n = load_corpus(name).n
        assert sum(counts.values()) == factorial(n), name


def test_one_pass_level_sizes_are_the_oracle_level_sizes():
    rng = np.random.default_rng(35)
    for n in (2, 3, 4, 5, 5, 6):
        g = random_grid(rng, n)
        sizes = {}
        homology_ranks(g, level_sizes=sizes)
        want = Counter(oracle_alex2(g.x_cols, g.o_cols, p)
                       for p in permutations(range(n)))
        assert list(sizes.items()) == sorted(want.items()), g


def test_one_pass_level_complex_from_given_gens_skips_enumeration(monkeypatch):
    g = load_corpus("trefoil5")
    calc = GradingCalculator(g)
    want = {}
    gens = {}
    for a2 in range(calc.level_floor(), calc.level_ceiling() + 1):
        lc = build_level_complex(calc, a2)
        want[a2] = (lc.gens, lc.maslov2, lc.rows, lc.cols)
        gens[a2] = generators_in_level(calc, a2)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("gens= must skip level enumeration")

    monkeypatch.setattr(homology, "generators_in_level", no_enumeration)
    for a2, expect in want.items():
        lc = build_level_complex(calc, a2, gens=gens[a2])
        for got, ref in zip((lc.gens, lc.maslov2, lc.rows, lc.cols), expect):
            assert np.array_equal(got, ref)


# --------------------------------------------------------------------------
# the table from the bottom tail, and the level DP


def test_tail_table_matches_oracle_on_100_random_grids():
    """The hat table from the levels up to -2(n - l) and the symmetry,
    and its inflation, against the oracle's full tables."""
    rng = np.random.default_rng(36)
    components = Counter()
    for n in [2] * 12 + [3] * 25 + [4] * 35 + [5] * 21 + [6] * 6 + [7]:
        g = random_grid(rng, n)
        k = n - oracle_components(g.x_cols, g.o_cols)
        components[n - k] += 1
        tilde = oracle_tilde_ranks(g.x_cols, g.o_cols)
        hat = hat_ranks(g)
        assert hat.ranks == oracle_deflate(tilde, k), g
        assert inflate(hat, k).ranks == tilde, g
    assert sum(components.values()) >= 100
    assert len(components) > 1  # links are among the grids


def test_level_counts_are_the_oracle_counts_and_signed_sums():
    rng = np.random.default_rng(37)
    for n in [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7]:
        g = random_grid(rng, n)
        counts = Counter()
        euler = Counter()
        for p in permutations(range(g.n)):
            a2 = oracle_alex2(g.x_cols, g.o_cols, p)
            counts[a2] += 1
            euler[a2] += -1 if oracle_maslov2(g.x_cols, g.o_cols, p) % 4 else 1
        want = {a2: (counts[a2], euler[a2]) for a2 in sorted(counts)}
        got = level_counts(GradingCalculator(g))
        assert list(got.items()) == list(want.items()), g


def _enumerated_levels(calc):
    """{alex2: (count, euler)} from listing every level's generators."""
    levels = {}
    for a2 in graded_levels(calc, "alex"):
        gens = generators_in_level(calc, a2)
        signs = 1 - 2 * (calc.maslov2_batch(gens) // 2 % 2)
        levels[a2] = (len(gens), int(signs.sum()))
    return levels


def test_level_counts_match_the_enumeration_past_the_oracle(monkeypatch):
    """Seeded knots and links of size 8-10: the levels are those of the
    completion table in order, and each level's count and signed count
    are those of its listed generators, also when every layer of masks
    splits into uneven passes of five parents."""
    rng = np.random.default_rng(52)
    links = 0
    for n in (8, 8, 9, 9, 10):
        calc = GradingCalculator(random_grid(rng, n))
        links += calc.components > 1
        got = level_counts(calc)
        assert list(got) == graded_levels(calc, "alex")
        assert got == _enumerated_levels(calc), calc.n
        if n == 9:
            with monkeypatch.context() as patch:
                patch.setattr(generators, "_PASS", 5)
                assert list(level_counts(calc).items()) == list(got.items())
    assert links >= 2


def test_level_counts_refuse_n_21_before_building_moves():
    rng = np.random.default_rng(53)
    calc = GradingCalculator(random_grid(rng, 21))
    before = generators._column_moves.cache_info()
    with pytest.raises(GridResourceError) as raised:
        level_counts(calc)
    assert raised.value.estimate == factorial(21)
    after = generators._column_moves.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_level_counts_check_their_total_is_n_factorial(monkeypatch):
    """A DP that drops one move out of the empty mask loses the (n-1)!
    states that start with it, and the counts no longer sum to n!."""
    original = generators._column_moves

    def one_move_removed(n):
        moves = list(original(n))
        layer, child, row, below = moves[0]
        moves[0] = (layer, child[:, 1:], row[:, 1:], below[:, 1:])
        return moves

    monkeypatch.setattr(generators, "_column_moves", one_move_removed)
    with pytest.raises(InconsistentComplex, match=r"sum to 96, not 5! = 120"):
        level_counts(GradingCalculator(load_corpus("trefoil5")))
    err = io.StringIO()
    assert run(["compute", "corpus:trefoil5"], out=io.StringIO(), err=err) == 1
    assert err.getvalue().startswith("InconsistentComplex: the level counts")


def corrupt_top_of_tail(monkeypatch):
    """Add one to a rank of the highest tail level the table builds."""
    original = homology.level_homology_ranks
    built = []

    def corrupted(lc):
        built.append(lc.alex2)
        ranks = original(lc)
        if lc.alex2 == top:
            m2 = min(ranks, default=int(lc.maslov2[0]))
            ranks[m2] = ranks.get(m2, 0) + 1
        return ranks

    g = load_corpus("trefoil5")
    top = max(s for s in level_counts(GradingCalculator(g))
              if s <= -2 * (g.n - 1))
    monkeypatch.setattr(homology, "level_homology_ranks", corrupted)
    return built


def test_euler_guard_catches_a_corrupted_rank(monkeypatch):
    # The top of trefoil5's tail is -8, and the error names that level.
    from gridhfk.errors import InconsistentComplex
    built = corrupt_top_of_tail(monkeypatch)
    with pytest.raises(InconsistentComplex,
                       match=r"Euler characteristic -?\d+ at alex2 = -8 "):
        hat_ranks(load_corpus("trefoil5"))
    assert built == [-10, -8]
    err = io.StringIO()
    assert run(["compute", "--hat", "corpus:trefoil5"], out=io.StringIO(),
               err=err) == 1
    assert err.getvalue().startswith("InconsistentComplex")
    assert "at alex2 = -8 " in err.getvalue()
    assert err.getvalue().count("\n") == 1


def test_tail_budget_exits_3_before_any_level_is_built(monkeypatch):
    # The tail of trefoil5 (levels up to -8) holds 6 of the 120 states.
    def no_build(*args, **kwargs):
        raise AssertionError("the budget must trip before enumeration")

    for argv in (["compute", "corpus:trefoil5"],
                 ["compute", "--hat", "corpus:trefoil5"]):
        assert run(["--max-generators", "6", *argv], out=io.StringIO(),
                   err=io.StringIO()) == 0
        with monkeypatch.context() as m:
            m.setattr(homology, "generators_up_to", no_build)
            m.setattr(homology, "build_level_complex", no_build)
            err = io.StringIO()
            assert run(["--max-generators", "5", *argv], out=io.StringIO(),
                       err=err) == 3
            assert err.getvalue().startswith("GridResourceError")

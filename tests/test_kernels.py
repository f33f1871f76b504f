"""Elimination, boundary and completion-table kernels.

GF(2) ranks, kernels and prefix images at widths of 60-300 bits are
checked against the plain-int eliminations of the oracle; boundary
entries, split into passes of one, two and three sources or not, and
into a restricted target basis, against the rectangle oracle, and on
an n = 20 pair whose int64 keys collide; boundary entries of the same
rows in uint8, int16 and int64, and their refusal past n = 256; every
mask of the completion
tables against a brute-force completion, the position of every mask
in its layer, and the multi-word tables of
grids of size 8-10 against all n! states; and ``verify_d2`` against a
boundary with one entry flipped.
"""

from itertools import permutations

import numpy as np
import pytest

from gridhfk import generators, rectangles
from gridhfk.errors import GridResourceError, InconsistentComplex
from gridhfk.gf2 import image_in_prefix, kernel_basis, matrix_rank
from gridhfk.gradings import GradingCalculator
from gridhfk.grids import load_corpus, make_grid
from gridhfk.homology import build_level_complex, verify_d2
from gridhfk.rectangles import (
    MODE_FILTERED,
    MODE_LEVEL,
    RectangleCounter,
    boundary_entries,
)

from oracle import (
    gf2_kernel,
    gf2_rank,
    oracle_alex2,
    oracle_boundary_pairs,
    oracle_maslov2,
)

from test_gf2 import column_ints
from test_grids import random_grid


def wide_sparse_matrix(rng, n_rows, n_cols, density):
    """Random sparse entries plus columns that are sums of earlier ones,
    so the rank falls short of both dimensions."""
    columns = []
    for j in range(n_cols):
        if j >= 2 and rng.random() < 0.3:
            a, b = rng.choice(j, size=2, replace=False)
            columns.append(columns[a] ^ columns[b])
        else:
            columns.append({int(r) for r in np.nonzero(rng.random(n_rows) < density)[0]})
    rows = [r for support in columns for r in sorted(support)]
    cols = [j for j, support in enumerate(columns) for _ in support]
    return rows, cols


def test_matrix_rank_and_kernel_at_wide_widths():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n_rows = int(rng.integers(60, 301))
        n_cols = int(rng.integers(60, 301))
        rows, cols = wide_sparse_matrix(rng, n_rows, n_cols,
                                        float(rng.uniform(0.005, 0.05)))
        col_vals = column_ints(rows, cols, n_cols)
        rank = gf2_rank(col_vals)
        assert matrix_rank(rows, cols, n_rows, n_cols) == rank

        want = gf2_kernel(col_vals)
        got = kernel_basis(rows, cols, n_rows, n_cols)
        assert len(got) == len(want) == n_cols - rank
        for combo in got:
            image = 0
            for j in range(n_cols):
                if (combo >> j) & 1:
                    image ^= col_vals[j]
            assert image == 0
        assert gf2_rank(got) == len(got)
        assert gf2_rank(got + want) == len(want)  # the same subspace


def check_image_in_prefix(rows, cols, n_rows, n_cols, prefix):
    col_vals = column_ints(rows, cols, n_cols)
    got = image_in_prefix(rows, cols, n_rows, n_cols, prefix)
    rank = gf2_rank(col_vals)
    # dim(image meet prefix) = rank + prefix - dim(image + prefix)
    want = rank + prefix - gf2_rank(col_vals + [1 << i for i in range(prefix)])
    assert len(got) == want
    assert all(0 < v < (1 << prefix) for v in got)
    assert gf2_rank(got) == len(got)
    assert gf2_rank(col_vals + got) == rank  # inside the image


def test_image_in_prefix_at_word_boundaries():
    rng = np.random.default_rng(41)
    for prefix in (63, 64, 65, 128):
        for _ in range(4):
            n_rows = int(rng.integers(prefix + 1, 301))
            n_cols = int(rng.integers(n_rows - prefix, n_rows + 40))
            rows, cols = wide_sparse_matrix(rng, n_rows, n_cols,
                                            float(rng.uniform(0.01, 0.05)))
            check_image_in_prefix(rows, cols, n_rows, n_cols, prefix)


def test_image_in_prefix_at_wide_widths():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_rows = int(rng.integers(60, 301))
        n_cols = int(rng.integers(30, 301))
        prefix = int(rng.integers(0, n_rows + 1))
        rows, cols = wide_sparse_matrix(rng, n_rows, n_cols,
                                        float(rng.uniform(0.005, 0.05)))
        check_image_in_prefix(rows, cols, n_rows, n_cols, prefix)


def test_filtered_boundary_into_one_maslov_slice_matches_oracle():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 12:
        g = random_grid(rng, int(rng.integers(3, 6)))
        calc = GradingCalculator(g)
        counter = RectangleCounter(g)
        perms = np.array(list(permutations(range(g.n))), dtype=np.int64)
        m2 = calc.maslov2_batch(perms)
        for top in np.unique(m2).tolist():
            sources = perms[m2 == top]
            targets = perms[m2 == top - 2]
            rows, cols = boundary_entries(counter, sources, targets, MODE_FILTERED)
            got = set(zip(rows.tolist(), cols.tolist()))
            want = set(oracle_boundary_pairs(g.x_cols, g.o_cols, sources.tolist(),
                                             targets=targets.tolist(),
                                             mode="filtered"))
            assert got == want
            checked += bool(want)


def test_filtered_boundary_with_empty_lookup_is_empty():
    rng = np.random.default_rng(44)
    for _ in range(5):
        g = random_grid(rng, int(rng.integers(2, 6)))
        sources = np.array(list(permutations(range(g.n))), dtype=np.int64)
        rows, cols = boundary_entries(RectangleCounter(g), sources,
                                      sources[:0], MODE_FILTERED)
        assert len(rows) == len(cols) == 0
        assert oracle_boundary_pairs(g.x_cols, g.o_cols, sources.tolist(),
                                     targets=[], mode="filtered") == []


@pytest.mark.parametrize("per_pass", [1, 2, 3])
def test_boundary_entries_in_uneven_passes_match_oracle(monkeypatch, per_pass):
    """Sources split into passes of ``per_pass`` sources, the last one
    short, give the oracle's entries in both modes, in the same order
    as one pass."""
    rng = np.random.default_rng(45)
    for n in (4, 4, 5, 5, 6, 6):
        g = random_grid(rng, n)
        counter = RectangleCounter(g)
        perms = np.array(list(permutations(range(n))), dtype=np.int64)
        count = 4 * per_pass + 1
        sources = perms[rng.choice(len(perms), size=count, replace=False)]
        for mode in (MODE_LEVEL, MODE_FILTERED):
            whole = boundary_entries(counter, sources, perms, mode)
            with monkeypatch.context() as patch:
                patch.setattr(rectangles, "_CHUNK", per_pass * n * (n - 1))
                rows, cols = boundary_entries(counter, sources, perms, mode)
            want = oracle_boundary_pairs(g.x_cols, g.o_cols, sources.tolist(),
                                         targets=perms.tolist(), mode=mode)
            assert sorted(zip(cols.tolist(), rows.tolist())) == sorted(
                (src, tgt) for tgt, src in want)
            assert np.array_equal(rows, whole[0])
            assert np.array_equal(cols, whole[1])


def test_boundary_entries_are_exact_where_target_keys_collide():
    """At n = 20 the mixed-radix keys of p and q coincide, though q
    differs from s, p with its columns 0 and 1 swapped, in all 20
    places.  The swap is an empty rectangle on this grid, so s -> p is
    an entry and s -> q is not, in either mode and whichever of the two
    colliding targets sorts first.  t, s with columns 5 and 6 swapped,
    is an entry too, whose key sorts after the colliding pair: it is
    found once, not once per target that shares a key."""
    n = 20
    p = np.array([1, 12, 14, 10, 8, 15, 6, 5, 16, 17, 2, 3, 4, 7, 19, 9, 0,
                  18, 11, 13], dtype=np.int64)
    q = np.array([5, 11, 15, 12, 4, 16, 1, 3, 14, 18, 9, 6, 7, 2, 17, 0, 8,
                  19, 13, 10], dtype=np.int64)
    weights = n ** np.arange(n, dtype=np.int64)
    assert p @ weights == q @ weights
    s = p[[1, 0, *range(2, n)]]
    assert np.all(s != q)
    t = s[[*range(5), 6, 5, *range(7, n)]]
    assert t @ weights > p @ weights
    calc = GradingCalculator(make_grid([(r - 1) % n for r in range(n)],
                                       [(r - 2) % n for r in range(n)]))
    for mode in (MODE_LEVEL, MODE_FILTERED):
        rows, cols = boundary_entries(calc.rectangles, s[None], q[None], mode)
        assert len(rows) == len(cols) == 0, mode
        for targets, want in (([p], [0]), ([q, p], [1]), ([p, q], [0]),
                              ([q, p, t], [1, 2]), ([t, p, q], [0, 1])):
            rows, cols = boundary_entries(calc.rectangles, s[None],
                                          np.stack(targets), mode)
            assert (rows.tolist(), cols.tolist()) == (want, [0] * len(want)), \
                mode


def test_boundary_entries_do_not_depend_on_the_row_dtype():
    """The same sources and targets, each given as uint8, int16 or int64
    rows, give the same entries in both modes, the oracle's; a grid
    past the uint8 range of rows is refused."""
    rng = np.random.default_rng(49)
    dtypes = (np.uint8, np.int16, np.int64)
    for n in (4, 5, 6, 7):
        g = random_grid(rng, n)
        counter = RectangleCounter(g)
        perms = generators.enumerate_all(g)
        sources = perms[rng.choice(len(perms), size=12, replace=False)]
        targets = perms[rng.permutation(len(perms))[:len(perms) // 2]]
        for mode in (MODE_LEVEL, MODE_FILTERED):
            want = oracle_boundary_pairs(g.x_cols, g.o_cols, sources.tolist(),
                                         targets=targets.tolist(), mode=mode)
            first = boundary_entries(counter, sources, targets, mode)
            assert sorted(zip(*first)) == sorted(want), (n, mode)
            for src in dtypes:
                for tgt in dtypes:
                    rows, cols = boundary_entries(counter, sources.astype(src),
                                                  targets.astype(tgt), mode)
                    assert np.array_equal(rows, first[0]), (n, mode, src, tgt)
                    assert np.array_equal(cols, first[1]), (n, mode, src, tgt)
    n = 257
    big = RectangleCounter(make_grid([(r - 1) % n for r in range(n)],
                                     [(r - 2) % n for r in range(n)]))
    row = np.arange(n, dtype=np.int64)[None]
    with pytest.raises(ValueError, match="257"):
        boundary_entries(big, row, row, MODE_LEVEL)


def _reachable_by_brute_force(g, grading, mask, shift, base):
    """Relative values the free rows of ``mask`` add over every completion.

    The mask's rows fill columns 0..c-1 in increasing order; each
    completion is graded by the oracle and taken relative to the base
    and to that prefix's own value.
    """
    n = g.n
    prefix = [r for r in range(n) if mask >> r & 1]
    free = [r for r in range(n) if not mask >> r & 1]
    grade = oracle_alex2 if grading == "alex" else oracle_maslov2
    # The prefix's relative value: its per-move shifts, plus its
    # increasing pairs for maslov2 / 2.
    own = sum(int(shift[c][r]) for c, r in enumerate(prefix))
    if grading == "maslov":
        own += len(prefix) * (len(prefix) - 1) // 2
    return {(grade(g.x_cols, g.o_cols, prefix + list(rest)) - base) // 2 - own
            for rest in permutations(free)}


def test_completion_tables_match_brute_force_on_every_mask():
    """For n <= 6, both gradings and every used-row mask, the relative
    values the table marks reachable are those of the mask's completions.
    Two grids of each size share the column moves cached for that size."""
    rng = np.random.default_rng(46)
    for n in range(2, 7):
        generators._column_moves.cache_clear()
        for _ in range(2):
            g = random_grid(rng, n)
            calc = GradingCalculator(g)
            for grading in ("alex", "maslov"):
                shift, base, _, _, reach = generators._completion_table(calc, grading)
                for mask in range(1 << n):
                    got = set(generators._set_bits(reach[:, mask]))
                    want = _reachable_by_brute_force(g, grading, mask, shift, base)
                    assert got == want, (n, grading, mask)
        info = generators._column_moves.cache_info()
        assert info.misses == 1 and info.hits == 3


def test_column_moves_give_each_mask_its_position_in_its_layer():
    """For n = 2..12, the masks of each column's layer sit at positions
    0 .. len(layer) - 1, the full mask at 0, and every parent's free
    rows come in increasing order, the order the enumeration lists."""
    for n in range(2, 13):
        position, moves = generators._column_moves(n)
        assert position.dtype == np.int32 and position.shape == (1 << n,)
        assert position[(1 << n) - 1] == 0
        for layer, child, row, below in moves:
            assert position[layer].tolist() == list(range(len(layer)))
            assert (np.diff(row.astype(np.int16), axis=1) > 0).all()
        assert sum(len(layer) for layer, *_ in moves) + 1 == 1 << n


@pytest.mark.parametrize("words", [1, 2, 3, 4, 5])
def test_shift_left_matches_python_int_shifts(words):
    rng = np.random.default_rng(47)
    x = rng.integers(0, 1 << 64, size=(40, words), dtype=np.uint64)
    bits = np.concatenate([[0, 63, 1, 62], rng.integers(0, 64, size=36)]).astype(np.uint64)
    got = generators._shift_left(x.T.copy(), bits).T
    top = (1 << 64 * words) - 1
    for row, b, out in zip(x.tolist(), bits.tolist(), got.tolist()):
        value = sum(w << 64 * i for i, w in enumerate(row))
        assert sum(w << 64 * i for i, w in enumerate(out)) == value << b & top


def _check_maslov_table_against_all_states(calc, slices, pair):
    """The attained maslov2 values, and the generators of each of
    ``slices`` and of the slice set ``pair`` with their maslov2, are
    those of the n! states, in lexicographic order; a budget one short
    of the pair raises."""
    perms = generators.enumerate_all(calc)
    m2 = calc.maslov2_batch(perms)
    assert generators.graded_levels(calc, "maslov") == np.unique(m2).tolist()
    for targets in [[level] for level in slices] + [pair]:
        got, values = generators.graded_generators(calc, "maslov", targets)
        kept = np.isin(m2, targets)
        assert got.dtype == np.uint8
        assert np.array_equal(got, perms[kept])
        assert np.array_equal(values, m2[kept])
    with pytest.raises(GridResourceError):
        generators.graded_generators(calc, "maslov", pair,
                                     int(np.isin(m2, pair).sum()) - 1)


def test_two_word_maslov_tables_match_full_enumeration():
    """Grids of size 8-9 whose Maslov table is two words wide, on every
    slice and on a two-slice set."""
    rng = np.random.default_rng(48)
    checked = 0
    while checked < 3:
        calc = GradingCalculator(random_grid(rng, int(rng.integers(8, 10))))
        if generators._completion_table(calc, "maslov")[3] <= 64:
            continue
        levels = generators.graded_levels(calc, "maslov")
        _check_maslov_table_against_all_states(calc, levels, [levels[1], levels[-2]])
        checked += 1


def test_maslov_values_past_bit_63_match_full_enumeration():
    """At n <= 9 every attained relative value stays below 64, so the
    second word of those tables is empty.  On this n=10 grid four
    slices sit past bit 63, reached only through carries between words."""
    calc = GradingCalculator(make_grid([4, 0, 2, 1, 7, 9, 8, 6, 3, 5],
                                       [7, 9, 8, 5, 4, 6, 3, 1, 2, 0]))
    base = generators._completion_table(calc, "maslov")[1]
    levels = generators.graded_levels(calc, "maslov")
    high = [level for level in levels if level - base >= 2 * 64]
    assert len(high) == 4
    _check_maslov_table_against_all_states(calc, high, [levels[3], high[0]])


def test_verify_d2_catches_one_flipped_entry():
    """Dropping an entry x -> y of a level complex, where y has a nonzero
    boundary, leaves d^2 x = d y != 0."""
    flipped = 0
    for name in ["trefoil5", "figure_eight6", "knot_5_2_7"]:
        g = load_corpus(name)
        calc = GradingCalculator(g)
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            lc = build_level_complex(calc, a2)
            rows, cols = boundary_entries(calc.rectangles, lc.gens, lc.gens,
                                          MODE_LEVEL)
            verify_d2(rows, cols, lc.size)
            has_boundary = set(cols.tolist())
            for i in range(len(rows)):
                if int(rows[i]) in has_boundary:
                    keep = np.arange(len(rows)) != i
                    with pytest.raises(InconsistentComplex, match="from generator"):
                        verify_d2(rows[keep], cols[keep], lc.size)
                    flipped += 1
                    break
    assert flipped >= 3

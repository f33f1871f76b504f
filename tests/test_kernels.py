"""Elimination, boundary and completion-table kernels.

GF(2) ranks, kernels and prefix images at widths of 60-300 bits are
checked against the plain-int eliminations of the oracle; boundary
entries, split into passes of one, two and three sources or not, and
into a restricted target basis, against the rectangle oracle; every
mask of the completion tables against a brute-force completion; and
``verify_d2`` against a boundary with one entry flipped.
"""

from itertools import permutations

import numpy as np
import pytest

from gridhfk import generators, rectangles
from gridhfk.errors import InconsistentComplex
from gridhfk.gf2 import image_in_prefix, kernel_basis, matrix_rank
from gridhfk.gradings import GradingCalculator
from gridhfk.generators import encode_perms
from gridhfk.grids import load_corpus
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
            lookup = {int(k): i for i, k in enumerate(encode_perms(targets, g.n))}
            rows, cols = boundary_entries(counter, sources, lookup, MODE_FILTERED)
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
        rows, cols = boundary_entries(RectangleCounter(g), sources, {},
                                      MODE_FILTERED)
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
        lookup = {int(k): i for i, k in enumerate(encode_perms(perms, n))}
        for mode in (MODE_LEVEL, MODE_FILTERED):
            whole = boundary_entries(counter, sources, lookup, mode)
            with monkeypatch.context() as patch:
                patch.setattr(rectangles, "_CHUNK", per_pass * n * (n - 1))
                rows, cols = boundary_entries(counter, sources, lookup, mode)
            want = oracle_boundary_pairs(g.x_cols, g.o_cols, sources.tolist(),
                                         targets=perms.tolist(), mode=mode)
            assert sorted(zip(cols.tolist(), rows.tolist())) == sorted(
                (src, tgt) for tgt, src in want)
            assert np.array_equal(rows, whole[0])
            assert np.array_equal(cols, whole[1])


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
    Two grids of each size share the move groups cached for that size."""
    rng = np.random.default_rng(46)
    for n in range(2, 7):
        generators._move_groups.cache_clear()
        for _ in range(2):
            g = random_grid(rng, n)
            calc = GradingCalculator(g)
            for grading in ("alex", "maslov"):
                shift, base, _, counts = generators._completion_table(calc, grading)
                for mask in range(1 << n):
                    got = set(np.flatnonzero(np.diff(counts[mask])).tolist())
                    want = _reachable_by_brute_force(g, grading, mask, shift, base)
                    assert got == want, (n, grading, mask)
        info = generators._move_groups.cache_info()
        assert info.misses == 1 and info.hits == 3


def test_verify_d2_catches_one_flipped_entry():
    """Dropping an entry x -> y of a level complex, where y has a nonzero
    boundary, leaves d^2 x = d y != 0."""
    flipped = 0
    for name in ["trefoil5", "figure_eight6", "knot_5_2_7"]:
        g = load_corpus(name)
        calc = GradingCalculator(g)
        for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
            lc = build_level_complex(g, a2)
            verify_d2(lc.rows, lc.cols, lc.size)
            has_boundary = set(lc.cols.tolist())
            for i in range(len(lc.rows)):
                if int(lc.rows[i]) in has_boundary:
                    keep = np.arange(len(lc.rows)) != i
                    with pytest.raises(InconsistentComplex, match="from generator"):
                        verify_d2(lc.rows[keep], lc.cols[keep], lc.size)
                    flipped += 1
                    break
    assert flipped >= 3

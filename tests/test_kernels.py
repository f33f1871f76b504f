"""Elimination and boundary kernels at wide widths and in the filtered mode.

GF(2) ranks, kernels and prefix images at widths of 60-300 bits are
checked against the plain-int eliminations of the oracle, and filtered
boundary entries into a restricted target basis against the rectangle
oracle.
"""

from itertools import permutations

import numpy as np

from gridhfk.gf2 import image_in_prefix, kernel_basis, matrix_rank
from gridhfk.gradings import GradingCalculator
from gridhfk.generators import encode_perms
from gridhfk.rectangles import MODE_FILTERED, RectangleCounter, boundary_entries

from oracle import gf2_kernel, gf2_rank, oracle_boundary_pairs

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

"""Int-bitset GF(2) linear algebra cross-checked against brute force.

Brute force here means enumerating the full span as a set of Python
ints, so dimensions come from set sizes, never from the code under
test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhfk.gf2 import (
    image_in_prefix,
    insert,
    kernel_basis,
    matrix_rank,
    span_intersection_dim,
    vector_from_indices,
)


def span_of_ints(gens):
    span = {0}
    for g in gens:
        span |= {s ^ g for s in span}
    return span


def dim_of_span(gens):
    size = len(span_of_ints(gens))
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def random_sparse_matrix(rng, n_rows, n_cols, density=0.4):
    entries = sorted(
        {
            (int(r), int(c))
            for r in range(n_rows)
            for c in range(n_cols)
            if rng.random() < density
        }
    )
    rows = [r for r, _ in entries]
    cols = [c for _, c in entries]
    return rows, cols


def column_ints(rows, cols, n_cols):
    out = [0] * n_cols
    for r, c in zip(rows, cols):
        out[c] ^= 1 << r
    return out


# --------------------------------------------------------------------------
# vectors and the echelon basis


def test_vector_from_indices_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        width = int(rng.integers(1, 300))
        indices = sorted(
            {int(i) for i in rng.integers(0, width, size=rng.integers(0, 12))}
        )
        assert vector_from_indices(indices) == sum(1 << i for i in indices)
        # a repeated index flips its bit back
        assert vector_from_indices(indices + indices[:1]) == sum(
            1 << i for i in indices[1:]
        )


def test_xor_basis_rank_matches_span_size():
    rng = np.random.default_rng(2)
    for _ in range(50):
        width = int(rng.integers(1, 40))
        count = int(rng.integers(0, 12))
        vecs = []
        for _ in range(count):
            support = [int(i) for i in np.nonzero(rng.random(width) < 0.3)[0]]
            vecs.append(vector_from_indices(support))
        pivots = {}
        for v in vecs:
            insert(pivots, v)
        assert len(pivots) == dim_of_span(vecs)
        # every basis vector is keyed by its leading bit
        assert all(v.bit_length() - 1 == lead for lead, v in pivots.items())


def test_insert_returns_fresh_lead_or_minus_one():
    a = vector_from_indices([0, 65])
    b = vector_from_indices([65])
    pivots = {}
    assert insert(pivots, a) == 65
    assert insert(pivots, b) == 0
    assert insert(pivots, a ^ b) == -1  # dependent
    assert insert(pivots, 0) == -1
    assert sorted(pivots) == [0, 65]


# --------------------------------------------------------------------------
# sparse-matrix operations vs brute force


def test_matrix_rank_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n_rows = int(rng.integers(1, 11))
        n_cols = int(rng.integers(1, 11))
        rows, cols = random_sparse_matrix(rng, n_rows, n_cols)
        want = dim_of_span(column_ints(rows, cols, n_cols))
        assert matrix_rank(rows, cols, n_rows, n_cols) == want


def test_kernel_basis_spans_exact_kernel():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n_rows = int(rng.integers(1, 9))
        n_cols = int(rng.integers(1, 9))
        rows, cols = random_sparse_matrix(rng, n_rows, n_cols)
        col_vals = column_ints(rows, cols, n_cols)
        kernel = kernel_basis(rows, cols, n_rows, n_cols)
        # every kernel vector maps to zero
        for combo in kernel:
            assert type(combo) is int
            image = 0
            for j in range(n_cols):
                if (combo >> j) & 1:
                    image ^= col_vals[j]
            assert image == 0
        # rank-nullity and independence
        rank = dim_of_span(col_vals)
        assert dim_of_span(kernel) == len(kernel)
        assert len(kernel) == n_cols - rank


def test_span_intersection_dim_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        width = int(rng.integers(1, 16))
        def sample(count):
            vecs = []
            for _ in range(count):
                support = [
                    int(i) for i in np.nonzero(rng.random(width) < 0.4)[0]
                ]
                vecs.append(vector_from_indices(support))
            return vecs
        a = sample(int(rng.integers(0, 6)))
        b = sample(int(rng.integers(0, 6)))
        span_a = span_of_ints(a)
        span_b = span_of_ints(b)
        size = len(span_a & span_b)
        assert size & (size - 1) == 0
        want = size.bit_length() - 1
        assert span_intersection_dim(a, b, width) == want


def test_image_in_prefix_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_rows = int(rng.integers(1, 11))
        n_cols = int(rng.integers(1, 11))
        prefix = int(rng.integers(0, n_rows + 1))
        rows, cols = random_sparse_matrix(rng, n_rows, n_cols)
        got_ints = image_in_prefix(rows, cols, n_rows, n_cols, prefix)
        # returned vectors live inside the prefix subspace
        mask = (1 << prefix) - 1
        assert all(v and v == (v & mask) for v in got_ints)
        # and they are independent
        assert dim_of_span(got_ints) == len(got_ints)
        # the span equals image ∩ prefix-subspace, computed by brute force
        image = span_of_ints(column_ints(rows, cols, n_cols))
        want = {v for v in image if v == (v & mask)}
        assert span_of_ints(got_ints) == want


# --------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_properties(data):
    n_rows = data.draw(st.integers(1, 8))
    n_cols = data.draw(st.integers(1, 8))
    entries = data.draw(
        st.sets(
            st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)
            ),
            max_size=30,
        )
    )
    rows = [r for r, _ in sorted(entries)]
    cols = [c for _, c in sorted(entries)]
    rank = matrix_rank(rows, cols, n_rows, n_cols)
    assert 0 <= rank <= min(n_rows, n_cols)
    # duplicating every column leaves the rank unchanged
    rows2 = rows + rows
    cols2 = cols + [c + n_cols for c in cols]
    assert matrix_rank(rows2, cols2, n_rows, 2 * n_cols) == rank
    # rank + nullity = number of columns
    null = len(kernel_basis(rows, cols, n_rows, n_cols))
    assert rank + null == n_cols


def test_empty_matrix_contracts():
    assert matrix_rank([], [], 5, 4) == 0
    assert len(kernel_basis([], [], 5, 4)) == 4
    assert image_in_prefix([], [], 5, 4, 3) == []
    assert span_intersection_dim([], [], 8) == 0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

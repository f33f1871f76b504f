"""Linear algebra over GF(2) on Python-int bitsets.

A vector is a Python int whose bit i is coordinate i, in and out of
every function here: ``int.bit_length`` finds the leading bit and ``^``
adds two vectors, both native.  A subspace is held as an echelon basis,
a plain dict mapping each leading (highest set) bit to its basis vector,
grown by ``insert``.  That one structure answers everything the
homology layer needs, which is ranks: ``matrix_rank`` per Maslov block,
and ``image_in_prefix``, whose leading-bit positions tell which part of
an image lies inside a chosen coordinate subspace.  Those two are the
only ones the package calls.  ``kernel_basis`` and
``span_intersection_dim`` stay as references for the tests, which
recompute τ's slice terms from cycles with them, and as sites that
perfbench's traced run wraps.

Sparse matrices arrive as (row, column) entry arrays and are eliminated
column by column; each column's int is built only when the elimination
reaches it, so the working set is the echelon basis plus one column.

Reducing a vector against the basis is deterministic, so every caller
sees results independent of insertion order chunking; callers that need
canonical output sort their basis vectors themselves.  The widths
``n_rows`` and ``width_bits`` are not needed by int vectors; they stay
in the signatures because perfbench's span notes read them.
"""

from __future__ import annotations

import numpy as np


def vector_from_indices(indices):
    """The int with bit i flipped once per occurrence of the int i."""
    value = 0
    for i in indices:
        value ^= 1 << i
    return value


def insert(pivots, value):
    """Reduce ``value`` against the echelon basis ``pivots`` and add it.

    ``pivots`` maps leading bits to basis vectors and is updated in
    place.  Returns the lead of the reduced vector, or -1 when ``value``
    lies in the span already.
    """
    while value:
        lead = value.bit_length() - 1
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = value
            return lead
        value ^= pivot
    return -1


def _echelon(vectors):
    pivots = {}
    for value in vectors:
        insert(pivots, value)
    return pivots


def sparse_columns(rows, cols, n_cols):
    """Bucket sparse entries into per-column row-index lists.

    Yields the lists in column order.  Entries are grouped with one
    stable sort; the list of a column is made only when the consumer
    reaches it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.argsort(cols, kind="stable")
    rows = rows[order]
    bounds = np.searchsorted(cols[order], np.arange(n_cols + 1)).tolist()
    for j in range(n_cols):
        yield rows[bounds[j]:bounds[j + 1]].tolist()


def _column_basis(rows, cols, n_cols):
    return _echelon(vector_from_indices(support)
                    for support in sparse_columns(rows, cols, n_cols))


def matrix_rank(rows, cols, n_rows, n_cols):
    """Rank of a sparse GF(2) matrix given by entry index arrays."""
    return len(_column_basis(rows, cols, n_cols))


def kernel_basis(rows, cols, n_rows, n_cols):
    """Basis of the right kernel, as ints over the column space.

    Column j enters as its vector shifted above an identity tag, bit j.
    Until its vector part reduces to zero, its lead lies above the tags;
    then its lead is bit j, which no earlier vector can hold, so it is
    kept as a pivot below ``n_cols`` and its tag is a kernel vector.
    """
    pivots = {}
    kernel = []
    for j, support in enumerate(sparse_columns(rows, cols, n_cols)):
        lead = insert(pivots, (vector_from_indices(support) << n_cols) | (1 << j))
        if lead < n_cols:
            kernel.append(pivots[lead])
    return kernel


def span_intersection_dim(vectors_a, vectors_b, width_bits):
    """dim(span A  intersect  span B) for two lists of int vectors."""
    basis_a = _echelon(vectors_a)
    basis_b = _echelon(vectors_b)
    joint = dict(basis_a)
    for value in basis_b.values():
        insert(joint, value)
    return len(basis_a) + len(basis_b) - len(joint)


def image_in_prefix(rows, cols, n_rows, n_cols, prefix_bits):
    """Echelon basis of (column span) intersected with the first rows.

    Row indices below ``prefix_bits`` occupy the low bit positions, so
    an echelon vector whose lead falls under the prefix lies entirely in
    the prefix coordinate subspace, and those vectors span exactly the
    intersection of the image with that subspace.  Returns them as ints
    below ``2**prefix_bits``, in increasing order of lead.
    """
    basis = _column_basis(rows, cols, n_cols)
    return [basis[lead] for lead in sorted(basis) if lead < prefix_bits]

"""Linear algebra over GF(2): packed words at the API, Python ints inside.

Vectors cross the API as packed uint64 words, 64 coordinates per word,
coordinate i in bit i & 63 of word i >> 6.  Every elimination runs on
Python-int bitsets instead: ``int.bit_length`` finds the leading bit and
``^`` adds two vectors, both native, and the words are converted only at
the edges with ``int.from_bytes`` and ``int.to_bytes``.  A subspace is
held as an echelon basis keyed by leading (highest set) bit.  That one
structure answers everything the homology layer needs: ranks, kernels,
and echelon spans whose leading-bit positions reveal membership facts
such as "which part of the image lies inside a chosen coordinate
subspace".

Sparse matrices arrive as (row, column) entry arrays and are eliminated
column by column; each column's int is built only when the elimination
reaches it, so the working set is the echelon basis plus one column.

Reducing a vector against the basis is deterministic, so every caller
sees results independent of insertion order chunking; callers that need
canonical output sort their basis vectors themselves.
"""

from __future__ import annotations

import numpy as np


def _words(width_bits):
    return (width_bits + 63) // 64


def _to_int(vec):
    """The int of a packed vector."""
    return int.from_bytes(np.asarray(vec, dtype="<u8").tobytes(), "little")


def _to_packed(value, width_bits):
    """The packed vector of an int below 2**width_bits."""
    data = value.to_bytes(8 * _words(width_bits), "little")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def _from_indices(indices):
    """The int with bit i flipped once per occurrence of i."""
    value = 0
    for i in indices:
        value ^= 1 << i
    return value


def zero_vector(width_bits):
    return np.zeros(_words(width_bits), dtype=np.uint64)


def vector_from_indices(indices, width_bits):
    return _to_packed(_from_indices(int(i) for i in indices), width_bits)


def leading_bit(vec):
    """Index of the highest set bit, or -1 for the zero vector."""
    return _to_int(vec).bit_length() - 1


def _reduce(value, pivots):
    """XOR pivots into ``value`` until its lead is fresh; (value, lead)."""
    while value:
        lead = value.bit_length() - 1
        pivot = pivots.get(lead)
        if pivot is None:
            return value, lead
        value ^= pivot
    return 0, -1


class XorBasis:
    """Echelon basis over GF(2) with vectors keyed by leading bit.

    ``pivots`` maps each leading bit to its basis vector as an int.
    """

    def __init__(self, width_bits):
        self.width_bits = width_bits
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """XOR pivots into ``vec`` until its lead is fresh or it is zero.

        Mutates and returns ``vec``.
        """
        vec[:] = _to_packed(_reduce(_to_int(vec), self.pivots)[0], self.width_bits)
        return vec

    def add(self, vec):
        """Insert a vector; returns its pivot position or -1 if dependent."""
        return self._add_int(_to_int(vec))

    def _add_int(self, value):
        value, lead = _reduce(value, self.pivots)
        if lead >= 0:
            self.pivots[lead] = value
        return lead

    def contains(self, vec):
        return _reduce(_to_int(vec), self.pivots)[1] < 0

    def basis_rows(self):
        return [_to_packed(self.pivots[lead], self.width_bits)
                for lead in sorted(self.pivots)]


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


def _column_basis(rows, cols, n_rows, n_cols):
    basis = XorBasis(n_rows)
    for support in sparse_columns(rows, cols, n_cols):
        if support:
            basis._add_int(_from_indices(support))
    return basis


def matrix_rank(rows, cols, n_rows, n_cols):
    """Rank of a sparse GF(2) matrix given by entry index arrays."""
    return _column_basis(rows, cols, n_rows, n_cols).rank


def kernel_basis(rows, cols, n_rows, n_cols):
    """Basis of the right kernel, as vectors over the column space.

    Columns are processed in order with an identity tag appended; a
    column that reduces to zero donates its tag as a kernel vector.
    """
    pivots = {}
    tags = {}
    kernel = []
    for j, support in enumerate(sparse_columns(rows, cols, n_cols)):
        value = _from_indices(support)
        tag = 1 << j
        while True:
            if not value:
                kernel.append(_to_packed(tag, n_cols))
                break
            lead = value.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = value
                tags[lead] = tag
                break
            value ^= pivot
            tag ^= tags[lead]
    return kernel


def span_intersection_dim(vectors_a, vectors_b, width_bits):
    """dim(span A  intersect  span B) for two lists of packed vectors."""
    basis_a = XorBasis(width_bits)
    for v in vectors_a:
        basis_a.add(v)
    basis_b = XorBasis(width_bits)
    for v in vectors_b:
        basis_b.add(v)
    joint = XorBasis(width_bits)
    for value in list(basis_a.pivots.values()) + list(basis_b.pivots.values()):
        joint._add_int(value)
    return basis_a.rank + basis_b.rank - joint.rank


def image_in_prefix(rows, cols, n_rows, n_cols, prefix_bits):
    """Echelon basis of (column span) intersected with the first rows.

    Row indices below ``prefix_bits`` occupy the low bit positions, so
    an echelon vector whose lead falls under the prefix lies entirely in
    the prefix coordinate subspace, and those vectors span exactly the
    intersection of the image with that subspace.  Returned vectors are
    cropped to prefix width.
    """
    basis = _column_basis(rows, cols, n_rows, n_cols)
    return [_to_packed(basis.pivots[lead], prefix_bits)
            for lead in sorted(basis.pivots) if lead < prefix_bits]

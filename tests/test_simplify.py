"""Grid simplification: destabilizations found directly or after a short
breadth-first search over cyclic commutations.

Random grids are stabilized and commuted by helpers of this file, which
do not share code with ``grids``; the simplified grid must carry the
same invariants, computed by the brute-force oracle where it can.
"""

import numpy as np

from gridhfk.grids import (
    _commutations,
    _destabilize,
    connected_sum,
    list_corpus,
    load_corpus,
    make_grid,
    simplify,
)
from gridhfk.invariants import tau_bot_is_minus_g, tau_top_is_g

from oracle import oracle_alexander, oracle_components, oracle_hat_ranks
from test_grids import random_grid

NOT_MINIMAL = {"unknot3": 2, "unknot4": 2, "unknot5": 2, "trefoil6": 5}

# The murasugi --connect pairs of the benchmark workloads, and
# knot_5_2_7#trefoil5, which a search of depth 4 cannot shrink.
CONNECT_PAIRS = [("figure_eight6", "unknot3"), ("trefoil5", "trefoil6"),
                 ("trefoil5", "unknot3"), ("hopf_plus4", "hopf_minus4"),
                 ("trefoil5", "hopf_plus4"), ("trefoil_left5", "hopf_minus4"),
                 ("trefoil5", "trefoil_left5"), ("hopf_plus4", "hopf_plus4"),
                 ("trefoil5", "trefoil5"), ("knot_5_2_7", "trefoil5")]


def stabilize(grid, row, kind_x, dr, dc):
    """Replace the X (``kind_x``) or the O of ``row`` by a 2x2 block.

    A new row goes in below (dr = 0) or above (dr = 1) the marking and
    a new column left (dc = 0) or right (dc = 1) of it.  The marking
    moves along its row into the new column, and the new row takes a
    marking of the same kind in the old column and one of the other
    kind in the new column, where the two meet.
    """
    x, o = list(grid.x_cols), list(grid.o_cols)
    moves, stays = (x, o) if kind_x else (o, x)
    col = moves[row]
    at_row, at_col = row + dr, col + dc
    moves = [c + (c >= at_col) for c in moves]
    stays = [c + (c >= at_col) for c in stays]
    old_col = moves[row]
    moves[row] = at_col
    moves.insert(at_row, old_col)
    stays.insert(at_row, at_col)
    return make_grid(*((moves, stays) if kind_x else (stays, moves)))


def _apart(a, b, p, q):
    # Four distinct positions and the pairs do not cross: the open
    # interval between a and b holds both or neither of p and q.
    if len({a, b, p, q}) < 4:
        return False
    inside = set(range(min(a, b) + 1, max(a, b)))
    return len({p, q} & inside) != 1


def legal_commutations(grid):
    """Every grid one commutation of two cyclically adjacent rows or
    columns away."""
    n, x, o = grid.n, list(grid.x_cols), list(grid.o_cols)
    found = []
    for r in range(n):
        s = (r + 1) % n
        if _apart(x[r], o[r], x[s], o[s]):
            nx, no = list(x), list(o)
            nx[r], nx[s] = x[s], x[r]
            no[r], no[s] = o[s], o[r]
            found.append(make_grid(nx, no))
    for c in range(n):
        d = (c + 1) % n
        if _apart(x.index(c), o.index(c), x.index(d), o.index(d)):
            relabel = {c: d, d: c}
            found.append(make_grid([relabel.get(v, v) for v in x],
                                   [relabel.get(v, v) for v in o]))
    return found


def test_commutations_are_the_non_interleaving_distinct_swaps():
    rng = np.random.default_rng(61)
    offered = 0
    for _ in range(300):
        g = random_grid(rng, int(rng.integers(3, 9)))
        want = {(h.x_cols, h.o_cols) for h in legal_commutations(g)}
        got = list(_commutations(g.x_cols, g.o_cols))
        assert len(got) == len(set(got)) and set(got) == want, g
        offered += len(want)
    assert offered > 300


def three_marking_blocks(grid):
    """(row, column) of the lower left cell of every cyclic 2x2 block
    that holds exactly three markings."""
    n = grid.n
    marked = {(r, c) for r in range(n) for c in (grid.x_cols[r], grid.o_cols[r])}
    return [(r, c) for r in range(n) for c in range(n)
            if sum(((r + i) % n, (c + j) % n) in marked
                   for i in (0, 1) for j in (0, 1)) == 3]


def test_destabilization_needs_a_block_with_three_markings():
    # A row with its X and O in adjacent columns is not enough: the
    # corner's column must hold its other marking in an adjacent row.
    rng = np.random.default_rng(60)
    found = [0, 0]
    for _ in range(400):
        g = random_grid(rng, int(rng.integers(3, 8)))
        smaller = _destabilize(g.x_cols, g.o_cols)
        has_block = bool(three_marking_blocks(g))
        assert (smaller is not None) == has_block, g
        if smaller is not None:
            assert make_grid(*smaller).n == g.n - 1
        found[has_block] += 1
    assert min(found) > 50


def test_simplify_keeps_the_invariants_of_stabilized_grids():
    rng = np.random.default_rng(62)
    shrunk = 0
    for _ in range(110):
        g0 = random_grid(rng, int(rng.integers(2, 6)))
        g = g0
        for _ in range(int(rng.integers(1, 3))):
            g = stabilize(g, int(rng.integers(g.n)), bool(rng.integers(2)),
                          int(rng.integers(2)), int(rng.integers(2)))
        for _ in range(int(rng.integers(0, 4))):
            moves = legal_commutations(g)
            if moves:
                g = moves[int(rng.integers(len(moves)))]
        s = simplify(g)
        assert s.n <= g0.n < g.n, (g0, g, s)
        shrunk += s.n < g0.n
        x0, o0 = g0.x_cols, g0.o_cols
        assert oracle_hat_ranks(s.x_cols, s.o_cols) == oracle_hat_ranks(x0, o0)
        components = oracle_components(x0, o0)
        assert oracle_components(s.x_cols, s.o_cols) == components
        assert components == oracle_components(g.x_cols, g.o_cols)
        if components == 1:
            assert (oracle_alexander(s.x_cols, s.o_cols)
                    == oracle_alexander(x0, o0))
        for flag in (tau_top_is_g, tau_bot_is_minus_g):
            assert flag(s) == flag(g) == flag(g0), (flag.__name__, g0, g)
    assert shrunk  # some random grids are not minimal themselves


def test_minimal_corpus_grids_come_back_unchanged():
    for name in list_corpus():
        g = load_corpus(name)
        s = simplify(g)
        if name in NOT_MINIMAL:
            assert s.n == NOT_MINIMAL[name], name
        else:
            assert s is g, name


def test_a_block_with_four_markings_is_a_split_unknot_and_stays():
    # Rows 0 and 1 hold an unknot inside columns 0 and 1, apart from the
    # unknot of rows 2 and 3: the two-component unlink, at its arc index.
    g = make_grid([1, 0, 3, 2], [0, 1, 2, 3])
    assert simplify(g) is g


def test_connected_sums_reach_the_arc_index_bound():
    # Arc index is additive minus two under connected sum (Cromwell).
    for a, b in CONNECT_PAIRS:
        ga, gb = simplify(load_corpus(a)), simplify(load_corpus(b))
        total = connected_sum(ga, gb)
        assert total.n == ga.n + gb.n - 1
        assert simplify(total).n == ga.n + gb.n - 2, (a, b)


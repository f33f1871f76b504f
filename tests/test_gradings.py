"""Batch grading formulas against the brute-force pair-counting oracle."""

from itertools import permutations

import numpy as np

from gridhfk.gradings import GradingCalculator
from gridhfk.grids import make_grid

from oracle import oracle_alex2, oracle_maslov2

from test_grids import random_grid


def _gradings(calc, perms):
    """(maslov2, alex2) of each row of ``perms``, from the batch graders."""
    perms = np.asarray(perms)
    return list(zip(calc.maslov2_batch(perms).tolist(),
                    calc.alex2_batch(perms).tolist()))


def test_two_by_two_unknot_frozen_values():
    calc = GradingCalculator(make_grid([1, 0], [0, 1]))
    values = set(_gradings(calc, [[1, 0], [0, 1]]))
    assert values == {(0, 0), (-2, -2)}


def test_gradings_match_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(150):
        g = random_grid(rng, int(rng.integers(2, 12)))
        calc = GradingCalculator(g)
        for _ in range(3):
            p = tuple(int(v) for v in rng.permutation(g.n))
            [(m2, a2)] = _gradings(calc, [p])
            assert m2 == oracle_maslov2(g.x_cols, g.o_cols, p)
            assert a2 == oracle_alex2(g.x_cols, g.o_cols, p)


def test_batch_gradings_match_scalar():
    # The scalar reference is the oracle's pair count, row by row.
    rng = np.random.default_rng(12)
    for _ in range(40):
        g = random_grid(rng, int(rng.integers(2, 8)))
        calc = GradingCalculator(g)
        perms = np.array([rng.permutation(g.n) for _ in range(20)])
        for p, (m2, a2) in zip(perms.tolist(), _gradings(calc, perms)):
            assert m2 == oracle_maslov2(g.x_cols, g.o_cols, p)
            assert a2 == oracle_alex2(g.x_cols, g.o_cols, p)


def test_move_terms_sum_to_the_batch_gradings():
    # alex2 = floor + 2 (sum of shifts) and maslov2 = base + 2 (sum of
    # shifts + increasing pairs), on every generator of each grid.
    rng = np.random.default_rng(15)
    for _ in range(30):
        g = random_grid(rng, int(rng.integers(2, 7)))
        calc = GradingCalculator(g)
        perms = np.array(list(permutations(range(g.n))))
        cols = np.arange(g.n)
        pairs = sum((perms[:, c1] < perms[:, c2]).astype(np.int64)
                    for c1 in range(g.n) for c2 in range(c1 + 1, g.n))
        shift, floor, width = calc.alex_terms()
        moved = shift[cols, perms].sum(axis=1)
        assert moved.max() < width
        assert (floor + 2 * moved == calc.alex2_batch(perms)).all()
        shift, base, width = calc.maslov_terms()
        moved = shift[cols, perms].sum(axis=1) + pairs
        assert moved.max() < width
        assert (base + 2 * moved == calc.maslov2_batch(perms)).all()


def test_maslov2_is_always_even():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g = random_grid(rng, int(rng.integers(2, 8)))
        calc = GradingCalculator(g)
        p = rng.permutation(g.n)
        assert calc.maslov2_batch(p[None, :])[0] % 2 == 0


def test_level_bounds_contain_all_generators():
    rng = np.random.default_rng(14)
    for _ in range(40):
        g = random_grid(rng, int(rng.integers(2, 7)))
        calc = GradingCalculator(g)
        lo, hi = calc.level_floor(), calc.level_ceiling()
        a2 = calc.alex2_batch(np.array(list(permutations(range(g.n)))))
        assert lo <= a2.min() and a2.max() <= hi

"""Grid construction, validation, transforms, and the corpus loader."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhfk.errors import (
    GridInputError,
    MarkingCollision,
    NotAPermutation,
    SizeMismatch,
)
from gridhfk.grids import (
    _commutations,
    _rotate_columns,
    _rotate_rows,
    connected_sum,
    corpus_dir,
    count_components,
    format_grid,
    legendrian_front,
    list_corpus,
    load_corpus,
    make_grid,
    mirror,
    parse_grid,
)
from gridhfk.invariants import hat_ranks

from oracle import oracle_components


def random_grid(rng, n):
    while True:
        x = rng.permutation(n)
        o = rng.permutation(n)
        if np.all(x != o):
            return make_grid(x.tolist(), o.tolist())


# --------------------------------------------------------------------------
# validation


def test_valid_grid_roundtrips_fields():
    g = make_grid([1, 0], [0, 1])
    assert g.n == 2
    assert g.x_cols == (1, 0)
    assert g.o_cols == (0, 1)


def test_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        make_grid([0, 0], [1, 0])
    with pytest.raises(NotAPermutation):
        make_grid([0, 2], [1, 0])


def test_rejects_marking_collision():
    with pytest.raises(MarkingCollision):
        make_grid([0, 1], [0, 1])


def test_rejects_size_mismatch():
    with pytest.raises((SizeMismatch, GridInputError)):
        parse_grid("3\nX: 1 0\nO: 0 1\n")


def test_rejects_tiny_grid():
    with pytest.raises(GridInputError):
        make_grid([0], [0])


# --------------------------------------------------------------------------
# components


def test_unknot_and_hopf_component_counts():
    assert count_components(make_grid([1, 0], [0, 1])) == 1
    assert count_components(make_grid([0, 1, 2, 3], [2, 3, 0, 1])) == 2


def test_square_grid_is_two_component_unlink():
    # X exactly two columns over from O in a 4-grid with period-2 rows
    g = make_grid([2, 3, 0, 1], [1, 0, 3, 2])
    assert count_components(g) == 2


def test_components_match_oracle_on_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = random_grid(rng, int(rng.integers(2, 9)))
        assert count_components(g) == oracle_components(g.x_cols, g.o_cols)


# --------------------------------------------------------------------------
# mirror


def test_mirror_is_an_involution():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = random_grid(rng, int(rng.integers(2, 9)))
        assert mirror(mirror(g)) == g


def test_mirror_preserves_components():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_grid(rng, int(rng.integers(2, 8)))
        assert count_components(mirror(g)) == count_components(g)


# --------------------------------------------------------------------------
# Legendrian front


def test_front_of_corpus_knots():
    # (tb, rot) of each grid and of its mirror.  The right-handed
    # trefoil's and T(2,5)'s fronts reach the maximal tb, 1 and 3; the
    # figure-eight's fronts reach -3 on both sides.
    fronts = {name: (legendrian_front(load_corpus(name)),
                     legendrian_front(mirror(load_corpus(name))))
              for name in ("trefoil5", "trefoil_left5", "figure_eight6",
                           "knot_5_2_7", "torus_2_5_7", "unknot3")}
    assert fronts == {
        "trefoil5": ((1, 0), (-6, 1)),
        "trefoil_left5": ((-6, 1), (1, 0)),
        "figure_eight6": ((-3, 0), (-3, 0)),
        "knot_5_2_7": ((1, 0), (-8, 1)),
        "torus_2_5_7": ((3, 0), (-10, 3)),
        "unknot3": ((-2, -1), (-1, 0)),
    }


def test_front_of_grid_and_mirror_have_tb_summing_to_minus_n():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = random_grid(rng, int(rng.integers(2, 9)))
        assert legendrian_front(g)[0] + legendrian_front(mirror(g))[0] == -g.n


def test_front_is_kept_by_translations_and_commutations():
    """Torus translations and commutations are Legendrian isotopies of
    the front (Ozsváth–Szabó–Thurston), so tb and rot do not move."""
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = random_grid(rng, int(rng.integers(2, 9)))
        front = legendrian_front(g)
        moved = [make_grid(x, o) for x, o in _commutations(g.x_cols, g.o_cols)]
        for s in range(1, g.n):
            moved += [_rotate_columns(g, s), _rotate_rows(g, s)]
        assert all(legendrian_front(h) == front for h in moved), g


# --------------------------------------------------------------------------
# connected sum


def test_connected_sum_size_and_components():
    a = load_corpus("trefoil5")
    b = load_corpus("figure_eight6")
    s = connected_sum(a, b)
    assert s.n == a.n + b.n - 1
    assert count_components(s) == 1
    h = connected_sum(load_corpus("hopf_plus4"), a)
    assert count_components(h) == 2


def test_connected_sum_with_unknot_preserves_hat():
    unknot = load_corpus("unknot2")
    for name in ["trefoil5", "hopf_plus4"]:
        g = load_corpus(name)
        assert hat_ranks(connected_sum(g, unknot)).ranks == hat_ranks(g).ranks
        assert hat_ranks(connected_sum(unknot, g)).ranks == hat_ranks(g).ranks


def test_connected_sum_associative_up_to_hat_ranks():
    a, b, c = (load_corpus("hopf_plus4"), load_corpus("unknot2"),
               load_corpus("unknot3"))
    left = connected_sum(connected_sum(a, b), c)
    right = connected_sum(a, connected_sum(b, c))
    assert left.n == right.n == 7
    assert hat_ranks(left).ranks == hat_ranks(right).ranks
    assert hat_ranks(left).ranks == hat_ranks(a).ranks


# --------------------------------------------------------------------------
# file format


def test_parse_format_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = random_grid(rng, int(rng.integers(2, 9)))
        assert parse_grid(format_grid(g)) == g


def test_parse_accepts_comments_and_final_newline():
    g = parse_grid("# a knot\n2\n# interlude\nX: 1 0\nO: 0 1\n")
    assert g.n == 2


def test_parse_rejects_interior_blank_lines():
    with pytest.raises(GridInputError):
        parse_grid("2\n\nX: 1 0\nO: 0 1\n")


def test_parse_rejects_garbage():
    with pytest.raises(GridInputError):
        parse_grid("two\nX: 1 0\nO: 0 1\n")
    with pytest.raises(GridInputError):
        parse_grid("2\nY: 1 0\nO: 0 1\n")


@settings(max_examples=30)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_format_parse_identity_property(n, rnd):
    cols = list(range(n))
    rnd.shuffle(cols)
    shift = rnd.randrange(1, n)
    x = cols
    o = [(c + shift) % n for c in cols]
    g = make_grid(x, o)
    assert parse_grid(format_grid(g)) == g


# --------------------------------------------------------------------------
# corpus


def test_corpus_lists_all_bundled_grids():
    names = list_corpus()
    for expected in ["unknot2", "unknot3", "unknot4", "unknot5",
                     "hopf_plus4", "hopf_minus4", "trefoil5",
                     "trefoil_left5", "trefoil6", "figure_eight6",
                     "knot_5_2_7", "torus_2_5_7"]:
        assert expected in names


def test_corpus_files_have_provenance_headers():
    for name in list_corpus():
        path = os.path.join(corpus_dir(), name + ".grid")
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().startswith("#")


def test_corpus_env_var_override(tmp_path, monkeypatch):
    (tmp_path / "custom.grid").write_text("2\nX: 1 0\nO: 0 1\n")
    monkeypatch.setenv("HFK_CORPUS", str(tmp_path))
    assert list_corpus() == ["custom"]
    assert load_corpus("custom").n == 2


def test_missing_corpus_name_raises():
    with pytest.raises(GridInputError):
        load_corpus("no_such_link")

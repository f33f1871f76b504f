"""Plumbing verification: surface indices, case files, both theorems,
and the cable predictor."""

import json

import pytest

from gridhfk.errors import (
    GridInputError,
    GridResourceError,
    IndexMismatch,
    NegativeIndex,
    UnsupportedQ,
)
from gridhfk.grids import corpus_case_path, load_corpus
from gridhfk.invariants import top_group
from gridhfk.murasugi import (
    CaseSide,
    MurasugiCase,
    cable_top_group_predict,
    load_case,
    make_connected_sum_case,
    surface_index,
    verify_theorem1,
    verify_theorem2,
)
from gridhfk.polynomials import LaurentPoly

CASE_NAMES = [
    "hopf_plumbing_trefoil",
    "hopf_plumbing_figure_eight",
    "trefoil_connected_sum",
    "left_right_connected_sum",
    "corrupt_wrong_sum",
    "corrupt_bad_index",
]


# --------------------------------------------------------------------------
# surface index


def test_surface_index_values():
    assert surface_index(1, 1) == 0      # disk
    assert surface_index(2, 0) == 2      # annulus / Hopf band
    assert surface_index(1, -1) == 2     # once-punctured torus
    assert surface_index(1, -3) == 4     # genus-two fiber
    assert surface_index(3, -1) == 4


def test_surface_index_rejects_bad_input():
    with pytest.raises(GridInputError):
        surface_index(0, 1)
    with pytest.raises(NegativeIndex):
        surface_index(1, 2)  # |boundary| - chi < 0


# --------------------------------------------------------------------------
# case construction and validation


def test_case_side_validation():
    g = load_corpus("trefoil5")
    side = CaseSide(g, 2, "trefoil")
    assert side.components == 1
    with pytest.raises(NegativeIndex):
        CaseSide(g, -2)


def test_polygon_sides_must_be_even_and_positive():
    side = CaseSide(load_corpus("unknot2"), 0)
    for bad in (0, 1, 3, -2):
        with pytest.raises(GridInputError):
            MurasugiCase("bad", bad, side, side, side)
    MurasugiCase("ok", 2, side, side, side)
    MurasugiCase("ok", 4, side, side, side)


def test_make_connected_sum_case_adds_indices():
    t = CaseSide(load_corpus("trefoil5"), 2, "trefoil")
    case = make_connected_sum_case("granny", t, t)
    assert case.polygon_sides == 2
    assert case.total.index2 == 4
    assert case.total.grid.n == 9  # 5 + 5 - 1
    assert case.total.components == 1


# --------------------------------------------------------------------------
# bundled case files against their recorded expectations


def load_bundled(name):
    return load_case(corpus_case_path(name))


def test_all_bundled_cases_parse_with_expectations():
    for name in CASE_NAMES:
        case, expect = load_bundled(name)
        assert case.polygon_sides % 2 == 0
        assert expect, name


@pytest.mark.parametrize("name", CASE_NAMES)
def test_bundled_case_outcomes(name):
    case, expect = load_bundled(name)
    if "error" in expect:
        assert expect["error"] == "IndexMismatch"
        with pytest.raises(IndexMismatch):
            verify_theorem1(case)
        return
    r1 = verify_theorem1(case)
    r2 = verify_theorem2(case)
    assert r1.passed == expect["theorem1"], (name, r1.details)
    assert r2.passed == expect["theorem2"], (name, r2.details)
    if r1.passed:
        assert r1.details["euler_multiplicative"], name


def test_reports_serialize():
    case, _ = load_bundled("hopf_plumbing_trefoil")
    report = verify_theorem1(case).to_json()
    assert report["case"] == case.name
    assert report["theorem"] == "extremal-multiplicativity"
    assert report["passed"] is True
    assert json.dumps(report)  # round-trips through JSON
    assert report["wall_time"] >= 0


def test_theorem2_truth_table_all_four_corners():
    """(T,T)->T, (T,F)->F, (F,T)->F, (F,F)->F as a biconditional."""
    right = CaseSide(load_corpus("trefoil5"), 2, "right trefoil")
    left = CaseSide(load_corpus("trefoil_left5"), 2, "left trefoil")
    corners = [
        ("right-right", right, right, (True, True, True)),
        ("right-left", right, left, (True, False, False)),
        ("left-right", left, right, (False, True, False)),
        ("left-left", left, left, (False, False, False)),
    ]
    for name, s1, s2, (f1, f2, fs) in corners:
        case = make_connected_sum_case(name, s1, s2)
        report = verify_theorem2(case)
        assert report.passed, (name, report.details)
        assert report.details["summand1_tau_top_is_g"] == f1, name
        assert report.details["summand2_tau_top_is_g"] == f2, name
        assert report.details["sum_tau_top_is_g"] == fs, name


def test_both_theorems_honour_the_generator_budget():
    case, _ = load_bundled("trefoil_connected_sum")
    for verify in (verify_theorem1, verify_theorem2):
        with pytest.raises(GridResourceError):
            verify(case, max_generators=1)


def test_index_mismatch_on_underdeclared_summand():
    t_ok = CaseSide(load_corpus("trefoil5"), 2)
    t_bad = CaseSide(load_corpus("trefoil5"), 0)  # claims a disk
    case = MurasugiCase("bad-declared-index", 2, t_ok, t_bad,
                        CaseSide(load_corpus("trefoil5"), 2))
    with pytest.raises(IndexMismatch):
        verify_theorem1(case)


# --------------------------------------------------------------------------
# case-file schema errors


def test_load_case_requires_grid_or_construct(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "x", "polygon_sides": 2,
        "summand1": {"index2": 0},
        "summand2": {"grid": "corpus:unknot2.grid", "index2": 0},
        "sum": {"grid": "corpus:unknot2.grid", "index2": 0},
    }))
    with pytest.raises(GridInputError):
        load_case(bad)


def test_load_case_construct_needs_two_sided_polygon(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({
        "name": "x", "polygon_sides": 4,
        "summand1": {"grid": "corpus:unknot2.grid", "index2": 0},
        "summand2": {"grid": "corpus:unknot2.grid", "index2": 0},
        "sum": {"construct": "connected_sum", "index2": 0},
    }))
    with pytest.raises(GridInputError):
        load_case(bad)


def test_load_case_resolves_relative_paths(tmp_path):
    grid_file = tmp_path / "local.grid"
    grid_file.write_text("2\nX: 1 0\nO: 0 1\n")
    case_file = tmp_path / "case.json"
    case_file.write_text(json.dumps({
        "name": "local", "polygon_sides": 2,
        "summand1": {"grid": "local.grid", "index2": 0},
        "summand2": {"grid": "local.grid", "index2": 0},
        "sum": {"construct": "connected_sum", "index2": 0},
    }))
    case, expect = load_case(case_file)
    assert case.summand1.grid.n == 2
    assert case.total.grid.n == 3
    assert expect == {}
    assert verify_theorem1(case).passed


# --------------------------------------------------------------------------
# cable predictor


def test_cable_identity_when_p_is_one():
    top = LaurentPoly({0: 1})
    for q in (5, 1, -1, -7):
        alex2, poincare = cable_top_group_predict(1, q, 4, top)
        assert (alex2, poincare) == (4, top)


def test_cable_of_unknot_gives_torus_knots():
    unknot_top = top_group(load_corpus("unknot2"))
    # (2,3) cable of the unknot is the right trefoil
    alex2, poincare = cable_top_group_predict(
        2, 3, 0, unknot_top.poincare)
    right = top_group(load_corpus("trefoil5"))
    assert (alex2, poincare) == (right.alex2, right.poincare)
    # (2,-3) cable of the unknot is the left trefoil
    alex2, poincare = cable_top_group_predict(
        2, -3, 0, unknot_top.poincare)
    left = top_group(load_corpus("trefoil_left5"))
    assert (alex2, poincare) == (left.alex2, left.poincare)


def test_cable_frozen_example_on_trefoil():
    top = top_group(load_corpus("trefoil5"))
    alex2, poincare = cable_top_group_predict(3, 2, 2, top.poincare)
    assert alex2 == 3 * 2 + 2 * 1
    assert poincare == top.poincare  # positive q keeps the distribution
    alex2_neg, poincare_neg = cable_top_group_predict(3, -2, 2, top.poincare)
    assert alex2_neg == 3 * 2 + 2 * 1
    assert poincare_neg == top.poincare.shift(2 * 2 * (2 + 2 - 1))


def test_cable_rejects_bad_parameters():
    top = LaurentPoly({0: 1})
    with pytest.raises(UnsupportedQ):
        cable_top_group_predict(2, 0, 0, top)
    for p in (0, -1):
        with pytest.raises(GridInputError):
            cable_top_group_predict(p, 3, 0, top)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

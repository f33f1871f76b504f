"""End-to-end acceptance gate.

Each test covers one numbered claim about the package as a whole and prints a
single ``[criterion N] PASS/FAIL`` line with its wall-clock time, so running
``pytest tests/test_acceptance.py -s`` reads as a checklist.  Everything is
recomputed from the bundled grids and case files — nothing is stubbed, and a
failure anywhere is a real failure.

Wall-time budgets are asserted, not aspirational: a criterion that blows its
budget fails even if the mathematics comes out right.
"""

import random
import time

import numpy as np
import pytest

from gridhfk.errors import IndexMismatch
from gridhfk.gradings import GradingCalculator
from gridhfk.grids import (
    connected_sum,
    corpus_case_path,
    count_components,
    load_corpus,
    mirror,
)
from gridhfk.homology import (
    BigradedRanks,
    build_level_complex,
    deflate_to_hat,
    inflate,
    verify_d2,
)
from gridhfk.invariants import (
    alexander_polynomial,
    bottom_group,
    genus2,
    hat_ranks,
    homology_ranks,
    top_group,
)
from gridhfk.ledger import p_image, seed_entries
from gridhfk.murasugi import (
    CaseSide,
    load_case,
    make_connected_sum_case,
    verify_theorem1,
    verify_theorem2,
)
from gridhfk.polynomials import LaurentPoly
from gridhfk.rectangles import MODE_LEVEL, boundary_entries

from oracle import oracle_rectangles
from test_grids import random_grid


def _criterion(num, desc, budget_s, fn):
    """Run one acceptance check, print its verdict line, enforce its budget."""
    start = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {num}] {verdict} {desc} ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_1_unknot_tower():
    def check():
        single_class = BigradedRanks({(0, 0): 1})
        for n in range(2, 6):
            tilde = homology_ranks(load_corpus(f"unknot{n}"))
            assert tilde.total_rank() == 2 ** (n - 1), (n, tilde.ranks)
            assert tilde == inflate(single_class, n - 1), (n, tilde.ranks)

    _criterion(1, "unknot tower n=2..5: tilde rank 2^(n-1), shape (1+mt)^(n-1)", 1, check)


def test_criterion_2_trefoil_size_invariance():
    def check():
        hat5 = deflate_to_hat(homology_ranks(load_corpus("trefoil5")), 5 - 1)
        hat6 = deflate_to_hat(homology_ranks(load_corpus("trefoil6")), 6 - 1)
        assert hat5 == hat6, (hat5.ranks, hat6.ranks)

    _criterion(2, "trefoil on 5x5 and 6x6 grids: identical hat ranks after deflation", 10, check)


def test_criterion_3_trefoil_figure_eight_invariants():
    def check():
        tre = load_corpus("trefoil5")
        fig8 = load_corpus("figure_eight6")
        assert hat_ranks(tre).total_rank() == 3
        assert hat_ranks(fig8).total_rank() == 5
        assert genus2(tre) == 2  # genus 1 in the doubled convention
        assert genus2(fig8) == 2
        top = top_group(tre)
        assert top.alex2 == 2
        assert top.poincare.coeffs == {0: 1}, top.poincare.coeffs

    _criterion(3, "trefoil/figure-eight: hat totals 3 and 5, genus 1, trefoil top Maslov 0", 10, check)


PASSING_CASES = (
    "hopf_plumbing_trefoil",
    "hopf_plumbing_figure_eight",
    "trefoil_connected_sum",
)


def test_criterion_4_extremal_product_law_on_cases():
    def check():
        for name in PASSING_CASES:
            case, expect = load_case(corpus_case_path(name))
            report = verify_theorem1(case)
            assert report.passed, (name, report.details)
            assert expect["theorem1"] is True, name
        bad_case, _ = load_case(corpus_case_path("corrupt_wrong_sum"))
        assert not verify_theorem1(bad_case).passed
        mismatched, _ = load_case(corpus_case_path("corrupt_bad_index"))
        with pytest.raises(IndexMismatch):
            verify_theorem1(mismatched)

    _criterion(4, "extremal-group product law holds on bundled cases, fails on corrupted ones", 60, check)


def test_criterion_5_extremality_flag_truth_table():
    def check():
        corners = set()
        for name in PASSING_CASES + ("left_right_connected_sum",):
            case, _ = load_case(corpus_case_path(name))
            report = verify_theorem2(case)
            assert report.passed, (name, report.details)
            d = report.details
            corners.add((d["summand1_tau_top_is_g"], d["summand2_tau_top_is_g"]))
        # The bundled cases cover three corners; left#left covers the last.
        left = CaseSide(load_corpus("trefoil_left5"), 2, "left trefoil")
        report = verify_theorem2(make_connected_sum_case("left-left", left, left))
        assert report.passed, report.details
        assert report.details["sum_tau_top_is_g"] is False
        corners.add((report.details["summand1_tau_top_is_g"],
                     report.details["summand2_tau_top_is_g"]))
        assert corners == {(True, True), (True, False), (False, True), (False, False)}

    _criterion(5, "extremality-flag product law verified on all four truth-table corners", 120, check)


def test_criterion_6_bottom_group_ranks():
    def check():
        fig8 = bottom_group(load_corpus("figure_eight6"))
        assert fig8.alex2 == -2
        assert sum(fig8.poincare.coeffs.values()) == 1, fig8.poincare.coeffs
        k52 = bottom_group(load_corpus("knot_5_2_7"))
        assert k52.alex2 == -2
        assert sum(k52.poincare.coeffs.values()) == 2, k52.poincare.coeffs

    _criterion(6, "bottom extremal ranks: figure-eight 1, 5_2 knot 2", 30, check)


def test_criterion_7_alexander_values_and_multiplicativity():
    def check():
        expected = {
            "unknot2": {0: 1},
            "trefoil5": {-1: 1, 0: -1, 1: 1},
            "figure_eight6": {-1: -1, 0: 3, 1: -1},
            "knot_5_2_7": {-1: 2, 0: -3, 1: 2},
        }
        for name, coeffs in expected.items():
            poly = alexander_polynomial(load_corpus(name))
            assert poly == LaurentPoly(coeffs), (name, poly.coeffs)

        # Multiplicativity of the extremal Euler characteristic (the
        # Alexander leading coefficient, up to sign) on every passing
        # product-law case, link-valued summands included.
        for name in PASSING_CASES:
            report = verify_theorem1(load_case(corpus_case_path(name))[0])
            assert report.passed
            assert report.details["euler_multiplicative"] is True, name

        # For knot-valued connected sums the statement is literal: the
        # polynomials multiply, so the leading coefficients do too.
        tre = alexander_polynomial(load_corpus("trefoil5"))
        granny = alexander_polynomial(
            connected_sum(load_corpus("trefoil5"), load_corpus("trefoil5")))
        assert granny == tre * tre, (granny.coeffs, (tre * tre).coeffs)
        assert granny.coeffs[granny.max_exp()] == tre.coeffs[tre.max_exp()] ** 2

        k52 = alexander_polynomial(load_corpus("knot_5_2_7"))
        summed = alexander_polynomial(
            connected_sum(load_corpus("unknot2"), load_corpus("knot_5_2_7")))
        assert summed == k52
        assert summed.coeffs[summed.max_exp()] == 1 * k52.coeffs[k52.max_exp()]

    _criterion(7, "classical Alexander values and leading-coefficient multiplicativity", 60, check)


def test_criterion_8_property_suite():
    def check():
        rng = np.random.default_rng(20260815)

        # d^2 = 0 on at least 100 random grids of size <= 6.
        for _ in range(100):
            g = random_grid(rng, int(rng.integers(2, 7)))
            calc = GradingCalculator(g)
            for a2 in range(calc.level_floor(), calc.level_ceiling() + 1, 2):
                lc = build_level_complex(calc, a2)
                rows, cols = boundary_entries(calc.rectangles, lc.gens,
                                              lc.gens, MODE_LEVEL)
                verify_d2(rows, cols, lc.size)  # raises on failure

        # Grading relations on rectangle-connected generator pairs.
        g = random_grid(rng, 6)
        calc = GradingCalculator(g)
        for _ in range(200):
            perm = [int(v) for v in rng.permutation(6)]
            ci, cj = sorted(rng.choice(6, size=2, replace=False).tolist())
            target = list(perm)
            target[ci], target[cj] = target[cj], target[ci]
            pair = np.array([perm, target])
            (m_s, m_t), (a_s, a_t) = calc.maslov2_batch(pair), calc.alex2_batch(pair)
            records = oracle_rectangles(g.x_cols, g.o_cols, perm, target)
            assert len(records) == 2
            for rec in records:
                assert m_s - m_t == 2 - 4 * rec["n_o"] + 4 * rec["interior_points"]
                assert a_s - a_t == 2 * (rec["n_x"] - rec["n_o"])

        # Deflate/inflate round-trips.
        for name in ("unknot2", "trefoil5", "hopf_plus4", "figure_eight6"):
            g = load_corpus(name)
            hat = hat_ranks(g)
            k = g.n - count_components(g)
            assert deflate_to_hat(inflate(hat, k), k) == hat

        # p_image is a homomorphism on random signed multisets of seeds.
        entries = sorted(seed_entries(), key=lambda e: e.name)
        picker = random.Random(20260815)
        for _ in range(25):
            a = [(picker.choice((1, -1)), picker.choice(entries))
                 for _ in range(picker.randint(1, 3))]
            b = [(picker.choice((1, -1)), picker.choice(entries))
                 for _ in range(picker.randint(1, 3))]
            assert p_image(a).mul(p_image(b)) == p_image(a + b)

        # Mirror is an involution and reflects the hat table, with the
        # Maslov shift -2(l-1) for an l-component link.
        for name in ("trefoil5", "hopf_plus4", "figure_eight6", "torus_2_5_7"):
            g = load_corpus(name)
            assert mirror(mirror(g)) == g
            shift = 2 * (count_components(g) - 1)
            reflected = BigradedRanks(
                {(-m2 - shift, -a2): v for (m2, a2), v in hat_ranks(g).ranks.items()})
            assert hat_ranks(mirror(g)) == reflected

    _criterion(8, "property suite: d^2=0, gradings, round-trips, homomorphism, mirror", 600, check)


def test_criterion_9_kinoshita_terasaka_window():
    desc = "11x11 Kinoshita-Terasaka bottom window has Poincare 1+t up to a t-unit"
    print(f"[criterion 9] SKIP {desc} (optional; no vetted 11x11 grid is bundled)")
    pytest.skip(
        "Optional stretch criterion.  No vetted 11x11 Kinoshita-Terasaka "
        "grid ships with the package (fabricating one would defeat the "
        "point).  Attempting it is still safe: build_level_complex raises "
        "GridResourceError past max_generators (exposed as --max-generators "
        "in the CLI, exit code 3) instead of exhausting memory.  The suite "
        "passes without this criterion."
    )

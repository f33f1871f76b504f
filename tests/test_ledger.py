"""Ledger arithmetic: positive rational functions, the multiplicative
image of formal sums, independence certificates, and persistence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhfk.errors import GridInputError
from gridhfk.grids import load_corpus
from gridhfk.ledger import (
    Ledger,
    LedgerEntry,
    PoincareFraction,
    SEED_NAMES,
    b1_sum_check,
    bundled_literature_entries,
    cor6_obstruction,
    entry_from_grid,
    independent_by_coprimality,
    load_ledger,
    p_image,
    save_ledger,
    seed_entries,
)
from gridhfk.polynomials import LaurentPoly

pos_polys = st.dictionaries(
    st.integers(-3, 4), st.integers(0, 4), max_size=4
).map(LaurentPoly).filter(lambda p: not p.is_zero())


def entry(name, coeffs, b1=0):
    return LedgerEntry(name, LaurentPoly(coeffs), b1, "literature")


# --------------------------------------------------------------------------
# PoincareFraction


def test_fraction_reduces_and_normalizes_units():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    f = PoincareFraction.from_parts(
        one_plus_t.shift(2), LaurentPoly.monomial(5))
    assert f.numerator == one_plus_t
    assert f.denominator == LaurentPoly.one()
    g = PoincareFraction.from_parts(
        one_plus_t * one_plus_t * LaurentPoly({0: 2}), one_plus_t)
    assert g.numerator == LaurentPoly({0: 2, 1: 2})
    assert g.denominator == LaurentPoly.one()


def test_fraction_rejects_invalid_parts():
    one = LaurentPoly.one()
    with pytest.raises(GridInputError):
        PoincareFraction(LaurentPoly.zero(), one)
    with pytest.raises(GridInputError):
        PoincareFraction(one, LaurentPoly.zero())
    with pytest.raises(GridInputError):
        PoincareFraction(LaurentPoly({0: -1}), one)  # negative leading coeff


def test_reduction_can_expose_negative_interior_coefficients():
    """(4 + 3t^2 + 2t^3) / (2 + t) cancels exactly to 2 - t + 2t^2: the
    reduced representative of a ratio of non-negative polynomials may
    leave the positive cone."""
    num = LaurentPoly({0: 4, 2: 3, 3: 2})
    den = LaurentPoly({0: 2, 1: 1})
    f = PoincareFraction.from_parts(num, den)
    assert f.numerator == LaurentPoly({0: 2, 1: -1, 2: 2})
    assert f.denominator == LaurentPoly.one()
    assert f.rank_ratio() == Fraction(3)
    # and the fraction still behaves multiplicatively
    assert f.mul(PoincareFraction.from_parts(den, num)).is_one


def test_fraction_mul_and_rank_ratio():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    two = LaurentPoly({0: 2})
    f = PoincareFraction.from_parts(one_plus_t, two)
    g = PoincareFraction.from_parts(two, one_plus_t)
    assert f.mul(g).is_one
    assert f.rank_ratio() == Fraction(2, 2) == 1
    assert PoincareFraction.from_parts(two, LaurentPoly.one()) \
        .rank_ratio() == Fraction(2)


def test_fraction_format():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    assert PoincareFraction.from_parts(
        LaurentPoly({0: 2}), LaurentPoly.one()).format() == "2"
    assert PoincareFraction.from_parts(
        one_plus_t, LaurentPoly({0: 2})).format() == "(t + 1) / (2)"


@settings(max_examples=80, deadline=None)
@given(pos_polys, pos_polys, pos_polys)
def test_fraction_cancellation_invariance(a, b, c):
    assert PoincareFraction.from_parts(a * c, b * c) \
        == PoincareFraction.from_parts(a, b)


@settings(max_examples=60, deadline=None)
@given(pos_polys, pos_polys)
def test_fraction_reduction_is_idempotent(a, b):
    f = PoincareFraction.from_parts(a, b)
    again = PoincareFraction.from_parts(f.numerator, f.denominator)
    assert again == f
    assert f.numerator.min_exp() == 0
    assert f.denominator.min_exp() == 0
    assert f.mul(PoincareFraction.from_parts(b, a)).is_one


# --------------------------------------------------------------------------
# ledger entries


def test_entry_validation():
    with pytest.raises(GridInputError):
        LedgerEntry("x", LaurentPoly.zero(), 0, "literature")
    with pytest.raises(GridInputError):
        LedgerEntry("x", LaurentPoly({0: -1}), 0, "literature")
    with pytest.raises(GridInputError):
        LedgerEntry("x", LaurentPoly.one(), -1, "literature")
    with pytest.raises(GridInputError):
        LedgerEntry("x", LaurentPoly.one(), 0, "guesswork")
    with pytest.raises(GridInputError):
        LedgerEntry("x", LaurentPoly.one(), 0, "computed")  # no grid ref


@pytest.mark.parametrize("b1", [2.0, 2.9, True, "2", np.int64(2)])
def test_entry_refuses_a_b1_min_that_is_not_an_int(b1):
    # Not even a numpy integer: the entry is saved with json.dump.
    with pytest.raises(GridInputError, match="b1_min"):
        LedgerEntry("x", LaurentPoly.one(), b1, "literature")


def test_entry_json_round_trip():
    e = LedgerEntry("KT", LaurentPoly({0: 1, 1: 1}), 4, "literature")
    assert LedgerEntry.from_json(e.to_json()) == e
    c = entry_from_grid("trefoil", load_corpus("trefoil5"),
                        "corpus:trefoil5.grid")
    assert LedgerEntry.from_json(c.to_json()) == c


SEED_TABLE = {
    # name: (true-Maslov Poincare coeffs, b1_min)
    "unknot": ({0: 1}, 0),
    "hopf_plus": ({1: 1}, 1),
    "hopf_minus": ({2: 1}, 1),
    "trefoil": ({0: 1}, 2),
    "trefoil_left": ({2: 1}, 2),
    "figure_eight": ({1: 1}, 2),
    "5_2": ({0: 2}, 2),
    "torus_2_5": ({0: 1}, 4),
    "KT": ({0: 1, 1: 1}, 4),
    "conway": ({0: 1, 1: 1}, 6),
}


def test_seed_entries_frozen_table():
    entries = {e.name: e for e in seed_entries()}
    assert set(entries) == set(SEED_TABLE)
    for name, (coeffs, b1) in SEED_TABLE.items():
        e = entries[name]
        assert e.top_poincare.coeffs == coeffs, name
        assert e.b1_min == b1, name
        if name in ("KT", "conway"):
            assert e.source == "literature" and not e.grid
        else:
            assert e.source == "computed"
            assert e.grid == f"corpus:{SEED_NAMES[name]}.grid"


def test_literature_entries_are_the_mutant_pair():
    kt, conway = bundled_literature_entries()
    assert kt.top_poincare == conway.top_poincare == LaurentPoly({0: 1, 1: 1})
    assert (kt.b1_min, conway.b1_min) == (4, 6)


# --------------------------------------------------------------------------
# the multiplicative image


@pytest.fixture(scope="module")
def seeds():
    return {e.name: e for e in seed_entries()}


def test_p_image_examples(seeds):
    # a class minus itself maps to 1
    assert p_image([(1, seeds["trefoil"]), (-1, seeds["trefoil"])]).is_one
    # the trefoil as a plumbing of two positive Hopf bands: t * t = t^2,
    # a unit, against the trefoil's trivial polynomial
    assert p_image([(1, seeds["hopf_plus"]), (1, seeds["hopf_plus"]),
                    (-1, seeds["trefoil"])]).is_one
    # the two mutants agree
    assert p_image([(1, seeds["KT"]), (-1, seeds["conway"])]).is_one
    # a thin knot with doubled extremal rank against the trefoil
    f = p_image([(1, seeds["5_2"]), (-1, seeds["trefoil"])])
    assert f.format() == "2"
    assert f.rank_ratio() == 2
    # KT against the figure eight: (1 + t) / t reduces to 1 + t
    g = p_image([(1, seeds["KT"]), (-1, seeds["figure_eight"])])
    assert g.numerator == LaurentPoly({0: 1, 1: 1})
    assert g.denominator == LaurentPoly.one()
    assert not g.is_one


def test_p_image_rejects_bad_input(seeds):
    with pytest.raises(GridInputError):
        p_image([])
    with pytest.raises(GridInputError):
        p_image([(2, seeds["trefoil"])])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_p_image_is_a_homomorphism(data):
    pool = list(seed_entries())
    signed = st.lists(
        st.tuples(st.sampled_from([1, -1]), st.sampled_from(pool)),
        min_size=1, max_size=5)
    a = data.draw(signed)
    b = data.draw(signed)
    assert p_image(a).mul(p_image(b)) == p_image(a + b)
    # negating a formal sum inverts its image
    neg = [(-s, e) for s, e in a]
    assert p_image(a).mul(p_image(neg)).is_one


# --------------------------------------------------------------------------
# independence, obstructions, reducibility


def test_independence_examples(seeds):
    # distinct non-unit content vs a genuinely different polynomial
    assert independent_by_coprimality([seeds["5_2"], seeds["KT"]])
    assert independent_by_coprimality([seeds["5_2"], seeds["figure_eight"]])
    # monomials clear to the same unit: never certified
    assert not independent_by_coprimality(
        [seeds["hopf_plus"], seeds["hopf_minus"]])
    assert not independent_by_coprimality(
        [seeds["trefoil"], seeds["torus_2_5"]])
    # identical polynomials: never certified
    assert not independent_by_coprimality([seeds["KT"], seeds["conway"]])
    # a shared factor of 1 + t spoils a larger set
    assert not independent_by_coprimality(
        [seeds["5_2"], seeds["KT"], seeds["conway"]])
    assert independent_by_coprimality(
        [seeds["5_2"], seeds["KT"], seeds["figure_eight"]])
    with pytest.raises(GridInputError):
        independent_by_coprimality([seeds["KT"]])


def test_cor6_obstruction(seeds):
    assert cor6_obstruction(seeds["KT"])
    assert cor6_obstruction(seeds["conway"])
    for name in ("unknot", "trefoil", "hopf_plus", "figure_eight", "5_2"):
        assert not cor6_obstruction(seeds[name]), name


def test_b1_sum_check(seeds):
    granny = entry("granny", {0: 1}, b1=4)
    assert b1_sum_check(seeds["trefoil"], seeds["trefoil"], granny)
    assert b1_sum_check(seeds["hopf_plus"], seeds["hopf_plus"],
                        seeds["trefoil"])
    assert not b1_sum_check(seeds["trefoil"], seeds["trefoil"],
                            seeds["trefoil"])


# --------------------------------------------------------------------------
# persistence


def test_ledger_add_get_and_duplicate(seeds):
    led = Ledger()
    led.add(seeds["trefoil"])
    assert led.get("trefoil") == seeds["trefoil"]
    with pytest.raises(GridInputError):
        led.add(seeds["trefoil"])
    with pytest.raises(GridInputError):
        led.get("nessie")


def test_ledger_file_round_trip(tmp_path):
    led = Ledger()
    for e in seed_entries():
        led.add(e)
    path = tmp_path / "deep" / "ledger.json"
    save_ledger(led, path)
    again = load_ledger(path)
    assert again.entries == led.entries
    assert load_ledger(tmp_path / "absent.json").entries == {}


def test_ledger_json_shape(tmp_path):
    led = Ledger()
    led.add(bundled_literature_entries()[0])
    data = led.to_json()
    assert data["schema"] == 1
    assert data["entries"][0]["name"] == "KT"


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

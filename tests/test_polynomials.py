"""Integer Laurent polynomial arithmetic, exact division, and gcd."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhfk.errors import GridInputError
from gridhfk.polynomials import LaurentPoly, divide_exact, gcd_z

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def brute_mul(a, b):
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


# --------------------------------------------------------------------------
# construction and basic algebra


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({3: 0, 1: 2}).coeffs == {1: 2}
    assert LaurentPoly({0: 0}).is_zero()
    assert not LaurentPoly.zero()
    assert LaurentPoly.one().coeffs == {0: 1}
    assert LaurentPoly.monomial(-4, 7).coeffs == {-4: 7}


def test_integers_of_any_kind_are_taken_and_stored_as_int():
    p = LaurentPoly({np.int64(2): np.int64(3), np.int32(-1): 1})
    assert p.coeffs == {2: 3, -1: 1}
    assert all(type(v) is int for term in p.coeffs.items() for v in term)


@pytest.mark.parametrize("coeffs", [{0: 1.5}, {0: 2.0}, {1.0: 1}, {0: "1"},
                                    {0: np.float64(1)}])
def test_non_integers_are_refused_not_truncated(coeffs):
    with pytest.raises(GridInputError, match="must be integers"):
        LaurentPoly(coeffs)


def test_small_arithmetic_examples():
    t = LaurentPoly.monomial(1)
    p = t + LaurentPoly.one()          # t + 1
    q = t - LaurentPoly.one()          # t - 1
    assert (p * q).coeffs == {2: 1, 0: -1}
    assert (p + q).coeffs == {1: 2}
    assert (-p).coeffs == {1: -1, 0: -1}
    assert p.eval_one() == 2 and q.eval_one() == 0


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a * b == brute_mul(a, b)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == LaurentPoly.zero()
    assert a * LaurentPoly.one() == a
    assert (a * b).eval_one() == a.eval_one() * b.eval_one()


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(-5, 5))
def test_shift_and_reflect(p, k):
    assert p.shift(k) == p * LaurentPoly.monomial(k)
    assert p.reflect().reflect() == p
    assert p.reflect().eval_one() == p.eval_one()
    if not p.is_zero():
        assert p.shift(k).min_exp() == p.min_exp() + k
        assert p.reflect().max_exp() == -p.min_exp()


def test_content_and_cleared():
    p = LaurentPoly({-3: 6, 1: -9})
    assert p.content() == 3
    assert p.cleared().coeffs == {0: 6, 4: -9}
    assert LaurentPoly.zero().cleared().is_zero()
    assert LaurentPoly.zero().content() == 0


# --------------------------------------------------------------------------
# exact division


def test_divide_exact_examples():
    t = LaurentPoly.monomial(1)
    p = t + LaurentPoly.one()
    q = t - LaurentPoly.one()
    assert divide_exact(p * q, q) == p
    assert divide_exact(p, q) is None            # remainder 2
    assert divide_exact(LaurentPoly.zero(), p) == LaurentPoly.zero()
    with pytest.raises(ZeroDivisionError):
        divide_exact(p, LaurentPoly.zero())


def test_divide_exact_requires_integer_quotient():
    two_t = LaurentPoly.monomial(1, 2)
    t = LaurentPoly.monomial(1)
    assert divide_exact(t, two_t) is None
    assert divide_exact(two_t, t) == LaurentPoly({0: 2})


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_divide_exact_inverts_multiplication(a, b):
    assert divide_exact(a * b, b) == a


# --------------------------------------------------------------------------
# gcd over Z[t]


def test_gcd_examples():
    t = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    p = t + one
    q = t - one
    assert gcd_z(p, q) == one
    assert gcd_z(p * q, p) == p
    assert gcd_z(LaurentPoly.monomial(2, 6), LaurentPoly.monomial(3, 4)) \
        == LaurentPoly({0: 2})
    assert gcd_z(LaurentPoly.zero(), p) == p.cleared()


@settings(max_examples=80, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_inputs(a, b):
    g = gcd_z(a, b)
    assert not g.is_zero()
    assert divide_exact(a.cleared(), g) is not None
    assert divide_exact(b.cleared(), g) is not None
    # normalized: lowest exponent 0, positive leading coefficient
    assert g.min_exp() == 0
    assert g.coeffs[g.max_exp()] > 0


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_absorbs_common_factor(a, b, g):
    d = gcd_z(a * g, b * g)
    assert divide_exact(d, gcd_z(g, g)) is not None


# --------------------------------------------------------------------------
# rendering and serialization


def test_format_full_exponents():
    p = LaurentPoly({2: 1, 0: -1, -2: 3})
    assert p.format() == "t^2 - 1 + 3*t^-2"
    assert LaurentPoly.zero().format() == "0"
    assert LaurentPoly({1: 1}).format() == "t"
    assert LaurentPoly({1: -2, 0: 3}).format() == "-2*t + 3"


@settings(max_examples=60, deadline=None)
@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


@pytest.mark.parametrize("key", ["01", "1.0", " 1", "1 ", "+1", "-0", "1_0",
                                 "t", ""])
def test_json_exponent_keys_must_be_canonical_integers(key):
    # "01" beside "1" would name the exponent 1 twice, the last one winning.
    with pytest.raises(GridInputError) as info:
        LaurentPoly.from_json({"1": 1, key: 2}, "--poincare")
    assert str(info.value).startswith("--poincare")
    assert repr(key) in str(info.value)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

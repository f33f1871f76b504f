"""Integer Laurent polynomials in one variable.

Coefficients are a dict from integer exponent to nonzero integer.  The
same type serves Poincare polynomials (nonnegative coefficients, the
exponent is a grading) and Alexander polynomials (signed).  The gcd
over Z[t] uses the primitive-part Euclidean algorithm with content
tracking, after clearing the t-unit so both operands are ordinary
polynomials with a nonzero constant term.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from math import gcd

from .errors import GridInputError, json_field


@dataclass(frozen=True)
class LaurentPoly:
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        """Exponents and coefficients must be integers (Python or numpy);
        anything else, 1.5 or 2.0 alike, raises GridInputError."""
        try:
            terms = [(operator.index(e), operator.index(c))
                     for e, c in self.coeffs.items()]
        except TypeError:
            raise GridInputError(f"a polynomial's exponents and coefficients "
                                 f"must be integers, got {self.coeffs!r}") from None
        object.__setattr__(self, "coeffs", {e: c for e, c in terms if c})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls({exponent: coeff})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def reflect(self):
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def eval_one(self):
        return sum(self.coeffs.values())

    def content(self):
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(c))
        return g

    def cleared(self):
        """Shift so the lowest exponent is 0 (the zero poly is fixed)."""
        if not self.coeffs:
            return self
        return self.shift(-self.min_exp())

    def format(self, var="t"):
        """Render for display, highest exponent first."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                base = var if e == 1 else f"{var}^{e}"
                term = base if c == 1 else f"{c}*{base}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data, label="polynomial"):
        """The polynomial of a JSON object of exponent: coefficient, whose
        keys must be integers written canonically ("1", "-2"; not "01",
        "1.0" or " 1", so no two keys name one exponent) and whose
        coefficients must be integers; ``label`` names it in errors."""
        if not isinstance(data, dict):
            raise GridInputError(f"{label} must be a JSON object of exponent: "
                                 f"coefficient, not {type(data).__name__}")
        for e in data:
            if not re.fullmatch(r"0|-?[1-9][0-9]*", e):
                raise GridInputError(f"{label}: exponent key {e!r} must be "
                                     f"an integer written canonically")
        return cls({int(e): json_field(data, e, int, label) for e in data})


def divide_exact(num, den):
    """Exact division in Z[t, 1/t]; returns None when not exact."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    rem = dict(num.coeffs)
    q = {}
    den_top = den.max_exp()
    den_lead = den.coeffs[den_top]
    # an exact quotient's lowest exponent is pinned by the low ends, so
    # descending past it means the division has a remainder
    min_quotient_exp = num.min_exp() - den.min_exp()
    while rem:
        top = max(rem)
        c, r = divmod(rem[top], den_lead)
        if r != 0:
            return None
        e = top - den_top
        if e < min_quotient_exp:
            return None
        q[e] = c
        for de, dc in den.coeffs.items():
            k = e + de
            rem[k] = rem.get(k, 0) - c * dc
            if rem[k] == 0:
                del rem[k]
    return LaurentPoly(q)


def _primitive(p):
    c = p.content()
    if c <= 1:
        return p, max(c, 0)
    return LaurentPoly({e: v // c for e, v in p.coeffs.items()}), c


def _pseudo_remainder(a, b):
    """Remainder of a by b in Z[t] after scaling by powers of lead(b)."""
    db = b.max_exp()
    lead_b = b.coeffs[db]
    r = a
    while not r.is_zero() and r.max_exp() >= db:
        dr = r.max_exp()
        r = r * lead_b - b * LaurentPoly.monomial(dr - db, r.coeffs[dr])
    return r


def gcd_z(a, b):
    """gcd in Z[t] of two Laurent polynomials, content included.

    Both inputs are shifted so their lowest exponent is 0 first; the
    result is normalized with positive leading coefficient.  The gcd of
    the primitive parts comes from a pseudo-remainder Euclidean loop,
    the content part from the integer gcd.
    """
    a = a.cleared()
    b = b.cleared()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    pa, ca = _primitive(a)
    pb, cb = _primitive(b)
    content = gcd(ca, cb)
    while not pb.is_zero():
        r = _pseudo_remainder(pa, pb)
        r, _ = _primitive(r)
        pa, pb = pb, r
    g = pa.cleared()
    if g.coeffs.get(g.max_exp(), 0) < 0:
        g = -g
    return g * content if content else g

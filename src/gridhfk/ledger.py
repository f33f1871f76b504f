"""Multiplicative bookkeeping for top-group Poincare polynomials.

Links form a monoid under Murasugi sum, and the top extremal group is
multiplicative under it, so the map sending a link to the Poincare
polynomial of its top group (taken up to powers of t) lands in the
positive rational functions and turns sums into products.  This module
implements that arithmetic (the ``ledger p`` image) and the three
certification queries behind ``ledger indep``, ``cor6`` and ``b1check``:

  * pairwise-coprime polynomials certify linear independence;
  * support in two or more Maslov gradings obstructs a link from being a
    Murasugi sum of thin links (or a summand of one);
  * the minimal first Betti number is additive under Murasugi sum.

Entries live in a small append-only JSON ledger keyed by name.  The
polynomials here use *true* (not doubled) Maslov exponents, since top
groups of the even-component links we certify still land in integer
gradings after the component shift; entries are stored up to a t-unit
with minimal exponent normalized to zero.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import GridInputError, json_field, parse_json, read_input
from .generators import DEFAULT_MAX_GENERATORS
from .polynomials import LaurentPoly, divide_exact, gcd_z

SOURCES = ("computed", "literature")


@dataclass(frozen=True)
class PoincareFraction:
    """Canonically reduced ratio of Laurent polynomials, modulo units.

    Values of the ledger map are products and quotients of Poincare
    polynomials, taken up to the units +-t^k.  The canonical
    representative stores both parts with minimal exponent zero, no
    common factor over the integers, and positive leading coefficients.
    The parts of a reduced ratio of non-negative polynomials can carry
    negative interior coefficients (for example (4 + 3t^2 + 2t^3) over
    (2 + t) reduces to 2 - t + 2t^2), so positivity is a property of
    ledger entries, not of this class.
    """

    numerator: LaurentPoly
    denominator: LaurentPoly

    def __post_init__(self):
        for part, label in ((self.numerator, "numerator"),
                            (self.denominator, "denominator")):
            if part.is_zero():
                raise GridInputError(f"{label} must be nonzero")
            if part.coeffs[part.max_exp()] < 0:
                raise GridInputError(f"{label} must have a positive leading "
                                     f"coefficient (negate it; -1 is a unit)")

    @classmethod
    def from_parts(cls, num: LaurentPoly, den: LaurentPoly):
        """Build the reduced, unit-normalized fraction num/den."""
        num = num.cleared()
        den = den.cleared()
        g = gcd_z(num, den)
        if g != LaurentPoly.one():
            num_r = divide_exact(num, g)
            den_r = divide_exact(den, g)
            if num_r is not None and den_r is not None:
                num, den = num_r.cleared(), den_r.cleared()
        if num.coeffs[num.max_exp()] < 0:
            num = -num
        if den.coeffs[den.max_exp()] < 0:
            den = -den
        return cls(num, den)

    @property
    def is_one(self) -> bool:
        return self.numerator == self.denominator

    def mul(self, other: "PoincareFraction") -> "PoincareFraction":
        return PoincareFraction.from_parts(
            self.numerator * other.numerator,
            self.denominator * other.denominator)

    def rank_ratio(self) -> Fraction:
        """Value at t = 1: the ratio of total ranks."""
        return Fraction(self.numerator.eval_one(),
                        self.denominator.eval_one())

    def format(self) -> str:
        num = self.numerator.format("t")
        if self.denominator == LaurentPoly.one():
            return num
        return f"({num}) / ({self.denominator.format('t')})"

    def to_json(self) -> dict:
        return {"numerator": self.numerator.to_json(),
                "denominator": self.denominator.to_json()}


@dataclass(frozen=True)
class LedgerEntry:
    """A named link class: its top-group Poincare polynomial in t (true
    Maslov exponents) and minimal first Betti number."""

    name: str
    top_poincare: LaurentPoly
    b1_min: int
    source: str = "computed"
    grid: str = ""  # reference to the diagram a computed entry came from

    def __post_init__(self):
        if self.top_poincare.is_zero():
            raise GridInputError("top-group polynomial must be nonzero")
        if any(c < 0 for c in self.top_poincare.coeffs.values()):
            raise GridInputError("Poincare polynomials have non-negative "
                                 "coefficients")
        if type(self.b1_min) is not int or self.b1_min < 0:
            raise GridInputError(f"b1_min must be an integer >= 0, got "
                                 f"{self.b1_min!r}")
        if self.source not in SOURCES:
            raise GridInputError(f"source must be one of {SOURCES}")
        if self.source == "computed" and not self.grid:
            raise GridInputError("computed entries must reference the grid "
                                 "they were computed from")

    def to_json(self) -> dict:
        out = {"name": self.name, "top_poincare": self.top_poincare.to_json(),
               "b1_min": self.b1_min, "source": self.source}
        if self.grid:
            out["grid"] = self.grid
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LedgerEntry":
        if not isinstance(data, dict):
            raise GridInputError(f"a ledger entry must be a JSON object, "
                                 f"not {type(data).__name__}")
        name = json_field(data, "name", str, "ledger entry")
        label = f"ledger entry {name!r}"
        return cls(name, LaurentPoly.from_json(data.get("top_poincare"),
                                               f"{label}: 'top_poincare'"),
                   json_field(data, "b1_min", int, label),
                   data.get("source", "computed"),
                   json_field(data, "grid", str, label, ""))


def p_image(signed_entries) -> PoincareFraction:
    """Image of a formal sum of ledger entries: the product of the
    positively signed polynomials over the negatively signed ones.

    `signed_entries` is an iterable of (sign, LedgerEntry) with sign +1/-1.
    """
    signed_entries = list(signed_entries)
    if not signed_entries:
        raise GridInputError("p_image needs at least one entry")
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for sign, entry in signed_entries:
        if sign not in (1, -1):
            raise GridInputError(f"signs must be +1 or -1, got {sign}")
        if sign == 1:
            num = num * entry.top_poincare
        else:
            den = den * entry.top_poincare
    return PoincareFraction.from_parts(num, den)


def independent_by_coprimality(entries) -> bool:
    """Certify linear independence of the classes via pairwise coprimality
    of their polynomials (after clearing t-units).

    Duplicated polynomials are never certified: a pair sharing its whole
    polynomial (even a monomial, which clears to the unit 1) fails.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise GridInputError("independence needs at least two entries")
    cleared = [e.top_poincare.cleared() for e in entries]
    for i in range(len(cleared)):
        for j in range(i + 1, len(cleared)):
            if cleared[i] == cleared[j]:
                return False
            if gcd_z(cleared[i], cleared[j]) != LaurentPoly.one():
                return False
    return True


def cor6_obstruction(entry: LedgerEntry) -> bool:
    """True when the top group spans two or more Maslov gradings, which
    obstructs the link from being a Murasugi sum of thin links or a
    summand of one."""
    return len(entry.top_poincare.coeffs) >= 2


def b1_sum_check(e1: LedgerEntry, e2: LedgerEntry, e_sum: LedgerEntry) -> bool:
    """Minimal first Betti number is additive under Murasugi sum."""
    return e_sum.b1_min == e1.b1_min + e2.b1_min


# --------------------------------------------------------------------------
# persistence: one JSON file, append-only, names unique


@dataclass
class Ledger:
    entries: dict = field(default_factory=dict)

    def add(self, entry: LedgerEntry) -> None:
        if entry.name in self.entries:
            raise GridInputError(f"ledger already has an entry named "
                                 f"{entry.name!r} (entries are append-only)")
        self.entries[entry.name] = entry

    def get(self, name: str) -> LedgerEntry:
        if name not in self.entries:
            raise GridInputError(f"no ledger entry named {name!r}; have "
                                 f"{sorted(self.entries)}")
        return self.entries[name]

    def to_json(self) -> dict:
        return {"schema": 1,
                "entries": [e.to_json() for e in self.entries.values()]}


def load_ledger(path) -> Ledger:
    path = Path(path)
    ledger = Ledger()
    if not path.exists():
        return ledger
    data = parse_json(read_input(path), path)
    if not isinstance(data, dict):
        raise GridInputError(f"{path}: a ledger file must hold a JSON object")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise GridInputError(f"{path}: the ledger's entries must be a list")
    for obj in entries:
        ledger.add(LedgerEntry.from_json(obj))
    return ledger


def save_ledger(ledger: Ledger, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger.to_json(), indent=2) + "\n")


# --------------------------------------------------------------------------
# entry construction


def entry_from_grid(name: str, grid, grid_ref: str,
                    max_generators=DEFAULT_MAX_GENERATORS) -> LedgerEntry:
    """Compute a ledger entry from a grid diagram.

    The polynomial records the top group with halved (true) Maslov
    exponents; the minimal first Betti number comes from the doubled
    genus, which is the top group's Alexander grading, and the
    component count of a minimal Seifert surface.
    """
    from .grids import count_components
    from .invariants import top_group

    top = top_group(grid, max_generators)
    halved = {}
    for exp, coeff in top.poincare.coeffs.items():
        if exp % 2:
            raise GridInputError(
                f"top group of {name!r} has odd doubled Maslov exponent "
                f"{exp}; cannot store true exponents")
        halved[exp // 2] = coeff
    b1 = top.alex2 - (count_components(grid) - 1)
    return LedgerEntry(name, LaurentPoly(halved), b1, "computed", grid_ref)


def bundled_literature_entries() -> list[LedgerEntry]:
    """Entries beyond desk-scale computation, copied from published values:
    the Kinoshita-Terasaka knot and its Conway mutant both have top-group
    Poincare polynomial 1 + t (up to a t-unit), with Seifert genus 2 and 3
    respectively."""
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    return [
        LedgerEntry("KT", one_plus_t, 4, "literature"),
        LedgerEntry("conway", one_plus_t, 6, "literature"),
    ]


SEED_NAMES = {
    "unknot": "unknot2",
    "hopf_plus": "hopf_plus4",
    "hopf_minus": "hopf_minus4",
    "trefoil": "trefoil5",
    "trefoil_left": "trefoil_left5",
    "figure_eight": "figure_eight6",
    "5_2": "knot_5_2_7",
    "torus_2_5": "torus_2_5_7",
}


def seed_entries(skip=()) -> list[LedgerEntry]:
    """Computed entries for the bundled corpus plus the literature pair,
    but for the names in ``skip``, which are neither computed nor
    returned."""
    from .grids import load_corpus

    entries = [entry_from_grid(name, load_corpus(corpus_name),
                               f"corpus:{corpus_name}.grid")
               for name, corpus_name in SEED_NAMES.items() if name not in skip]
    entries.extend(e for e in bundled_literature_entries() if e.name not in skip)
    return entries

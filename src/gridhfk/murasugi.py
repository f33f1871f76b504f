"""Verification of the two plumbing theorems on declared Murasugi-sum cases.

A case declares two summand links, their sum, the number of polygon sides
the gluing happens along, and the doubled surface index of each Seifert
surface involved.  The verifier never builds plumbed diagrams for gluings
along more than two sides; connected sums (two-sided gluing) are built
from the summand grids directly.

Checks implemented:

  * extremal-group multiplicativity: the bottom-group Poincare polynomial
    of the sum, shifted by m^(2(l-1)), must equal the product of the
    summands' polynomials shifted by m^(2(l_i-1)), where l counts link
    components and m carries doubled Maslov exponents;
  * tau extremality consistency: the sum computes tau_top = g exactly
    when both summands do;
  * a cable prediction for the top group of the (p,q) cable of a knot.

Both checks run in sequence on one bottom group per link
(``bottom_groups``, or ``checked_bottom_group`` one link at a time),
which a caller computes once and hands to both.
Declared indices are cross-checked against the computed bottom Alexander
levels; a disagreement raises IndexMismatch (the declared surface cannot
have been minimal) instead of reporting a verdict.  The tau check reads
each link's genus off its bottom group instead of scanning the mirror.
"""

import json
import time
# Unused here, but perfbench's traced run swaps this name in this module
# for a pool that propagates spans; it raises KeyError when it is missing.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from pathlib import Path

from .errors import GridInputError, IndexMismatch, NegativeIndex, UnsupportedQ
from .generators import DEFAULT_MAX_GENERATORS
from .grids import (
    GridDiagram,
    connected_sum,
    corpus_path,
    count_components,
    load_grid,
)
from .invariants import ExtremalGroup, bottom_group, tau_top_is_g
from .polynomials import LaurentPoly


def surface_index(boundary_components: int, euler_char: int) -> int:
    """Doubled surface index: number of boundary circles minus Euler
    characteristic.  A disk has index 0, a Hopf band (annulus) 2."""
    if boundary_components < 1:
        raise GridInputError("a surface needs at least one boundary circle")
    doubled = boundary_components - euler_char
    if doubled < 0:
        raise NegativeIndex(
            f"|boundary| - chi = {doubled} < 0: not a valid Seifert surface")
    return doubled


@dataclass(frozen=True)
class CaseSide:
    """One link of a Murasugi-sum case: a grid plus its declared data."""

    grid: GridDiagram
    index2: int  # doubled index of the declared Seifert surface
    name: str = ""

    def __post_init__(self):
        if self.index2 < 0:
            raise NegativeIndex(f"declared doubled index {self.index2} < 0")

    @property
    def components(self) -> int:
        return count_components(self.grid)


@dataclass(frozen=True)
class MurasugiCase:
    """Two summands, their declared Murasugi sum, and the gluing data."""

    name: str
    polygon_sides: int  # 2n, the number of sides of the gluing polygon
    summand1: CaseSide
    summand2: CaseSide
    total: CaseSide

    def __post_init__(self):
        if self.polygon_sides < 2 or self.polygon_sides % 2:
            raise GridInputError(
                f"polygon must have a positive even number of sides, "
                f"got {self.polygon_sides}")


@dataclass
class VerificationReport:
    """Outcome of one theorem check, serializable to JSON."""

    case_name: str
    theorem: str
    passed: bool
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return {
            "case": self.case_name,
            "theorem": self.theorem,
            "passed": self.passed,
            "details": self.details,
            "wall_time": round(self.wall_time, 3),
        }


def checked_bottom_group(side: CaseSide, label: str,
                         max_generators=DEFAULT_MAX_GENERATORS) -> ExtremalGroup:
    """Bottom group of one side; IndexMismatch unless it sits at minus
    the declared index."""
    group = bottom_group(side.grid, max_generators)
    if group.alex2 != -side.index2:
        raise IndexMismatch(
            f"{label}: computed bottom Alexander level {group.alex2} does "
            f"not equal minus the declared doubled index {side.index2}; "
            f"the declared surface is not minimal")
    return group


def bottom_groups(case: MurasugiCase,
                  max_generators=DEFAULT_MAX_GENERATORS) -> list:
    """Bottom groups of summand1, summand2 and the sum, in that order.

    Each declared index is checked against its group as soon as that
    group is known; a disagreement raises IndexMismatch.
    """
    return [checked_bottom_group(side, label, max_generators)
            for side, label in ((case.summand1, "summand1"),
                                (case.summand2, "summand2"),
                                (case.total, "sum"))]


def _shifted(group: ExtremalGroup, components: int) -> LaurentPoly:
    return group.poincare.shift(2 * (components - 1))


def verify_theorem1(case: MurasugiCase, groups=None) -> VerificationReport:
    """Check that the sum's extremal group is the tensor product of the
    summands' extremal groups, after the component-count Maslov shifts.

    ``groups`` are the three bottom groups from ``bottom_groups``; they
    are computed when not given.
    """
    start = time.perf_counter()
    b1, b2, bs = groups or bottom_groups(case)

    p1 = _shifted(b1, case.summand1.components)
    p2 = _shifted(b2, case.summand2.components)
    ps = _shifted(bs, case.total.components)
    product = p1 * p2
    passed = ps == product
    details = {
        "summand1_shifted": p1.to_json(),
        "summand2_shifted": p2.to_json(),
        "sum_shifted": ps.to_json(),
        "product": product.to_json(),
        "bottom_alex2": [b1.alex2, b2.alex2, bs.alex2],
        "euler_multiplicative": _euler_shadow(b1, b2, bs, case),
    }
    return VerificationReport(case.name, "extremal-multiplicativity", passed,
                              details, time.perf_counter() - start)


def _euler_shadow(b1, b2, bs, case: MurasugiCase) -> bool:
    """Leading Alexander coefficients multiply across the sum.

    The graded Euler characteristic of an extremal group is the extremal
    coefficient of the (suitably normalized) Alexander polynomial; the
    component-count shifts contribute the sign (-1)^((l1-1)+(l2-1)-(l-1)).
    """
    def euler(g: ExtremalGroup) -> int:
        return sum(c if e % 4 == 0 else -c for e, c in g.poincare.coeffs.items())

    sign = (-1) ** ((case.summand1.components - 1)
                    + (case.summand2.components - 1)
                    - (case.total.components - 1))
    return euler(bs) == euler(b1) * euler(b2) * sign


def verify_theorem2(case: MurasugiCase, groups=None,
                    max_generators=DEFAULT_MAX_GENERATORS) -> VerificationReport:
    """Check the extremality equivalence: the sum attains tau_top = g
    exactly when both summands do.

    Each link's doubled genus is minus the Alexander grading of its
    bottom group, so ``groups`` (computed when not given) spare tau its
    own bottom scans.
    """
    start = time.perf_counter()
    groups = groups or bottom_groups(case, max_generators)
    sides = (case.summand1, case.summand2, case.total)
    f1, f2, fs = [tau_top_is_g(side.grid, max_generators, -group.alex2)
                  for side, group in zip(sides, groups)]
    passed = (f1 and f2) == fs
    details = {
        "summand1_tau_top_is_g": f1,
        "summand2_tau_top_is_g": f2,
        "sum_tau_top_is_g": fs,
    }
    return VerificationReport(case.name, "tau-extremality", passed, details,
                              time.perf_counter() - start)


def cable_top_group_predict(p: int, q: int, knot_genus2: int,
                            knot_top: LaurentPoly) -> tuple[int, LaurentPoly]:
    """Predicted top group of the (p,q) cable of a knot with doubled genus
    `knot_genus2` and top-group Poincare polynomial `knot_top` (doubled
    Maslov exponents).

    For q > 0 the top group sits at doubled Alexander grading
    p*2g + (p-1)(q-1) with the same Maslov distribution; for q < 0 the
    Alexander grading uses (p-1)(-q-1) and every Maslov grading shifts up
    by 2(p-1)(2g - q - 1).  The shift direction is pinned by the left
    trefoil as the (2,-3) cable of the unknot.
    """
    if q == 0:
        raise UnsupportedQ("q = 0 does not define a cable knot")
    if p < 1:
        raise GridInputError(f"cable parameter p must be >= 1, got {p}")
    if q > 0:
        alex2 = p * knot_genus2 + (p - 1) * (q - 1)
        return alex2, knot_top
    alex2 = p * knot_genus2 + (p - 1) * (-q - 1)
    shift2 = 2 * (p - 1) * (knot_genus2 - q - 1)
    return alex2, knot_top.shift(shift2)


# --------------------------------------------------------------------------
# case files


def _resolve_grid(ref: str, base: Path) -> GridDiagram:
    if ref.startswith("corpus:"):
        return load_grid(corpus_path(ref.split(":", 1)[1]))
    return load_grid(base / ref)


_KINDS = {int: "an integer", str: "a string", bool: "a boolean",
          dict: "a JSON object"}


def _field(obj: dict, key: str, kind: type, label: str, default=None):
    """obj[key] (or ``default``), which must be of ``kind``; bool is not
    taken for int."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GridInputError(f"{label}: '{key}' must be {_KINDS[kind]}, "
                             f"got {value!r}")
    return value


def _load_side(obj: dict, base: Path, label: str) -> CaseSide | None:
    if not isinstance(obj, dict):
        raise GridInputError(f"{label}: must be a JSON object, "
                             f"got {type(obj).__name__}")
    if "grid" in obj:
        if not isinstance(obj["grid"], str):
            raise GridInputError(f"{label}: 'grid' must be a string")
        grid = _resolve_grid(obj["grid"], base)
    elif obj.get("construct") == "connected_sum":
        return None  # built later from the summands
    else:
        raise GridInputError(f"{label}: need a 'grid' reference or "
                             f"'construct': 'connected_sum'")
    return CaseSide(grid, _field(obj, "index2", int, label),
                    _field(obj, "name", str, label, label))


def load_case(path) -> tuple[MurasugiCase, dict]:
    """Read a case file; returns the case and its optional 'expect' map.

    Schema: {"name": str, "polygon_sides": even int,
             "summand1"/"summand2"/"sum": {"grid": "corpus:x.grid" | path,
                                           "index2": int, "name": str},
             "expect": {"theorem1": bool, "theorem2": bool}
                       or {"error": exception class name}}  (optional)
    The sum of a two-sided case may use {"construct": "connected_sum",
    "index2": int} instead of a grid reference.  A file that does not
    fit the schema raises GridInputError.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise GridInputError(f"{path.name}: a case file must hold a JSON "
                             f"object, got {type(data).__name__}")
    base = path.parent
    s1 = _load_side(data.get("summand1"), base, "summand1")
    s2 = _load_side(data.get("summand2"), base, "summand2")
    if s1 is None or s2 is None:
        raise GridInputError("summands must reference explicit grids")
    total = _load_side(data.get("sum"), base, "sum")
    sides = _field(data, "polygon_sides", int, path.name)
    if total is None:
        if sides != 2:
            raise GridInputError("connected-sum construction needs "
                                 "polygon_sides = 2")
        grid = connected_sum(s1.grid, s2.grid)
        total = CaseSide(grid, _field(data["sum"], "index2", int, "sum"),
                         _field(data["sum"], "name", str, "sum", "sum"))
    case = MurasugiCase(_field(data, "name", str, path.name, path.stem),
                        sides, s1, s2, total)
    expect = _field(data, "expect", dict, path.name, {})
    for key in expect:  # booleans, or the class name of an expected error
        _field(expect, key, str if key == "error" else bool,
               f"{path.name}: 'expect'")
    return case, expect


def make_connected_sum_case(name: str, side1: CaseSide,
                            side2: CaseSide) -> MurasugiCase:
    """Build the two-sided (connected sum) case from two summands; the
    sum's declared index is forced by additivity of |boundary| - chi under
    boundary connected sum."""
    grid = connected_sum(side1.grid, side2.grid)
    index2 = side1.index2 + side2.index2
    return MurasugiCase(name, 2, side1, side2,
                        CaseSide(grid, index2, name))

"""Link invariants read off the grid complex.

The extremal (bottom) group comes from scanning the non-empty Alexander
levels upward, as the alex completion table lists them, until homology
appears; Corollary-style deflation says that level carries the hat
group of the lowest Alexander grading shifted by [k - l], so reported
gradings are corrected by 2(n - l) before anything downstream sees
them.  The genus is minus the corrected bottom grading.
Tau extremality asks whether the inclusion of the bottom filtration
window induces a nonzero map on total homology.  The rank of that map
is a sum of non-negative terms, one per Maslov slice, so the answer is
read off the first positive term, lowest slice first, and the slices
above it are never listed.  The top group is the reflected bottom
group of the mirror.  By the symmetry
HFK_d(a) = HFK_{d-2a}(-a), the top group sits at the genus, and a link
and its mirror have the same genus.

The full hat table is the tilde table of ``homology_ranks`` (built
from the bottom tail of levels and the symmetry, and checked against
the per-level Euler characteristic on every call) divided by
(1 + mt)^(n - l).

The Alexander polynomial is the generator state sum
sum (-1)^(maslov2/2) t^(alex2/2) divided by (1 - t)^(n-1), symmetrized
and normalized to value +1 at t = 1.  Knots only.  The sum is read off
the signed level counts of the subset DP ``level_counts``, which never
lists the n! generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NegativeIndex, NotAKnot, InconsistentComplex
from .generators import DEFAULT_MAX_GENERATORS, graded_levels, level_counts
# Unused here, but perfbench's traced run wraps this name in this module.
from .generators import enumerate_all  # noqa: F401
from .gradings import GradingCalculator
from .grids import count_components, mirror
from .homology import (
    build_level_complex,
    deflate_to_hat,
    homology_ranks,
    # Unused here, but perfbench's traced run wraps this name in this module.
    induced_map_rank,  # noqa: F401
    induced_map_ranks,
    level_homology_ranks,
)
from .polynomials import LaurentPoly, divide_exact
from .rectangles import RectangleCounter


@dataclass(frozen=True)
class ExtremalGroup:
    """The hat homology group at the lowest (or highest) Alexander grading.

    ``alex2`` is the doubled Alexander grading in the hat normalization;
    ``poincare`` is the Maslov distribution with doubled exponents.
    """

    alex2: int
    poincare: LaurentPoly
    components: int

    @property
    def rank(self):
        return self.poincare.eval_one()

    def reflected(self):
        return ExtremalGroup(-self.alex2, self.poincare.reflect(), self.components)


def bottom_group(grid, max_generators=DEFAULT_MAX_GENERATORS,
                 level_sizes=None):
    """Scan levels upward and return the first nonzero homology, hat-shifted.

    Only the levels that hold generators are visited, as the alex
    completion table lists them (``graded_levels``), and levels with
    vanishing homology are skipped; termination is guaranteed because
    the total tilde homology is nonzero.  ``level_sizes``, when given, is
    a dict that receives the number of generators of every non-empty
    tilde level the scan built, in increasing alex2.
    """
    calc = GradingCalculator(grid)
    counter = RectangleCounter(grid)
    shift = 2 * (calc.n - calc.components)
    for s in graded_levels(calc, "alex"):
        lc = build_level_complex(grid, s, max_generators, calc=calc, counter=counter)
        if level_sizes is not None:
            level_sizes[s] = lc.size
        ranks = level_homology_ranks(lc)
        if ranks:
            poincare = LaurentPoly({m2 + shift: r for m2, r in ranks.items()})
            return ExtremalGroup(alex2=s + shift, poincare=poincare,
                                 components=calc.components)
    raise InconsistentComplex("no nonzero homology level found")


def top_group(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Hat group at the highest Alexander grading, via the mirror."""
    return bottom_group(mirror(grid), max_generators).reflected()


def genus2(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Doubled Seifert genus: minus the bottom hat Alexander grading."""
    g2 = -bottom_group(grid, max_generators).alex2
    if g2 < 0:
        raise NegativeIndex(f"computed doubled genus {g2} is negative")
    return g2


def tau_bot_is_minus_g(grid, max_generators=DEFAULT_MAX_GENERATORS,
                       genus2_hint=None):
    """Whether the bottom tau invariant equals minus the genus.

    True exactly when the subcomplex of generators with alex2 at most
    -genus2 - 2(n - l) includes into the full filtered complex with a
    nonzero map on homology: some Maslov slice term of
    ``induced_map_ranks`` is positive, and the scan stops at the first.
    ``genus2_hint``, when given, is the doubled genus and spares the
    bottom scan.
    """
    g2 = genus2_hint if genus2_hint is not None else genus2(grid, max_generators)
    cutoff = -g2 - 2 * (grid.n - count_components(grid))
    return any(induced_map_ranks(grid, cutoff, max_generators))


def tau_top_is_g(grid, max_generators=DEFAULT_MAX_GENERATORS,
                 genus2_hint=None):
    """Whether the top tau invariant equals the genus (mirror duality).

    A link and its mirror have the same genus, so ``genus2_hint`` is
    handed to the mirror unchanged.
    """
    return tau_bot_is_minus_g(mirror(grid), max_generators, genus2_hint)


def hat_ranks(grid, max_generators=DEFAULT_MAX_GENERATORS, level_sizes=None):
    """Full bigraded hat homology: tilde ranks deflated.

    The tilde homology equals hat tensor (F2 + F2[-1,-1])^(n - l), so
    the exact division lands in the hat normalization directly.
    ``homology_ranks`` builds the tilde table from the hat levels of
    the bottom tail and their mirror images, with its Euler check, so
    this division of the whole table also rechecks that it is exact.
    ``level_sizes`` is handed to ``homology_ranks``.
    """
    tilde = homology_ranks(grid, max_generators, level_sizes)
    return deflate_to_hat(tilde, grid.n - count_components(grid))


def state_sum(grid):
    """Graded Euler characteristic of the full generator set.

    Returns the Laurent polynomial sum (-1)^(maslov2/2) t^(alex2/2),
    read off the signed level counts of ``level_counts``; requires a
    knot so the Alexander exponents are integers.
    """
    calc = GradingCalculator(grid)
    if calc.components != 1:
        raise NotAKnot(f"state sum needs a knot, grid has {calc.components} components")
    return LaurentPoly({a2 // 2: euler
                        for a2, (_, euler) in level_counts(calc).items()})


def alexander_polynomial(grid):
    """Symmetrized Alexander polynomial with value +1 at t = 1."""
    calc = GradingCalculator(grid)
    raw = state_sum(grid)
    den = LaurentPoly({0: 1, 1: -1}) if calc.n > 1 else LaurentPoly.one()
    poly = raw
    for _ in range(calc.n - 1):
        quotient = divide_exact(poly, den)
        if quotient is None:
            raise InconsistentComplex("state sum is not divisible by (1 - t)^(n-1)")
        poly = quotient
    if poly.is_zero():
        raise InconsistentComplex("state sum vanished; expected a unit multiple")
    lo, hi = poly.min_exp(), poly.max_exp()
    if (lo + hi) % 2 != 0:
        raise InconsistentComplex("Alexander exponents cannot be symmetrized")
    poly = poly.shift(-(lo + hi) // 2)
    if poly.eval_one() < 0:
        poly = -poly
    if poly.eval_one() != 1:
        raise InconsistentComplex(f"Alexander value at 1 is {poly.eval_one()}, not +1")
    return poly


def is_extremal_rank_one(group):
    """Whether an extremal group has total rank one (fiberedness signal)."""
    return group.rank == 1


def is_extremal_thin(group):
    """Whether an extremal group is supported in one Maslov grading."""
    return len(group.poincare.coeffs) == 1

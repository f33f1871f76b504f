"""Link invariants read off the grid complex.

One scanner serves the extremal groups and τ.  ``scan_bottom`` hands
the non-empty Alexander levels of a grid, as the alex completion table
lists them, to ``homology.walk_levels`` lowest first, and stops at the
first with homology.  Each level complex holds its level boundary only,
and its signed generator count must equal the signed sum of its ranks
(0 for the acyclic levels below the bottom), or InconsistentComplex is
raised.  Corollary-style deflation says the last level carries the hat
group of the lowest Alexander grading shifted by [k - l], so reported
gradings are corrected by 2(n - l) before anything downstream sees
them.  The genus is minus the corrected bottom grading.

Tau extremality asks whether the inclusion of the bottom filtration
window, the generators at or below the scan's last level, induces a
nonzero map on total homology.  That window is the scanned tail, so τ
runs on the scan's calculator and tail (``BottomScan.tau_extremal``):
``homology.two_step_from_levels`` adds each level's filtered boundary
into the levels below it, a rectangle pass made only for tails of two
or more levels, and only when τ runs.  The rank of that map is a sum of
non-negative terms, one per Maslov slice, so the answer is read off the
first positive term, lowest slice first, and the slices above it are
never listed.

The top group is the reflected bottom group of the mirror.  By the
symmetry HFK_d(a) = HFK_{d-2a}(-a), the top group sits at the genus, a
link and its mirror have the same genus, and the bottom group of a link
is the image of the bottom group of its mirror
(``ExtremalGroup.mirrored``).  So one scan of the mirror gives a link's
bottom group, its top group and τ_top; the Murasugi checks scan each
link once, so.

Each of ``scan_bottom`` (behind ``bottom_group``, ``top_group`` and
the τ flags), ``state_sum`` and the ``homology`` entry points behind
``hat_ranks`` builds one GradingCalculator for its grid and shares it
with every layer beneath.

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

from .errors import InconsistentComplex, NegativeIndex, NotAKnot
from .generators import DEFAULT_MAX_GENERATORS, graded_levels, level_counts
# Unused here, but perfbench's traced run wraps this name in this module.
from .generators import enumerate_all  # noqa: F401
from .gradings import GradingCalculator
from .grids import count_components, mirror
from .homology import (
    # Unused here, but perfbench's traced run wraps the three names marked
    # F401 in this module.
    build_level_complex,  # noqa: F401
    deflate_to_hat,
    homology_ranks,
    induced_map_rank,  # noqa: F401
    induced_map_ranks,
    level_homology_ranks,  # noqa: F401
    two_step_from_levels,
    walk_levels,
)
from .polynomials import LaurentPoly, divide_exact


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

    def mirrored(self):
        """The bottom group of the mirror, when this is a bottom group.

        By HFK_d(a) = HFK_{d-2a}(-a), with the 2(l - 1) Maslov shift of
        links, the reflected top group of the link: the same alex2, and
        Maslov exponents m2 -> 2 alex2 - 2(l - 1) - m2.  Applied twice it
        is the identity.
        """
        top = 2 * self.alex2 - 2 * (self.components - 1)
        poincare = LaurentPoly({top - m2: r
                                for m2, r in self.poincare.coeffs.items()})
        return ExtremalGroup(self.alex2, poincare, self.components)


@dataclass
class BottomScan:
    """The lowest non-empty Alexander levels of one grid, up to the first
    with homology.

    ``levels`` are their LevelComplexes in increasing alex2, as
    ``walk_levels`` yields them; ``ranks`` are the tilde ranks of the last.
    """

    calc: GradingCalculator
    levels: list
    ranks: dict

    @property
    def group(self):
        """The scanned grid's bottom group, hat-shifted."""
        shift = 2 * (self.calc.n - self.calc.components)
        poincare = LaurentPoly({m2 + shift: r for m2, r in self.ranks.items()})
        return ExtremalGroup(alex2=self.levels[-1].alex2 + shift,
                             poincare=poincare,
                             components=self.calc.components)

    def tau_extremal(self, max_generators=DEFAULT_MAX_GENERATORS):
        """Whether τ_bot = -g for the scanned grid.

        True exactly when the subcomplex of the generators at or below the
        last level, -genus2 - 2(n - l), includes into the full filtered
        complex with a nonzero map on homology: some Maslov slice term of
        ``induced_map_ranks`` is positive, and the slices stop at the first.
        """
        filt = two_step_from_levels(self.calc, self.levels)
        return any(induced_map_ranks(self.calc, filt, max_generators))


def scan_bottom(grid, max_generators=DEFAULT_MAX_GENERATORS, level_sizes=None):
    """Scan the levels of the grid upward to the first nonzero homology.

    Only the levels that hold generators are visited, as the alex
    completion table lists them (``graded_levels``), one at a time by
    ``walk_levels``, which checks each level's Euler characteristic;
    termination is guaranteed because the total tilde homology is
    nonzero.  The scanned tail is kept, and GridResourceError is raised,
    before the level that passes it is listed, once it would hold more
    than ``max_generators``.  ``level_sizes``, when given, is a dict that
    receives the number of generators of every scanned level, in
    increasing alex2.
    """
    calc = GradingCalculator(grid)
    levels = []
    walk = walk_levels(calc, ((s, None) for s in graded_levels(calc, "alex")),
                       max_generators)
    for lc, ranks in walk:
        if level_sizes is not None:
            level_sizes[lc.alex2] = lc.size
        levels.append(lc)
        if ranks:
            return BottomScan(calc, levels, ranks)
    raise InconsistentComplex("no nonzero homology level found")


def bottom_group(grid, max_generators=DEFAULT_MAX_GENERATORS,
                 level_sizes=None):
    """The hat group at the lowest Alexander grading, from ``scan_bottom``.

    ``level_sizes`` is handed to ``scan_bottom``.
    """
    return scan_bottom(grid, max_generators, level_sizes).group


def top_group(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Hat group at the highest Alexander grading, via the mirror."""
    return bottom_group(mirror(grid), max_generators).reflected()


def genus2(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Doubled Seifert genus: minus the bottom hat Alexander grading."""
    g2 = -bottom_group(grid, max_generators).alex2
    if g2 < 0:
        raise NegativeIndex(f"computed doubled genus {g2} is negative")
    return g2


def tau_bot_is_minus_g(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Whether the bottom tau invariant equals minus the genus: the tau
    flag of the grid's one bottom scan (``BottomScan.tau_extremal``)."""
    return scan_bottom(grid, max_generators).tau_extremal(max_generators)


def tau_top_is_g(grid, max_generators=DEFAULT_MAX_GENERATORS,
                 mirror_scan=None):
    """Whether the top tau invariant equals the genus (mirror duality).

    ``mirror_scan``, when given, is the ``scan_bottom`` of the grid's
    mirror, and no scan is made.
    """
    if mirror_scan is None:
        mirror_scan = scan_bottom(mirror(grid), max_generators)
    return mirror_scan.tau_extremal(max_generators)


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
    poly = state_sum(grid)
    den = LaurentPoly({0: 1, 1: -1}) if grid.n > 1 else LaurentPoly.one()
    for _ in range(grid.n - 1):
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

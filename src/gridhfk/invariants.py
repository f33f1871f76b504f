"""Link invariants read off the grid complex.

One scanner serves the extremal groups and τ.  ``scan_bottom`` hands
the non-empty Alexander levels of a grid, as the alex completion table
lists them, to ``homology.walk_levels`` lowest first, and stops at the
first with homology.  Each level complex holds its level boundary only,
and a negative homology rank raises InconsistentComplex.
Corollary-style deflation says the last level carries the hat group of
the lowest Alexander grading shifted by [k - l], so reported gradings
are corrected by 2(n - l) before anything downstream sees them.  The
genus is minus the corrected bottom grading.

Tau extremality asks whether the inclusion of the bottom filtration
window, the generators at or below the scan's last level, induces a
nonzero map on total homology.  Certificates that read only the scan
and the grid's Legendrian fronts (``grids.legendrian_front``) answer
first, and no slice is listed (``BottomScan._certified``): for an
l-component link the bound tb + |rot| <= 2τ - l (Plamenevskaya for
knots, Cavallo for links) and τ <= g make tb + |rot| + l = 2g on the
mirror's front a proof of τ = -g; a knot of genus 0 has τ = 0 = -g;
and the map preserves the Maslov grading, while the total homology
sits in the doubled gradings 0, -2, ..., -2(l - 1), so a bottom group
with no term there gives False.  Both fronts are checked against the
bound on every τ call, which catches a scanned genus that is too low.
Only the flags no certificate answers are computed
(``BottomScan.tau_computed``).  The window is the scanned tail, so τ
runs on the scan's calculator and tail.
A one-level tail is the window itself, filtered boundary and all, so τ
reads the block ranks the scan made; a longer tail is joined by
``homology.two_step_from_levels`` and its window blocks ranked with the
filtered boundary, only when τ runs.  The rank of that map is a sum of
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
the τ flags), ``state_sum`` and ``hat_ranks`` builds one
GradingCalculator for its grid and shares it with every layer beneath.

The full hat table is built from the bottom tail of levels.  The tilde
homology is the hat tensored with (F2 + F2[-1,-1])^k, k = n - l, so
tilde level s involves only hat levels s .. s + 2k, and dividing the
tilde levels s <= -2k by (1 + mt)^k from the bottom gives every hat
level a2 <= 0.  The hat symmetry HFK_d(a) = HFK_{d-2a}(-a), in doubled
units (m2, a2) <-> (m2 - 2 a2, -a2), gives the levels a2 > 0.  The
subset DP ``level_counts`` reports every level's count, sizes the tail
against the budget before it is enumerated, and gives each level's
Euler characteristic, which the hat inflated to the tilde table must
match on every call.  The tail is enumerated in one pass that hands
back each generator's alex2, so it is split into levels without being
graded again; no level above it is enumerated or graded.  The tilde
table, ``homology_ranks``, is that hat inflated.

The Alexander polynomial is the generator state sum
sum (-1)^(maslov2/2) t^(alex2/2) divided by (1 - t)^(n-1), symmetrized
and normalized to value +1 at t = 1.  Knots only.  The sum is read off
the signed level counts of the subset DP ``level_counts``, which never
lists the n! generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import GridResourceError, InconsistentComplex, NegativeIndex, NotAKnot
from .generators import (DEFAULT_MAX_GENERATORS, graded_generators,
                         graded_levels, level_counts)
# Unused here, but perfbench's traced run wraps this name in this module.
from .generators import enumerate_all  # noqa: F401
from .gradings import GradingCalculator
from .grids import GridDiagram, legendrian_front, mirror
# Unused here, but perfbench's traced run wraps this name in this module.
from .grids import count_components  # noqa: F401
from .homology import (
    BigradedRanks,
    # Unused here, but perfbench's traced run wraps the three names marked
    # F401 in this module.
    build_level_complex,  # noqa: F401
    deflate_to_hat,
    induced_map_rank,  # noqa: F401
    induced_map_ranks,
    inflate,
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

    ``grid`` is the scanned grid; ``levels`` are their LevelComplexes in
    increasing alex2, as ``walk_levels`` yields them, each holding its
    block ranks, not its boundary entries; ``ranks`` are the tilde ranks
    of the last.
    """

    calc: GradingCalculator
    levels: list
    ranks: dict
    grid: GridDiagram

    @cached_property
    def group(self):
        """The scanned grid's bottom group, hat-shifted, built once per
        scan."""
        shift = 2 * (self.calc.n - self.calc.components)
        poincare = LaurentPoly({m2 + shift: r for m2, r in self.ranks.items()})
        return ExtremalGroup(alex2=self.levels[-1].alex2 + shift,
                             poincare=poincare,
                             components=self.calc.components)

    def tau_extremal(self, max_generators=DEFAULT_MAX_GENERATORS):
        """Whether τ_bot = -g for the scanned grid: the certificates'
        answer (``_certified``) when one applies, and otherwise the
        computed one (``tau_computed``), so a slice is listed only when
        no certificate answers."""
        certified = self._certified()
        if certified is None:
            return self.tau_computed(max_generators)
        return certified

    def tau_computed(self, max_generators=DEFAULT_MAX_GENERATORS):
        """Whether τ_bot = -g, from the Maslov slices: True exactly when
        the subcomplex of the generators at or below the last level,
        -genus2 - 2(n - l), includes into the full filtered complex with
        a nonzero map on homology, that is, some Maslov slice term of
        ``induced_map_ranks`` is positive, and the slices stop at the
        first."""
        filt = two_step_from_levels(self.calc, self.levels)
        return any(induced_map_ranks(self.calc, filt, max_generators))

    def _certified(self):
        """The τ flag of the scanned link S with l components when a
        certificate settles it, else None; InconsistentComplex when a
        front breaks its bound or the certificates disagree.

        The link bound tb + |rot| <= 2τ - l (Cavallo; Plamenevskaya's
        for knots) holds for the front of every grid of S, and τ is at
        most half the doubled index genus2 = -alex2 of the bottom group,
        so tb + |rot| + l <= genus2 for the fronts of S and of its
        mirror; a front past genus2 means the scan's index is too low.
        Equality on the mirror's front gives τ(mirror S) at its top,
        which is τ(S) = -g: True.  A knot of genus 0 has |τ| <= g = 0:
        True.  The flag asks whether the bottom level, whose homology is
        the bottom group, includes with a nonzero map into the total
        homology, which is supported in the doubled Maslov gradings
        0, -2, ..., -2(l - 1); the map preserves the Maslov grading, so
        a bottom group with no term there gives False.  The two tb
        must sum to -n.
        """
        group = self.group
        l, genus2 = self.calc.components, -group.alex2
        tb, rot = legendrian_front(self.grid)
        tb_m, rot_m = legendrian_front(mirror(self.grid))
        if tb + tb_m != -self.calc.n:
            raise InconsistentComplex(
                f"Thurston-Bennequin numbers {tb} and {tb_m} of a grid and "
                f"its mirror do not sum to -n = {-self.calc.n}")
        for bound in (tb + abs(rot) + l, tb_m + abs(rot_m) + l):
            if bound > genus2:
                raise InconsistentComplex(
                    f"a Legendrian front gives tb + |rot| + {l} = {bound}, "
                    f"above the scanned doubled genus {genus2}")
        proved = tb_m + abs(rot_m) + l == genus2 or (l == 1 and genus2 == 0)
        supported = any(-2 * (l - 1) <= m2 <= 0
                        for m2 in group.poincare.coeffs)
        if proved and not supported:
            raise InconsistentComplex(
                f"τ = -g is proved, but the bottom group "
                f"{group.poincare.coeffs} has no term in the Maslov "
                f"gradings of the total homology")
        if proved:
            return True
        return None if supported else False


def scan_bottom(grid, max_generators=DEFAULT_MAX_GENERATORS):
    """Scan the levels of the grid upward to the first nonzero homology.

    Only the levels that hold generators are visited, as the alex
    completion table lists them (``graded_levels``), one at a time by
    ``walk_levels``; termination is guaranteed because the total tilde
    homology is nonzero.  The scanned tail is kept, and GridResourceError is raised,
    before the level that passes it is listed, once it would hold more
    than ``max_generators``.
    """
    calc = GradingCalculator(grid)
    levels = []
    walk = walk_levels(calc, ((s, None) for s in graded_levels(calc, "alex")),
                       max_generators)
    for lc, ranks in walk:
        levels.append(lc)
        if ranks:
            return BottomScan(calc, levels, ranks, grid)
    raise InconsistentComplex("no nonzero homology level found")


def bottom_group(grid, max_generators=DEFAULT_MAX_GENERATORS,
                 level_sizes=None):
    """The hat group at the lowest Alexander grading, from ``scan_bottom``.

    ``level_sizes``, when given, is a dict that receives the number of
    generators of every scanned level, in increasing alex2.
    """
    scan = scan_bottom(grid, max_generators)
    if level_sizes is not None:
        level_sizes.update((lc.alex2, lc.size) for lc in scan.levels)
    return scan.group


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
    """Full bigraded hat homology, from the bottom tail of levels.

    With k = n - l, the tilde levels alex2 <= -2k are built and divided
    by (1 + mt)^k from the bottom, which gives every hat level
    alex2 <= 0; the symmetry (m2, a2) <-> (m2 - 2 a2, -a2) of the hat
    gives the rest.  The tail is enumerated in one pass, split by the
    alex2 each generator was enumerated by, after ``level_counts`` has
    checked its size against the budget, and ``walk_levels`` builds and
    ranks its levels; no level above it is graded.  The Euler
    characteristic of every level of the hat inflated to the tilde table
    must equal the signed count from ``level_counts``, or
    InconsistentComplex is raised.  ``level_sizes``, when given, is a
    dict that receives the number of generators of every non-empty
    level, in increasing alex2.
    """
    return _checked_tables(grid, max_generators, level_sizes)[0]


def homology_ranks(grid, max_generators=DEFAULT_MAX_GENERATORS, level_sizes=None):
    """Tilde homology ranks of every level: ``hat_ranks`` inflated by
    (F2 + F2[-1,-1])^(n - l), the table its Euler check read.
    ``level_sizes`` is handed on as in ``hat_ranks``."""
    return _checked_tables(grid, max_generators, level_sizes)[1]


def _checked_tables(grid, max_generators, level_sizes):
    """The hat table of ``hat_ranks`` and its inflated tilde table, whose
    Euler characteristics were checked."""
    calc = GradingCalculator(grid)
    k = calc.n - calc.components
    levels = level_counts(calc)
    if level_sizes is not None:
        level_sizes.update((s, count) for s, (count, _) in levels.items())
    tail = [s for s in levels if s <= -2 * k]
    size = sum(levels[s][0] for s in tail)
    if size > max_generators:
        raise GridResourceError(
            f"the {size} generators of the levels up to {-2 * k} exceed "
            f"the budget {max_generators}", estimate=size)
    gens, alex2 = graded_generators(calc, "alex", tail, max_generators)
    walk = walk_levels(calc, ((s, gens[alex2 == s]) for s in tail),
                       max_generators)
    ranks = {(m2, lc.alex2): r for lc, level in walk
             for m2, r in level.items()}
    hat = deflate_to_hat(BigradedRanks(ranks), k, top=-2 * k)
    hat.ranks.update({(m2 - 2 * a2, -a2): r
                      for (m2, a2), r in hat.ranks.items() if a2 < 0})
    tilde = inflate(hat, k)
    euler = dict.fromkeys(levels, 0)
    for (m2, a2), r in tilde.ranks.items():
        euler[a2] = euler.get(a2, 0) + (-r if m2 // 2 % 2 else r)
    for s, e in euler.items():
        want = levels.get(s, (0, 0))[1]
        if e != want:
            raise InconsistentComplex(
                f"Euler characteristic {e} at alex2 = {s} differs from the "
                f"signed generator count {want}")
    return hat, tilde


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

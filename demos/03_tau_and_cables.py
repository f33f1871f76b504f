"""Extremal groups as genus and chirality detectors, and cable predictions.

The bottom (lowest Alexander grading) and top (highest) hat homology
groups of a knot sit at -g and +g for the Seifert genus g, and their
Maslov gradings know more: whether a distinguished class survives to
the extremal level — the "tau flag" — distinguishes a knot from its
mirror.  The same data feeds a closed-form predictor for the top group
of any (p, q) cable.
"""

from gridhfk.grids import load_corpus, mirror
from gridhfk.invariants import (
    bottom_group,
    genus2,
    tau_bot_is_minus_g,
    tau_top_is_g,
    top_group,
)
from gridhfk.murasugi import cable_top_group_predict
from gridhfk.polynomials import LaurentPoly


def true_maslov(poly):
    """A Maslov polynomial with doubled exponents, shown in true ones
    (doubled Maslov gradings are even)."""
    return LaurentPoly({e // 2: c for e, c in poly.coeffs.items()}).format()


def banner(text):
    print()
    print("=" * 66)
    print(text)
    print("=" * 66)


def describe(name):
    g = load_corpus(name)
    bot, top = bottom_group(g), top_group(g)
    print(f"\n{name}:  genus = {genus2(g) // 2}")
    print(f"  bottom group at Alexander {bot.alex2 / 2:+.1f}: "
          f"Maslov polynomial {true_maslov(bot.poincare)}")
    print(f"  top group    at Alexander {top.alex2 / 2:+.1f}: "
          f"Maslov polynomial {true_maslov(top.poincare)}")
    print(f"  tau flags: bottom detects -g: {tau_bot_is_minus_g(g)}, "
          f"top detects +g: {tau_top_is_g(g)}")


banner("1. Genus from the Alexander spread, chirality from the flags")
for name in ("trefoil5", "trefoil_left5", "figure_eight6", "knot_5_2_7",
             "torus_2_5_7"):
    describe(name)

print("""
The two trefoils have identical rank tables up to reflection; the tau
flags tell them apart: the right trefoil's top group detects its genus
(the flag pair is (False, True)), the left trefoil's bottom group does
((True, False)).  The figure-eight, its own mirror, has both flags
matching: its flag pattern is symmetric, as it must be.""")

banner("2. Flags swap under mirroring")
g = load_corpus("knot_5_2_7")
m = mirror(g)
print(f"5_2:        (bottom, top) = ({tau_bot_is_minus_g(g)}, {tau_top_is_g(g)})")
print(f"mirror 5_2: (bottom, top) = ({tau_bot_is_minus_g(m)}, {tau_top_is_g(m)})")

banner("3. Cables: predicting a top group without building the cable grid")
print("""A (p, q) cable wraps p longitudes and q meridians around a companion
knot.  Its top group follows from the companion's genus and top group:

    q > 0: Alexander2 = p * g2 + (p - 1)(q - 1), Maslov unchanged
    q < 0: Alexander2 = p * g2 + (p - 1)(-q - 1), Maslov shifted by
           2(p - 1)(g2 - q - 1)

The (2, 3) and (2, -3) cables of the unknot are the two trefoils, so
the prediction can be checked against grids computed from scratch:""")
unknot_top = LaurentPoly({0: 1})
for q, grid_name in ((3, "trefoil5"), (-3, "trefoil_left5")):
    alex2, maslov = cable_top_group_predict(2, q, 0, unknot_top)
    actual = top_group(load_corpus(grid_name))
    match = (alex2, maslov) == (actual.alex2, actual.poincare)
    print(f"\n  (2, {q:+d}) cable of the unknot:")
    print(f"    predicted top: Alexander {alex2 / 2:+.1f}, "
          f"Maslov polynomial {true_maslov(maslov)}")
    print(f"    computed from {grid_name}: Alexander {actual.alex2 / 2:+.1f}, "
          f"Maslov polynomial {true_maslov(actual.poincare)}")
    print(f"    match: {match}")
    assert match

print("\nThe same formula scales to cables far beyond grid reach:")
tre = load_corpus("trefoil5")
tre_top = top_group(tre).poincare
for p, q in ((3, 2), (3, -2), (5, 7)):
    alex2, maslov = cable_top_group_predict(p, q, genus2(tre), tre_top)
    print(f"  ({p}, {q:+d}) cable of the trefoil: top group at Alexander "
          f"{alex2 / 2:+.1f}, Maslov polynomial {true_maslov(maslov)}")

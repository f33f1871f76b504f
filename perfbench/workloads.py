"""The three workloads: their inputs, made from a seed, and their checks.

A workload is built once per run into a directory of its own: grid
files written there, a list of ``Op`` (one CLI command each, with the
check its answer must pass) and the order in which a round runs them.
The seed picks the order of the commands in each round and torus
translations of the small input grids (isomorphisms of the grid complex,
so every answer and every complex size stays the same); it never picks
which knots run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks

CASES = ["corrupt_bad_index", "corrupt_wrong_sum",
         "hopf_plumbing_figure_eight", "hopf_plumbing_trefoil",
         "left_right_connected_sum", "trefoil_connected_sum"]

# compute --hat on a connected sum of size 8 (knots only, so the Euler
# characteristic check applies).  The n = 9 headline trefoil5#trefoil5
# (30-45 s) and the n = 9 figure_eight6#hopf_plus4 tau case (about 35 s)
# fit once per run at most, and one sample per run swings by a quarter
# with the host's speed; rounds of a few seconds, reported as a median,
# do not.
HAT_SUMS = [("figure_eight6", "unknot3")]

# murasugi --connect at n = 10: the full 10! enumeration and its memory.
LARGE_SUMS = [("trefoil5", "trefoil6")]

# murasugi --connect sums of size <= 9 that finish in well under a second.
SMALL_SUMS = [("trefoil5", "unknot3"), ("hopf_plus4", "hopf_minus4"),
              ("trefoil5", "hopf_plus4"), ("trefoil_left5", "hopf_minus4"),
              ("trefoil5", "trefoil_left5"), ("figure_eight6", "unknot3"),
              ("hopf_plus4", "hopf_plus4"), ("trefoil5", "trefoil5")]

# cable --compare: the (2, +-3) cables of the unknot are the trefoils.
CABLES = [(3, "trefoil5"), (-3, "trefoil_left5")]

BOTTOM_KNOTS = ["trefoil5", "figure_eight6", "knot_5_2_7", "torus_2_5_7"]

LEDGER_SEEDED = ["hopf_plus", "trefoil"]


@dataclass
class Op:
    """One CLI command and the check its outcome must pass."""

    label: str
    argv: list
    check: callable
    before: callable = None  # resets state the command depends on


@dataclass
class Workload:
    name: str
    # Lists of commands that keep their inner order when a round is shuffled.
    units: list

    @property
    def ops(self):
        return [op for unit in self.units for op in unit]

    def round_order(self, rng):
        units = list(self.units)
        rng.shuffle(units)
        return [op for unit in units for op in unit]


class Inputs:
    """Writes seed-translated grid files into the output directory."""

    def __init__(self, out_dir: Path, rng: random.Random):
        self.out_dir = out_dir
        self.rng = rng

    def grid(self, label, grid, rows=True, cols=True):
        n = len(grid[0])
        dr = self.rng.randrange(n) if rows else 0
        dc = self.rng.randrange(n) if cols else 0
        path = self.out_dir / f"{label}.grid"
        path.write_text(checks.format_grid_text(
            checks.torus_translate(grid, dr, dc)))
        return str(path)


def _hat_table(inputs, connected_sum):
    units = []
    for a, b in HAT_SUMS:
        # Translations reorder the branch and bound, which moves the cost
        # of an n = 8 table by up to a fifth; the timed grid stays fixed.
        path = inputs.grid(f"{a}#{b}", connected_sum(a, b),
                           rows=False, cols=False)
        units.append([Op(f"compute --hat {a}#{b}", ["compute", "--hat", path],
                         partial(checks.check_hat_table, (a, b)))])
    return units


def _connect(inputs, a, b):
    # Column translations of the summands leave the sum grid that
    # connected_sum builds unchanged; row translations would not.
    pa = inputs.grid(f"{a}.{b}.1", checks.corpus_grid(a), rows=False)
    pb = inputs.grid(f"{b}.{a}.2", checks.corpus_grid(b), rows=False)
    return Op(f"murasugi --connect {a} {b}", ["murasugi", "--connect", pa, pb],
              partial(checks.check_murasugi_sum, (a, b)))


def _murasugi_large(inputs, connected_sum):
    return [[_connect(inputs, a, b)] for a, b in LARGE_SUMS]


def _murasugi_small(inputs, connected_sum):
    units = []
    for case in CASES:
        path = checks.CORPUS / "cases" / f"{case}.json"
        expect = json.loads(path.read_text()).get("expect", {})
        units.append([Op(f"murasugi {case}", ["murasugi", str(path)],
                         partial(checks.check_case, expect))])
    for a, b in SMALL_SUMS:
        units.append([_connect(inputs, a, b)])
    for q, knot in CABLES:
        unknot = inputs.grid(f"unknot3.cable{q}", checks.corpus_grid("unknot3"))
        target = inputs.grid(f"{knot}.cable", checks.corpus_grid(knot))
        units.append([Op(f"cable unknot3 2,{q}",
                         ["cable", unknot, "--p", "2", "--q", str(q),
                          "--compare", target],
                         partial(checks.check_cable, knot))])
    for knot in BOTTOM_KNOTS:
        path = inputs.grid(f"{knot}.bottom", checks.corpus_grid(knot))
        units.append([Op(f"compute --window bottom {knot}",
                         ["compute", "--window", "bottom", path],
                         partial(checks.check_bottom, knot))])
    ledger = inputs.out_dir / "ledger.json"
    units.append([
        Op("ledger seed", ["ledger", "--file", str(ledger), "seed"],
           partial(checks.check_ledger_seed, LEDGER_SEEDED),
           before=lambda: ledger.unlink(missing_ok=True)),
        Op("ledger p", ["ledger", "--file", str(ledger), "p",
                        "hopf_plus", "hopf_plus", "-trefoil"],
           partial(checks.check_plumbing_identity, None)),
    ])
    return units


BUILDERS = {"hat_table": _hat_table, "murasugi_large": _murasugi_large,
            "murasugi_small": _murasugi_small}


def build(name, seed, out_dir, connected_sum):
    """Make the workload's inputs; ``connected_sum(a, b)`` returns the
    (x_cols, o_cols) of the connected sum of two corpus grids."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, BUILDERS[name](Inputs(out_dir, rng), connected_sum))

"""Command-line front end.

Subcommands:

    compute   homology ranks of one grid file (tilde, hat, or bottom window)
    murasugi  run both plumbing-theorem checks on a case file
    ledger    manage and query the polynomial ledger
    cable     predict the top group of a (p,q) cable

Every grid a command loads or builds is simplified (``grids.simplify``)
before anything is computed on it; the answers are those of the grid as
given, and the ``--json`` report's ``grid_sizes`` gives both sizes.

Exit codes: 0 success / verification passed, 1 a verification check
failed (a theorem check, or an internal consistency check such as the
Euler characteristic or exact division of the homology table), 2 input
error (unreadable file, invalid grid, bad declaration), 3 resource bound
exceeded (the generator budget, or memory ran out).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    GridInputError,
    GridResourceError,
    InconsistentComplex,
    NotDivisible,
    parse_json,
)
from .generators import (
    DEFAULT_MAX_GENERATORS,
    # Unused here, but perfbench's traced run wraps these names in this module.
    enumerate_all,  # noqa: F401
    generators_in_level,  # noqa: F401
)
from .grids import (
    corpus_case_path,
    corpus_path,
    count_components,
    load_grid,
    mirror,
    simplify,
)
from .homology import inflate
from .invariants import (
    bottom_group,
    # Unused here, but perfbench's traced run wraps this name in this module.
    genus2,  # noqa: F401
    hat_ranks,
    homology_ranks,
    scan_bottom,
    top_group,
)
from .ledger import (
    LedgerEntry,
    b1_sum_check,
    cor6_obstruction,
    entry_from_grid,
    independent_by_coprimality,
    load_ledger,
    p_image,
    save_ledger,
    seed_entries,
)
from .murasugi import (
    CaseSide,
    cable_top_group_predict,
    load_case,
    make_connected_sum_case,
    mirror_scans,
    verify_theorem1,
    verify_theorem2,
)
from .polynomials import LaurentPoly

SCHEMA_VERSION = 1
DEFAULT_LEDGER = "gridhfk_ledger.json"


@dataclass
class RunReport:
    """Everything one invocation computed, serializable to JSON."""

    command: list
    inputs: dict = field(default_factory=dict)   # label -> {path, sha256}
    # label -> [input n, working n]: every grid is simplified before use
    grid_sizes: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    generator_counts: dict = field(default_factory=dict)  # alex2 -> count
    wall_time: float = 0.0
    schema: int = SCHEMA_VERSION

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "command": list(self.command),
            "inputs": self.inputs,
            "grid_sizes": self.grid_sizes,
            "results": self.results,
            "generator_counts": {str(k): v
                                 for k, v in self.generator_counts.items()},
            "wall_time": self.wall_time,
        }


def _digest(path: Path) -> dict:
    return {"path": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _resolve_input(path_str: str, corpus_file=corpus_path) -> Path:
    """Accept literal paths, corpus:<name> references, and bare names
    (no directory part) found in the corpus; ``corpus_file`` maps a name
    to its corpus path.  Everything else raises FileNotFoundError."""
    if path_str.startswith("corpus:"):
        path = Path(corpus_file(path_str.split(":", 1)[1]))
    else:
        path = Path(path_str)
        if not path.exists() and path.name == path_str:
            path = Path(corpus_file(path_str))
    if not path.exists():
        raise FileNotFoundError(f"FileNotFound: {path_str}")
    return path


def _working(grid, label: str, report: RunReport):
    """The simplified grid a command computes on; records both sizes."""
    small = simplify(grid)
    report.grid_sizes[label] = [grid.n, small.n]
    return small


def _grid_input(ref: str, label: str, report: RunReport):
    """The working grid of a grid reference, and the file it resolved to.

    The file's digest goes to ``report.inputs[label]`` and both grid
    sizes to ``report.grid_sizes[label]``.
    """
    path = _resolve_input(ref)
    report.inputs[label] = _digest(path)
    return _working(load_grid(path), label, report), path


def _ranks_to_json(ranks: dict) -> list:
    return [[m2, a2, r] for (m2, a2), r in sorted(ranks.items())]


def _print_rank_table(ranks: dict, out) -> None:
    print(f"{'maslov2':>8} {'alex2':>6} {'rank':>5}", file=out)
    for (m2, a2), r in sorted(ranks.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"{m2:>8} {a2:>6} {r:>5}", file=out)


# --------------------------------------------------------------------------
# compute


def cmd_compute(args, report, out) -> int:
    grid, _ = _grid_input(args.path, "grid", report)

    if args.window == "bottom":
        # counts only the tilde levels the extremal scan visited
        group = bottom_group(grid, args.max_generators,
                             level_sizes=report.generator_counts)
        report.results = {
            "window": "bottom",
            "alex2_bottom": group.alex2,
            "poincare": group.poincare.to_json(),
            "genus2": -group.alex2,
            "components": group.components,
        }
        if not args.json:
            print(f"bottom group at alex2 = {group.alex2} "
                  f"(doubled genus {-group.alex2})", file=out)
            print(f"poincare (rank {group.rank}): "
                  f"{group.poincare.format('m')}", file=out)
    else:
        # the level sizes come from the level DP, which lists no state
        window = "hat" if args.hat else "full"
        rank_fn = hat_ranks if args.hat else homology_ranks
        ranks = rank_fn(grid, args.max_generators,
                        level_sizes=report.generator_counts)
        if not args.hat:
            # The tilde table of the grid as given: each row and column
            # that simplification removed is one more tensor factor.
            ranks = inflate(ranks, report.grid_sizes["grid"][0] - grid.n)
        report.results = {"window": window,
                          "ranks": _ranks_to_json(ranks.ranks),
                          "total_rank": ranks.total_rank()}
        if not args.json:
            _print_rank_table(ranks.ranks, out)
            if window == "full":
                print(f"total rank {ranks.total_rank()} over "
                      f"{len(ranks.alex_levels())} Alexander levels", file=out)
    return 0


# --------------------------------------------------------------------------
# murasugi


def _working_side(side: CaseSide, label: str, report: RunReport) -> CaseSide:
    """The side on its working grid; the digest of the grid file a case
    file named goes to ``report.inputs[label]``."""
    if side.path is not None:
        report.inputs[label] = _digest(side.path)
    return dataclasses.replace(side, grid=_working(side.grid, label, report))


def cmd_murasugi(args, report, out) -> int:
    if args.connect and args.case:
        raise GridInputError("murasugi takes a case file or --connect, not both")
    if args.connect:
        ga, path_a = _grid_input(args.connect[0], "summand1", report)
        gb, path_b = _grid_input(args.connect[1], "summand2", report)
        # Each summand declares its doubled genus, read off the scan of
        # its mirror (a link and its mirror share the genus), which both
        # theorem checks then reuse; equal grids share one scan.
        by_grid = {}
        for g in (ga, gb):
            if g not in by_grid:
                by_grid[g] = scan_bottom(mirror(g), args.max_generators)
        side_a = CaseSide(ga, -by_grid[ga].group.alex2, path_a.stem)
        side_b = CaseSide(gb, -by_grid[gb].group.alex2, path_b.stem)
        case = make_connected_sum_case(
            f"{path_a.stem}#{path_b.stem}", side_a, side_b)
        case = dataclasses.replace(case, total=_working_side(
            case.total, "sum", report))
        scans = mirror_scans(case, args.max_generators, by_grid)
        expect = {}
    else:
        if not args.case:
            raise GridInputError("murasugi needs a case file or --connect")
        path = _resolve_input(args.case, corpus_case_path)
        case, expect = load_case(path)
        report.inputs["case"] = _digest(path)
        case = dataclasses.replace(
            case, summand1=_working_side(case.summand1, "summand1", report),
            summand2=_working_side(case.summand2, "summand2", report),
            total=_working_side(case.total, "sum", report))
        scans = mirror_scans(case, args.max_generators)

    r1 = verify_theorem1(case, scans)
    r2 = verify_theorem2(case, scans, args.max_generators)
    report.results = {
        "case": case.name,
        "theorem1": r1.to_json(),
        "theorem2": r2.to_json(),
        "expected": expect,
    }
    if not args.json:
        for label, rep in (("extremal multiplicativity", r1),
                           ("tau extremality", r2)):
            verdict = "pass" if rep.passed else "FAIL"
            print(f"{case.name}: {label}: {verdict} "
                  f"({rep.wall_time:.2f}s)", file=out)
    return 0 if (r1.passed and r2.passed) else 1


# --------------------------------------------------------------------------
# ledger


def cmd_ledger(args, report, out) -> int:
    ledger_path = Path(args.file)
    ledger = load_ledger(ledger_path)
    if ledger_path.exists():
        report.inputs["ledger"] = _digest(ledger_path)
    code = 0
    sub = args.ledger_cmd

    if sub == "seed":
        added = []
        for entry in seed_entries(skip=ledger.entries):
            ledger.add(entry)
            added.append(entry.name)
        save_ledger(ledger, ledger_path)
        report.results = {"added": added, "total": len(ledger.entries)}
        if not args.json:
            print(f"seeded {len(added)} entries into {ledger_path}", file=out)

    elif sub == "add":
        if args.grid and (args.poincare is not None or args.b1 is not None):
            raise GridInputError(
                "ledger add takes --grid, or --poincare with --b1, not both")
        if args.grid:
            grid, path = _grid_input(args.grid, "grid", report)
            entry = entry_from_grid(args.name, grid, str(path),
                                    args.max_generators)
        else:
            if args.poincare is None or args.b1 is None:
                raise GridInputError(
                    "ledger add needs --grid, or --poincare with --b1")
            poly = LaurentPoly.from_json(
                parse_json(args.poincare, "--poincare"), "--poincare")
            entry = LedgerEntry(args.name, poly, args.b1, "literature")
        ledger.add(entry)
        save_ledger(ledger, ledger_path)
        report.results = {"added": entry.to_json()}
        if not args.json:
            print(f"added {entry.name}: P = {entry.top_poincare.format('t')}, "
                  f"b1 = {entry.b1_min} [{entry.source}]", file=out)

    elif sub == "p":
        signed = []
        for token in args.names:
            sign, name = (-1, token[1:]) if token.startswith("-") else (1, token)
            signed.append((sign, ledger.get(name)))
        image = p_image(signed)
        report.results = {"image": image.to_json(),
                          "is_identity": image.is_one,
                          "rank_ratio": str(image.rank_ratio())}
        if not args.json:
            print(image.format(), file=out)

    elif sub == "indep":
        entries = [ledger.get(n) for n in args.names]
        verdict = independent_by_coprimality(entries)
        report.results = {"independent": verdict,
                          "names": list(args.names)}
        if not args.json:
            print("independent: certified by pairwise coprimality"
                  if verdict else
                  "not certified: polynomials share a factor", file=out)
        code = 0 if verdict else 1

    elif sub == "cor6":
        entry = ledger.get(args.names[0])
        verdict = cor6_obstruction(entry)
        report.results = {"obstructed": verdict, "name": entry.name,
                          "poincare": entry.top_poincare.to_json()}
        if not args.json:
            print(f"{entry.name}: "
                  + ("obstructed: not a Murasugi sum of thin links "
                     "(top group spans several Maslov gradings)"
                     if verdict else
                     "no obstruction (top group in a single Maslov grading)"),
                  file=out)

    elif sub == "b1check":
        e1, e2, es = (ledger.get(n) for n in args.names)
        verdict = b1_sum_check(e1, e2, es)
        report.results = {"additive": verdict,
                          "b1": [e1.b1_min, e2.b1_min, es.b1_min]}
        if not args.json:
            print(f"b1 additivity {e1.b1_min} + {e2.b1_min} "
                  f"{'==' if verdict else '!='} {es.b1_min}", file=out)
        code = 0 if verdict else 1

    elif sub == "show":
        report.results = {"entries": [e.to_json()
                                      for e in ledger.entries.values()]}
        if not args.json:
            for e in ledger.entries.values():
                print(f"{e.name:16s} P = {e.top_poincare.format('t'):16s} "
                      f"b1 = {e.b1_min:2d}  [{e.source}]", file=out)
    return code


# --------------------------------------------------------------------------
# cable


def cmd_cable(args, report, out) -> int:
    grid, _ = _grid_input(args.path, "knot", report)
    if count_components(grid) != 1:
        raise GridInputError("cable prediction needs a knot (one component)")

    ktop = top_group(grid, max_generators=args.max_generators)
    g2 = ktop.alex2  # the top group of a knot sits at its genus
    alex2, poly = cable_top_group_predict(args.p, args.q, g2, ktop.poincare)
    convention = ("q counts right-handed meridian twists: the (2,3) cable "
                  "of the unknot is the positive trefoil; for q<0 the top "
                  "group's Maslov gradings shift up by (p-1)(2g-q-1)")
    report.results = {
        "p": args.p, "q": args.q, "companion_genus2": g2,
        "companion_top": ktop.poincare.to_json(),
        "predicted_alex2": alex2,
        "predicted_poincare": poly.to_json(),
        "convention": convention,
    }
    if not args.json:
        print(f"({args.p},{args.q}) cable: top group predicted at "
              f"alex2 = {alex2} with poincare {poly.format('m')}", file=out)
        print(f"convention: {convention}", file=out)

    code = 0
    if args.compare:
        cgrid, _ = _grid_input(args.compare, "comparison", report)
        ctop = top_group(cgrid, max_generators=args.max_generators)
        match = (ctop.alex2, ctop.poincare) == (alex2, poly)
        report.results["comparison"] = {
            "alex2": ctop.alex2, "poincare": ctop.poincare.to_json(),
            "match": match,
        }
        if not args.json:
            print(f"direct computation: alex2 = {ctop.alex2}, "
                  f"poincare {ctop.poincare.format('m')} -> "
                  f"{'match' if match else 'MISMATCH'}", file=out)
        code = 0 if match else 1
    return code


# --------------------------------------------------------------------------
# plumbing


def _common_options(parser, suppress=False):
    """The global options, accepted both before and after the subcommand.

    Subparsers add them with SUPPRESS defaults so a flag given before the
    subcommand is not clobbered by a subparser default afterwards.
    """
    defaults = {
        "json": argparse.SUPPRESS if suppress else False,
        "max_generators": (argparse.SUPPRESS if suppress
                           else DEFAULT_MAX_GENERATORS),
    }
    parser.add_argument("--json", action="store_true",
                        default=defaults["json"],
                        help="emit the full JSON run report on stdout")
    parser.add_argument("--max-generators", type=int,
                        default=defaults["max_generators"],
                        help="abort (exit 3) any level, subcomplex, "
                             "Maslov slice pair or table tail over more "
                             "than this many generators")


# Built once per process and shared by every run: all defaults are
# immutable, and parsing leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhfk",
        description="Grid-diagram link homology: extremal groups, plumbing "
                    "checks, and the polynomial ledger.")
    _common_options(parser)
    subs = parser.add_subparsers(dest="cmd", required=True)

    p_compute = subs.add_parser("compute", help="homology ranks of a grid")
    _common_options(p_compute, suppress=True)
    p_compute.add_argument("path", help="grid file, corpus:<name>, or bare "
                                        "corpus name")
    p_compute.add_argument("--window", choices=("bottom", "full"),
                           default="full")
    p_compute.add_argument("--hat", action="store_true",
                           help="deflate the tilde homology to hat ranks")

    p_mur = subs.add_parser("murasugi", help="verify both plumbing theorems")
    _common_options(p_mur, suppress=True)
    p_mur.add_argument("case", nargs="?", help="case file or corpus:<name>")
    p_mur.add_argument("--connect", nargs=2, metavar=("A", "B"),
                       help="build the connected-sum case of two grids")

    p_led = subs.add_parser("ledger", help="polynomial ledger")
    _common_options(p_led, suppress=True)
    p_led.add_argument("--file", default=DEFAULT_LEDGER,
                       help=f"ledger JSON file (default {DEFAULT_LEDGER})")
    led_subs = p_led.add_subparsers(dest="ledger_cmd", required=True)
    led_subs.add_parser("seed", help="add corpus + literature entries")
    p_add = led_subs.add_parser("add", help="add one entry")
    p_add.add_argument("name")
    p_add.add_argument("--grid", help="compute the entry from this grid")
    p_add.add_argument("--poincare", help='literature polynomial as JSON, '
                                          'e.g. \'{"0":1,"1":1}\'')
    p_add.add_argument("--b1", type=int, help="minimal first Betti number")
    p_p = led_subs.add_parser("p", help="image of a signed combination")
    p_p.add_argument("names", nargs=argparse.REMAINDER,
                     help="entry names; prefix with - to invert")
    p_ind = led_subs.add_parser("indep", help="coprimality certificate")
    p_ind.add_argument("names", nargs="+")
    p_cor6 = led_subs.add_parser("cor6", help="multi-grading obstruction")
    p_cor6.add_argument("names", nargs=1)
    p_b1 = led_subs.add_parser("b1check", help="b1 additivity of a triple")
    p_b1.add_argument("names", nargs=3, metavar=("A", "B", "SUM"))
    led_subs.add_parser("show", help="list entries")

    p_cab = subs.add_parser("cable", help="cable top-group prediction")
    _common_options(p_cab, suppress=True)
    p_cab.add_argument("path", help="companion knot grid")
    p_cab.add_argument("--p", type=int, required=True)
    p_cab.add_argument("--q", type=int, required=True)
    p_cab.add_argument("--compare", help="grid of the cable to check against")
    return parser


COMMANDS = {
    "compute": cmd_compute,
    "murasugi": cmd_murasugi,
    "ledger": cmd_ledger,
    "cable": cmd_cable,
}


def run(argv, out=sys.stdout, err=sys.stderr) -> int:
    """Parse ``argv``, run its command on a fresh RunReport, and print the
    report with ``--json``; returns the exit code.  ``wall_time`` runs
    from the end of argument parsing to the command's return."""
    args = build_parser().parse_args(argv)
    report = RunReport(command=list(argv))
    start = time.perf_counter()
    try:
        if args.max_generators < 0:
            raise GridInputError(f"--max-generators {args.max_generators} is negative")
        code = COMMANDS[args.cmd](args, report, out)
    except GridResourceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=err)
        return 3
    except MemoryError:
        print("MemoryError: the computation ran out of memory", file=err)
        return 3
    except (InconsistentComplex, NotDivisible) as exc:
        print(f"{type(exc).__name__}: {exc}", file=err)
        return 1
    except FileNotFoundError as exc:
        print(str(exc), file=err)
        return 2
    except (GridInputError, OSError, KeyError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=err)
        return 2
    report.wall_time = round(time.perf_counter() - start, 3)
    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

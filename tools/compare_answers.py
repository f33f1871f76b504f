#!/usr/bin/env python3
"""Compare the answers of this checkout with those of another one.

    python3 tools/compare_answers.py OTHER_CHECKOUT

One fixed command set runs through ``gridhfk.cli.run(["--json", ...])``
twice: once with the package of this checkout and once with that of
OTHER_CHECKOUT, each in one subprocess that imports ``gridhfk`` from
its tree's ``src/``.  The set:

  * the six bundled case files;
  * ``murasugi --connect`` on eight small sums and on three larger ones
    (8, 9 and 10 after simplification; the last two have Maslov
    completion tables two words wide);
  * ``compute`` (full, ``--hat`` and ``--window bottom``) on every
    corpus grid of size at most 7;
  * ``compute`` (full and ``--hat``) on two connected sums whose tails
    span three levels: trefoil5#trefoil5 (8 after simplification, tail
    7 + 93 + 764 states) and knot_5_2_7#trefoil5 (10, tail
    10 + 283 + 3 888).  This checkout's ``connected_sum`` writes their
    grid files once into a temporary directory, and both trees read
    those files;
  * the two ``cable --compare`` commands of the unknot's (2, +-3) cables.

Command by command, it compares the exit code, standard error (with the
tree's path written as ``<tree>``), and the report's ``results``
(without wall times), ``generator_counts`` and ``grid_sizes``.  It
prints the first difference and exits 1, or exits 0 when every answer
is identical; it exits 2 when a tree cannot run the set.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CASES = ["corrupt_bad_index", "corrupt_wrong_sum", "hopf_plumbing_figure_eight",
         "hopf_plumbing_trefoil", "left_right_connected_sum",
         "trefoil_connected_sum"]

SUMS = [("trefoil5", "unknot3"), ("hopf_plus4", "hopf_minus4"),
        ("trefoil5", "hopf_plus4"), ("trefoil_left5", "hopf_minus4"),
        ("trefoil5", "trefoil_left5"), ("figure_eight6", "unknot3"),
        ("hopf_plus4", "hopf_plus4"), ("trefoil5", "trefoil5"),
        ("trefoil5", "trefoil6"), ("knot_5_2_7", "trefoil5"),
        ("figure_eight6", "trefoil5")]

COMPUTE_SUMS = [("trefoil5", "trefoil5"), ("knot_5_2_7", "trefoil5")]

CABLES = [("3", "trefoil5"), ("-3", "trefoil_left5")]

MAX_COMPUTE_N = 7

COMPARED = ("code", "stderr", "results", "generator_counts", "grid_sizes")


def command_set(corpus_sizes, sum_paths):
    """The argument lists, given {corpus grid name: n} and the grid files
    of COMPUTE_SUMS."""
    commands = [["murasugi", f"corpus:{case}"] for case in CASES]
    commands += [["murasugi", "--connect", a, b] for a, b in SUMS]
    for name, n in sorted(corpus_sizes.items()):
        if n <= MAX_COMPUTE_N:
            commands += [["compute", name], ["compute", "--hat", name],
                         ["compute", "--window", "bottom", name]]
    for path in sum_paths:
        commands += [["compute", path], ["compute", "--hat", path]]
    commands += [["cable", "unknot3", "--p", "2", "--q", q, "--compare", knot]
                 for q, knot in CABLES]
    return commands


def _without_wall_times(value):
    if isinstance(value, dict):
        return {k: _without_wall_times(v) for k, v in value.items()
                if k != "wall_time"}
    if isinstance(value, list):
        return [_without_wall_times(v) for v in value]
    return value


def write_sums(directory):
    """Write the grids of COMPUTE_SUMS, spliced by this checkout's
    ``connected_sum`` from its corpus, into ``directory``; their paths."""
    sys.path.insert(0, str(ROOT / "src"))
    from gridhfk.grids import connected_sum, format_grid, load_grid

    corpus = ROOT / "src" / "gridhfk" / "corpus"
    paths = []
    for a, b in COMPUTE_SUMS:
        grid = connected_sum(load_grid(corpus / f"{a}.grid"),
                             load_grid(corpus / f"{b}.grid"))
        path = Path(directory) / f"{a}#{b}.grid"
        path.write_text(format_grid(grid), encoding="utf-8")
        paths.append(str(path))
    return paths


def emit(tree, sum_paths):
    """Run the command set with ``tree``'s package; print the answers."""
    sys.path.insert(0, str(tree / "src"))
    from gridhfk import cli
    from gridhfk.grids import list_corpus, load_corpus

    sizes = {name: load_corpus(name).n for name in list_corpus()}
    answers = []
    for argv in command_set(sizes, sum_paths):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["--json", *argv], out, err)
        report = json.loads(out.getvalue()) if out.getvalue() else {}
        answers.append({
            "argv": argv,
            "code": code,
            "stderr": err.getvalue().replace(str(tree), "<tree>"),
            "results": _without_wall_times(report.get("results")),
            "generator_counts": report.get("generator_counts"),
            "grid_sizes": report.get("grid_sizes"),
        })
    json.dump(answers, sys.stdout)


def _start(tree, sum_paths):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HFK_CORPUS")}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--emit", str(tree), *sum_paths],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def first_difference(mine, theirs):
    """A line naming the first differing answer, or None."""
    if [a["argv"] for a in mine] != [a["argv"] for a in theirs]:
        return "the two trees ran different command sets"
    for a, b in zip(mine, theirs):
        for field in COMPARED:
            if a[field] != b[field]:
                return (f"{' '.join(a['argv'])}: {field} differs\n"
                        f"  this tree:  {json.dumps(a[field])[:2000]}\n"
                        f"  other tree: {json.dumps(b[field])[:2000]}")
    return None


def main(argv):
    if len(argv) >= 2 and argv[0] == "--emit":
        emit(Path(argv[1]), argv[2:])
        return 0
    if len(argv) != 1:
        print("usage: compare_answers.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "gridhfk").is_dir():
        print(f"{other} has no src/gridhfk", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        sum_paths = write_sums(directory)
        runs = [_start(ROOT, sum_paths), _start(other, sum_paths)]
        done = [run.communicate() for run in runs]
    for tree, run, (_, err) in zip((ROOT, other), runs, done):
        if run.returncode != 0:
            print(f"the command set failed in {tree}:\n{err}", file=sys.stderr)
            return 2
    mine, theirs = (json.loads(out) for out, _ in done)
    difference = first_difference(mine, theirs)
    if difference:
        print(difference)
        return 1
    print(f"{len(mine)} commands, 0 differences")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

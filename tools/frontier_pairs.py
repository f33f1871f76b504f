#!/usr/bin/env python3
"""Time frontier runs of this checkout against another one, in pairs.

    python3 tools/frontier_pairs.py OTHER_CHECKOUT

Each of three pairs runs four jobs, each once with this checkout's
package and once with OTHER_CHECKOUT's, in that order, every run in a
fresh subprocess that imports ``gridhfk`` from its tree's ``src/`` and
caps its own address space at 4 GB (``RLIMIT_AS``):

  * ``bottom_group`` of ``tests/data/splice20.grid`` (this checkout's
    file, read by both trees);
  * ``top_group`` of the same grid;
  * ``level_enumeration``: ``generators_in_level`` of the mirror of the
    same grid at alex2 -52, the first level of that side with homology
    (268 339 rows), answered by the row count and the sha256 of the
    rows, so the enumeration's own cost is timed apart from the scan;
  * ``murasugi --connect corpus:figure_eight6 corpus:trefoil5`` through
    ``gridhfk.cli.run``, the dense τ call, compared by exit code,
    standard error and the report's ``results`` without wall times.

It prints the wall time of the job itself and the child's
``ru_maxrss`` for every run, then the range of each per job and tree.
It exits 1 when two runs of one job give different answers, 2 when a
run fails, and 0 otherwise.  The jobs are larger than the timed
benchmark's workloads hold, so their figures are read from here.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from compare_answers import _comparable

ROOT = Path(__file__).resolve().parents[1]
GRID = ROOT / "tests" / "data" / "splice20.grid"
JOBS = ("bottom_group", "top_group", "level_enumeration", "murasugi")
LEVEL = -52
MURASUGI = ["--json", "murasugi", "--connect", "corpus:figure_eight6",
            "corpus:trefoil5"]
ADDRESS_SPACE = 4 << 30
PAIRS = 3


def emit(tree, job):
    """Run one job with ``tree``'s package; print its answer and cost."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    sys.path.insert(0, str(tree / "src"))
    from gridhfk import cli, invariants
    from gridhfk.generators import generators_in_level
    from gridhfk.gradings import GradingCalculator
    from gridhfk.grids import load_grid, mirror

    start = time.perf_counter()
    if job == "murasugi":
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(MURASUGI, out, err)
        report = json.loads(out.getvalue()) if out.getvalue() else {}
        marks = {str(tree): "<tree>"}
        answer = [code, _comparable(err.getvalue(), marks),
                  _comparable(report.get("results"), marks)]
    elif job == "level_enumeration":
        calc = GradingCalculator(mirror(load_grid(GRID)))
        rows = generators_in_level(calc, LEVEL)
        answer = [len(rows), hashlib.sha256(rows.tobytes()).hexdigest()]
    else:
        group = getattr(invariants, job)(load_grid(GRID))
        answer = [group.alex2, sorted(group.poincare.coeffs.items())]
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({"answer": answer, "wall_s": wall, "rss_mb": rss}, sys.stdout)


def _run(tree, job):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HFK_CORPUS")}
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--emit", str(tree), job],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{job} failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv):
    if len(argv) == 3 and argv[0] == "--emit":
        emit(Path(argv[1]), argv[2])
        return 0
    if len(argv) != 1:
        print("usage: frontier_pairs.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "gridhfk").is_dir():
        print(f"{other} has no src/gridhfk", file=sys.stderr)
        return 2
    trees = {"this": ROOT, "other": other}
    runs = {(job, name): [] for job in JOBS for name in trees}
    for pair in range(1, PAIRS + 1):
        for job in JOBS:
            for name, tree in trees.items():
                try:
                    run = _run(tree, job)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                runs[job, name].append(run)
                print(f"pair {pair}  {job:<17} {name:<5}  "
                      f"{run['wall_s']:7.3f} s  {run['rss_mb']:6.1f} MB",
                      flush=True)
    differ = False
    for job in JOBS:
        answers = {json.dumps(run["answer"]) for name in trees
                   for run in runs[job, name]}
        if len(answers) > 1:
            differ = True
            print(f"{job}: the answers differ: {sorted(answers)}")
        for name in trees:
            walls = [run["wall_s"] for run in runs[job, name]]
            rss = [run["rss_mb"] for run in runs[job, name]]
            print(f"{job:<17} {name:<5}  {min(walls):.3f}-{max(walls):.3f} s  "
                  f"{min(rss):.1f}-{max(rss):.1f} MB")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

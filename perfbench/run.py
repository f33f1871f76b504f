#!/usr/bin/env python3
"""Benchmark of the gridhfk command line, end to end and layer by layer.

    python3 perfbench/run.py --workload hat_table --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  The workload's
commands run in this process through ``gridhfk.cli.run`` with the CLI's
default ``--threads``, in whole rounds, for about ``--seconds`` seconds
(at least one round).  Every answer is checked against tests/oracle.py
and published invariants outside the timed region; a wrong answer or an
exception escaping ``cli.run`` counts its command as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones: the run then alternates untraced and traced rounds
and writes its spans to perfbench/out/.

Exits with code 2 and no result when the checkout lacks the package
sources or the oracle.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7


def usage_s():
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def connected_sum(a, b):
    import checks
    from gridhfk.grids import connected_sum as glue, make_grid

    g = glue(make_grid(*checks.corpus_grid(a)), make_grid(*checks.corpus_grid(b)))
    return g.x_cols, g.o_cols


def setup(name, seed, out_dir):
    """Interpreter start plus ``import gridhfk``, timed in a child
    process, then building the workload's inputs here.  Returns the
    median time of SETUP_SAMPLES set-ups and the workload."""
    import workloads

    probe = [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import gridhfk.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(probe, check=True, stdout=subprocess.DEVNULL)
        workload = workloads.build(name, seed, out_dir, connected_sum)
        times.append(time.perf_counter() - start)
    return statistics.median(times), workload


def run_op(cli, op, tracer):
    """Run one command; returns (wall s, cpu s, outcome)."""
    if op.before:
        op.before()
    out, err = io.StringIO(), io.StringIO()
    argv = ["--json", *op.argv]
    cpu0 = usage_s()
    start = time.perf_counter()
    try:
        if tracer:
            code = tracer.span("cli.run", cli.run, argv, out=out, err=err)
        else:
            code = cli.run(argv, out=out, err=err)
        crash = None
    except (Exception, SystemExit) as exc:
        code, crash = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = usage_s() - cpu0
    return wall, cpu, (code, out.getvalue(), err.getvalue(), crash)


def judge(op, outcome):
    """(crashed, problems) for one finished command."""
    code, text, err, crash = outcome
    if crash:
        return True, [f"exception escaped cli.run: {crash}"]
    try:
        report = json.loads(text) if text.strip() else None
        return False, op.check(code, report, err)
    except (ValueError, KeyError, TypeError) as exc:
        return False, [f"unreadable report: {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def add(self, op, outcome):
        crashed, problems = judge(op, outcome)
        self.attempted += 1
        if crashed or problems:
            self.failed += 1
            self.wrong += not crashed
            self.problems.append((op.label, problems))


def measure(cli, workload, order_rng, tally, seconds=None, rounds=None,
            tracer=None):
    """Run whole rounds; stop after ``rounds`` rounds, or before the next
    round would end past ``seconds``.  Returns one (wall s, cpu s) per
    round (checks are not timed) and the peak resident set in MB at the
    end of the first round."""
    results = []
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for op in workload.round_order(order_rng):
            dw, dc, outcome = run_op(cli, op, tracer)
            wall += dw
            cpu += dc
            tally.add(op, outcome)
        results.append((wall, cpu))
        if len(results) == 1:
            # Later rounds can add memory the first one left resident,
            # and how many rounds fit depends on the host's speed.
            peak = peak_rss_mb()
        if rounds is not None:
            if len(results) >= rounds:
                return results, peak
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results, peak


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "gridhfk" / "__init__.py",
                           ROOT / "tests" / "oracle.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a gridhfk checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer, names = declared_metrics()
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup_s, workload = setup(args.workload, args.seed, out_dir)
        import gridhfk
        import gridhfk.cli as cli
        import spans

        order_rng = random.Random(f"order:{args.workload}:{args.seed}")
        tally = Tally()
        walls = ""
        if args.trace:
            # Untraced and traced rounds alternate, so drift in the host's
            # speed falls on both halves alike.
            tracer = spans.Tracer()
            plain, traced = [], []
            start = time.perf_counter()
            while not plain or ((time.perf_counter() - start)
                                * (1 + 1 / len(plain)) <= args.seconds):
                plain += measure(cli, workload, order_rng, tally, rounds=1)[0]
                tracer.install(gridhfk)
                try:
                    traced += measure(cli, workload, order_rng, tally,
                                      rounds=1, tracer=tracer)[0]
                finally:
                    tracer.remove()
            tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
            values = spans.layer_metrics(tracer.spans, len(traced))
            values["trace.overhead_s"] = (
                statistics.median(w for w, _ in traced)
                - statistics.median(w for w, _ in plain))
            units = per_layer
        else:
            rounds, peak = measure(cli, workload, order_rng, tally,
                                   seconds=args.seconds)
            values = {"setup_s": setup_s,
                      "solve_s": statistics.median(w for w, _ in rounds),
                      "cpu_s": statistics.median(c for _, c in rounds),
                      "peak_rss_mb": peak}
            units = end_to_end
            walls = " ".join(f"{w:.3f}" for w, _ in rounds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         f"differ from BENCHMARK.json")
    for label, problems in tally.problems[:10]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={os.cpu_count() or 1} ops/round={len(workload.ops)} "
          f"round_walls_s=[{walls}]")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's answer checks.

    python3 -m pytest -q perfbench/test_checks.py

Each test runs a real command through the same path the benchmark
uses, confirms its true answer passes, then corrupts one detail of the
outcome and confirms the command is counted as failed.
"""

import json
import sys
from functools import partial

import checks
import run
from workloads import Op

sys.path.insert(0, str(run.SRC))

import gridhfk.cli as cli  # noqa: E402


def outcome_of(op):
    _, _, outcome = run.run_op(cli, op, None)
    return outcome


def tally_of(op, outcome):
    tally = run.Tally()
    tally.add(op, outcome)
    return tally


def edited(outcome, edit):
    code, text, err, crash = outcome
    report = json.loads(text)
    edit(report)
    return code, json.dumps(report), err, crash


def test_hat_table_with_one_rank_changed_fails(tmp_path):
    grid = run.connected_sum("trefoil5", "unknot2")
    path = tmp_path / "sum.grid"
    path.write_text(checks.format_grid_text(checks.torus_translate(grid, 2, 3)))
    op = Op("hat", ["compute", "--hat", str(path)],
            partial(checks.check_hat_table, ("trefoil5", "unknot2")))
    outcome = outcome_of(op)
    assert tally_of(op, outcome).failed == 0

    def bump(report):
        report["results"]["ranks"][0][2] += 1
    tally = tally_of(op, edited(outcome, bump))
    assert (tally.failed, tally.wrong) == (1, 1)


def test_flipped_tau_flag_fails():
    op = Op("connect", ["murasugi", "--connect", "trefoil5", "hopf_plus4"],
            partial(checks.check_murasugi_sum, ("trefoil5", "hopf_plus4")))
    outcome = outcome_of(op)
    assert tally_of(op, outcome).failed == 0
    for key in ("summand1_tau_top_is_g", "sum_tau_top_is_g"):
        def flip(report, key=key):
            details = report["results"]["theorem2"]["details"]
            details[key] = not details[key]
        assert tally_of(op, edited(outcome, flip)).failed == 1


def test_wrong_exit_code_on_corrupt_case_fails():
    for case, wrong_code in (("corrupt_bad_index", 1),
                             ("corrupt_wrong_sum", 0)):
        path = checks.CORPUS / "cases" / f"{case}.json"
        expect = json.loads(path.read_text())["expect"]
        op = Op(case, ["murasugi", str(path)], partial(checks.check_case, expect))
        code, text, err, crash = outcome_of(op)
        assert tally_of(op, (code, text, err, crash)).failed == 0
        assert tally_of(op, (wrong_code, text, err, crash)).failed == 1


def test_exception_escaping_cli_counts_as_failed():
    class Broken:
        @staticmethod
        def run(argv, out, err):
            raise TypeError("string indices must be integers")

    op = Op("broken", ["murasugi", "x.json"],
            partial(checks.check_case, {"error": "GridInputError"}))
    _, _, outcome = run.run_op(Broken, op, None)
    tally = tally_of(op, outcome)
    assert (tally.failed, tally.wrong) == (1, 0)

"""End-to-end command-line tests: every exit code, the JSON run report,
and a full ledger session in a scratch directory."""

import hashlib
import io
import json
from collections import Counter
from itertools import permutations

import pytest

from gridhfk.cli import DEFAULT_LEDGER, RunReport, run
from gridhfk.grids import corpus_path, load_corpus

from oracle import oracle_alex2, oracle_bottom_group, oracle_components


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# compute


def test_compute_full_unknot():
    code, out, err = invoke("compute", "corpus:unknot2")
    assert code == 0 and not err
    assert "maslov2" in out and "alex2" in out
    assert "total rank 2" in out


def test_compute_hat_accepts_bare_corpus_name():
    code, out, _ = invoke("compute", "trefoil5", "--hat")
    assert code == 0
    rows = [ln.split() for ln in out.strip().splitlines()[1:]]
    assert [[int(v) for v in r] for r in rows] == [
        [-4, -2, 1], [-2, 0, 1], [0, 2, 1]]


def test_compute_bottom_window():
    code, out, _ = invoke("compute", "corpus:trefoil5", "--window", "bottom")
    assert code == 0
    assert "bottom group at alex2 = -2" in out
    assert "doubled genus 2" in out
    assert "rank 1" in out


def test_compute_bottom_window_counts_are_the_oracle_level_sizes():
    # Every non-empty tilde level up to the one that carries the bottom
    # group, which is where the scan stops.
    for name in ("trefoil5", "figure_eight6", "knot_5_2_7", "torus_2_5_7"):
        code, out, _ = invoke("--json", "compute", "--window", "bottom",
                              f"corpus:{name}")
        assert code == 0
        g = load_corpus(name)
        x, o = g.x_cols, g.o_cols
        last = (oracle_bottom_group(x, o)[0]
                - 2 * (g.n - oracle_components(x, o)))
        sizes = Counter(oracle_alex2(x, o, p) for p in permutations(range(g.n)))
        want = {str(a2): m for a2, m in sorted(sizes.items()) if a2 <= last}
        assert json.loads(out)["generator_counts"] == want, name


def test_compute_missing_file_is_exit_2():
    code, out, err = invoke("compute", "no_such.grid")
    assert code == 2
    assert "FileNotFound" in err


def test_compute_malformed_grid_is_exit_2(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text("3\nX: 0 1 2\nO: 0 1 2\n")  # X and O collide everywhere
    code, _, err = invoke("compute", str(bad))
    assert code == 2
    assert "MarkingCollision" in err


def test_compute_resource_bound_is_exit_3():
    code, _, err = invoke("compute", "corpus:trefoil5",
                          "--max-generators", "3")
    assert code == 3
    assert "generator" in err.lower()
    # the flag works in the pre-subcommand position too
    code2, _, err2 = invoke("--max-generators", "3", "compute",
                            "corpus:trefoil5")
    assert code2 == 3 and err2 == err


def test_compute_json_report_round_trips(tmp_path):
    code, out, _ = invoke("--json", "compute", "corpus:trefoil5", "--hat")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["results"]["window"] == "hat"
    assert data["results"]["total_rank"] == 3
    # report digests the exact input file
    want = hashlib.sha256(
        open(corpus_path("trefoil5"), "rb").read()).hexdigest()
    assert data["inputs"]["grid"]["sha256"] == want
    # the dataclass reconstructs the identical report
    report = RunReport.from_json(data)
    assert report.to_json() == data
    assert report.generator_counts == {
        -10: 1, -8: 5, -6: 31, -4: 46, -2: 31, 0: 5, 2: 1}
    assert sum(report.generator_counts.values()) == 120  # all of S_5


def test_compute_threads_do_not_change_the_report():
    reports = []
    for threads in ("1", "4"):
        code, out, _ = invoke("--json", "--threads", threads,
                              "compute", "corpus:figure_eight6")
        assert code == 0
        data = json.loads(out)
        reports.append((data["results"], data["generator_counts"]))
    assert reports[0] == reports[1]


# --------------------------------------------------------------------------
# murasugi


def test_murasugi_passing_case():
    code, out, _ = invoke("murasugi", "corpus:hopf_plumbing_trefoil")
    assert code == 0
    assert out.count("pass") == 2


def test_murasugi_failing_case_is_exit_1():
    code, out, _ = invoke("murasugi", "corpus:corrupt_wrong_sum")
    assert code == 1
    assert "FAIL" in out


def test_murasugi_bad_index_is_exit_2():
    code, _, err = invoke("murasugi", "corpus:corrupt_bad_index")
    assert code == 2
    assert "IndexMismatch" in err


def test_murasugi_connect():
    code, out, _ = invoke("murasugi", "--connect", "corpus:trefoil5",
                          "corpus:trefoil_left5")
    assert code == 0
    assert out.count("pass") == 2


def test_murasugi_resource_bound_is_exit_3():
    # τ stops at the first Maslov slice that survives, but that slice and
    # the one above it still hold 126 + 1 645 of the 10! states of the
    # sum, far past the budget.
    code, out, err = invoke("--max-generators", "100", "murasugi",
                            "--connect", "corpus:trefoil5", "corpus:trefoil6")
    assert code == 3 and not out
    assert len(err.strip().splitlines()) == 1
    assert "GridResourceError" in err


def test_murasugi_tau_lists_only_the_slices_it_visits():
    # τ of the n = 10 sum stops at its lowest needed Maslov slice, which
    # contributes: that slice and the one above it hold 126 + 1 645
    # states, and the slices above them (10 251 more) are never listed.
    code, out, err = invoke("--max-generators", "2000", "murasugi",
                            "--connect", "corpus:trefoil5", "corpus:trefoil6")
    assert code == 0 and not err
    assert out.count("pass") == 2


def test_murasugi_tau_stays_within_a_budget_below_n_factorial():
    # The n = 11 sum has 11! > 10^6 states; τ enumerates only its slices.
    code, out, err = invoke("--max-generators", "1000000", "murasugi",
                            "--connect", "corpus:torus_2_5_7",
                            "corpus:trefoil5")
    assert code == 0 and not err
    assert out.count("pass") == 2


def test_murasugi_without_input_is_exit_2():
    code, _, err = invoke("murasugi")
    assert code == 2
    assert "case file or --connect" in err


def test_murasugi_top_level_list_case_is_exit_2(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    code, _, err = invoke("murasugi", str(bad))
    assert code == 2
    assert "GridInputError" in err and "JSON object" in err


def test_murasugi_null_index2_case_is_exit_2(tmp_path):
    bad = tmp_path / "null_index.json"
    bad.write_text(json.dumps({
        "name": "x", "polygon_sides": 2,
        "summand1": {"index2": None, "grid": "corpus:unknot2.grid"},
        "summand2": {"grid": "corpus:unknot2.grid", "index2": 0},
        "sum": {"construct": "connected_sum", "index2": 0},
    }))
    code, _, err = invoke("murasugi", str(bad))
    assert code == 2
    assert "GridInputError" in err and "index2" in err


def test_memory_error_is_exit_3(monkeypatch):
    import gridhfk.homology

    def no_memory(*args, **kwargs):
        raise MemoryError()

    # Both commands build level complexes, and each level's boundary.
    monkeypatch.setattr(gridhfk.homology, "boundary_entries", no_memory)
    for argv in (["compute", "corpus:trefoil5"],
                 ["murasugi", "corpus:hopf_plumbing_trefoil"]):
        code, _, err = invoke(*argv)
        assert code == 3
        assert err.startswith("MemoryError") and err.count("\n") == 1


def test_verification_errors_are_exit_1(monkeypatch):
    import gridhfk.invariants
    from gridhfk.errors import NotDivisible

    def not_divisible(*args, **kwargs):
        raise NotDivisible("bigraded ranks are not divisible by (1 + mt)")

    monkeypatch.setattr(gridhfk.invariants, "deflate_to_hat", not_divisible)
    code, out, err = invoke("compute", "--hat", "corpus:trefoil5")
    assert code == 1 and not out
    assert err.startswith("NotDivisible") and err.count("\n") == 1


def test_murasugi_json_report():
    code, out, _ = invoke("--json", "murasugi", "corpus:trefoil_connected_sum")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["theorem1"]["passed"] is True
    assert data["results"]["theorem2"]["passed"] is True
    assert data["results"]["expected"] == {"theorem1": True, "theorem2": True}


# --------------------------------------------------------------------------
# ledger


@pytest.fixture()
def ledger_file(tmp_path):
    return str(tmp_path / DEFAULT_LEDGER)


def seeded(ledger_file):
    code, _, err = invoke("ledger", "--file", ledger_file, "seed")
    assert code == 0, err
    return ledger_file


def test_ledger_seed_show_and_idempotence(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "show")
    assert code == 0
    names = [ln.split()[0] for ln in out.strip().splitlines()]
    assert len(names) == 10 and "KT" in names and "5_2" in names
    # reseeding adds nothing and does not fail
    code, out, _ = invoke("--json", "ledger", "--file", ledger_file, "seed")
    assert code == 0
    assert json.loads(out)["results"]["added"] == []


def test_ledger_p_images(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "p",
                          "trefoil", "-trefoil")
    assert code == 0 and out.strip() == "1"
    code, out, _ = invoke("ledger", "--file", ledger_file, "p",
                          "5_2", "-trefoil")
    assert code == 0 and out.strip() == "2"
    code, out, _ = invoke("--json", "ledger", "--file", ledger_file, "p",
                          "hopf_plus", "hopf_plus", "-trefoil")
    assert json.loads(out)["results"]["is_identity"] is True


def test_ledger_independence_exit_codes(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "indep",
                          "5_2", "KT")
    assert code == 0 and "certified" in out
    code, out, _ = invoke("ledger", "--file", ledger_file, "indep",
                          "KT", "conway")
    assert code == 1 and "not certified" in out


def test_ledger_cor6(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "cor6", "KT")
    assert code == 0 and "obstructed" in out
    code, out, _ = invoke("ledger", "--file", ledger_file, "cor6", "trefoil")
    assert code == 0 and "no obstruction" in out


def test_ledger_b1check(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "b1check",
                          "hopf_plus", "hopf_plus", "trefoil")
    assert code == 0 and "==" in out
    code, out, _ = invoke("ledger", "--file", ledger_file, "b1check",
                          "trefoil", "trefoil", "trefoil")
    assert code == 1 and "!=" in out


def test_ledger_add_from_grid_and_literature(ledger_file):
    seeded(ledger_file)
    code, out, _ = invoke("ledger", "--file", ledger_file, "add",
                          "fig8_again", "--grid", "corpus:figure_eight6")
    assert code == 0 and "b1 = 2" in out
    code, out, _ = invoke("ledger", "--file", ledger_file, "p",
                          "fig8_again", "-figure_eight")
    assert code == 0 and out.strip() == "1"
    code, out, _ = invoke("ledger", "--file", ledger_file, "add", "pretzel",
                          "--poincare", '{"0": 1, "2": 1}', "--b1", "4")
    assert code == 0 and "[literature]" in out


def test_ledger_add_from_grid_respects_the_budget(ledger_file):
    code, _, err = invoke("--max-generators", "0", "ledger", "--file",
                          ledger_file, "add", "tre", "--grid",
                          "corpus:trefoil5")
    assert code == 3
    assert len(err.strip().splitlines()) == 1


def test_ledger_error_paths(ledger_file):
    seeded(ledger_file)
    # duplicate name
    code, _, err = invoke("ledger", "--file", ledger_file, "add",
                          "trefoil", "--grid", "corpus:trefoil5")
    assert code == 2 and "append-only" in err
    # unknown entry
    code, _, err = invoke("ledger", "--file", ledger_file, "p", "nessie")
    assert code == 2 and "no ledger entry" in err
    # add without data
    code, _, err = invoke("ledger", "--file", ledger_file, "add", "empty")
    assert code == 2 and "--grid" in err


# --------------------------------------------------------------------------
# cable


def test_cable_prediction_matches_torus_knots():
    code, out, _ = invoke("cable", "corpus:unknot2", "--p", "2", "--q", "3",
                          "--compare", "corpus:trefoil5")
    assert code == 0 and "match" in out
    code, out, _ = invoke("cable", "corpus:unknot2", "--p", "2", "--q", "-3",
                          "--compare", "corpus:trefoil_left5")
    assert code == 0 and "match" in out


def test_cable_mismatch_is_exit_1():
    code, out, _ = invoke("cable", "corpus:unknot2", "--p", "2", "--q", "3",
                          "--compare", "corpus:trefoil_left5")
    assert code == 1 and "MISMATCH" in out


def test_cable_rejects_q_zero_and_links():
    code, _, err = invoke("cable", "corpus:unknot2", "--p", "2", "--q", "0")
    assert code == 2 and "UnsupportedQ" in err
    code, _, err = invoke("cable", "corpus:hopf_plus4", "--p", "2", "--q", "3")
    assert code == 2 and "knot" in err


def test_cable_json_report():
    code, out, _ = invoke("--json", "cable", "corpus:trefoil5",
                          "--p", "3", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["predicted_alex2"] == 8
    assert results["companion_genus2"] == 2
    assert "right-handed" in results["convention"]


# --------------------------------------------------------------------------
# report dataclass


def test_run_report_dataclass_round_trip():
    report = RunReport(command=["compute", "x.grid"],
                       inputs={"grid": {"path": "x.grid", "sha256": "00"}},
                       results={"total_rank": 3},
                       generator_counts={-2: 5, 0: 7},
                       wall_time=0.25)
    assert RunReport.from_json(report.to_json()) == report


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

"""End-to-end command-line tests: every exit code, the JSON run report,
and a full ledger session in a scratch directory."""

import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from gridhfk.cli import DEFAULT_LEDGER, run
from gridhfk.grids import (
    connected_sum,
    corpus_case_path,
    corpus_path,
    load_corpus,
    mirror,
    simplify,
)
from gridhfk.invariants import scan_bottom

from oracle import (
    oracle_alex2,
    oracle_bottom_group,
    oracle_components,
    oracle_tilde_ranks,
)


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


@pytest.mark.parametrize("argv", [
    ["compute", "{missing}/trefoil5", "--hat"],
    ["murasugi", "{missing}/trefoil_connected_sum.json"],
    ["murasugi", "--connect", "{missing}/trefoil5", "corpus:trefoil5"],
    ["cable", "{missing}/unknot3", "--p", "2", "--q", "3"],
], ids=["compute", "murasugi", "connect", "cable"])
def test_missing_path_never_falls_back_to_the_corpus(tmp_path, argv):
    # Only a bare name, with no directory part, is looked up in the corpus.
    missing = tmp_path / "nowhere"
    code, out, err = invoke(*(a.format(missing=missing) for a in argv))
    assert code == 2 and not out
    assert err.startswith("FileNotFound") and err.count("\n") == 1


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


def test_negative_budget_is_an_input_error():
    # A budget of 0 is legal (it fails on the first level, exit 3); a
    # negative one is refused before any command runs.
    code, _, err = invoke("compute", "corpus:trefoil5", "--max-generators", "-1")
    assert code == 2
    assert err == "GridInputError: --max-generators -1 is negative\n"
    code, _, _ = invoke("compute", "corpus:trefoil5", "--max-generators", "0")
    assert code == 3


def test_undecodable_grid_file_is_named(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_bytes(b"3\nX: 0 1 2\nO: 1 2 \xff\n")
    code, _, err = invoke("compute", str(bad))
    assert code == 2
    assert err == f"GridInputError: {bad}: not UTF-8 text (byte 0xff at offset 18)\n"


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
    assert data["generator_counts"] == {
        "-10": 1, "-8": 5, "-6": 31, "-4": 46, "-2": 31, "0": 5, "2": 1}
    assert sum(data["generator_counts"].values()) == 120  # all of S_5


def test_compute_reports_the_tilde_table_of_the_grid_as_given():
    # trefoil6 is computed on a 5-grid; the full window still reports
    # the tilde table of the 6-grid, and grid_sizes says both sizes.
    code, out, _ = invoke("--json", "compute", "corpus:trefoil6")
    assert code == 0
    data = json.loads(out)
    assert data["grid_sizes"] == {"grid": [6, 5]}
    g = load_corpus("trefoil6")
    want = oracle_tilde_ranks(g.x_cols, g.o_cols)
    assert {(m2, a2): r for m2, a2, r in data["results"]["ranks"]} == want
    assert sum(data["generator_counts"].values()) == 120  # the 5-grid


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


# A 3-component link whose τ_top flag no certificate answers, so the
# murasugi commands that sum it compute that flag from Maslov slices.
UNCERTIFIED = str(Path(__file__).parent / "data" / "tau_uncertified7.grid")


def test_murasugi_resource_bound_is_exit_3():
    # The summand, simplified to a 6-grid, and the sum with unknot3, which
    # is the same link, have a τ_top that no certificate answers, so it is
    # computed.  Its only needed Maslov slice and the one above it hold
    # 39 + 117 states, so listing them passes the budget of 155; 156 would
    # do, and the scanned levels are smaller.
    code, out, err = invoke("--max-generators", "155", "murasugi",
                            "--connect", UNCERTIFIED, "corpus:unknot3")
    assert code == 3 and not out
    assert len(err.strip().splitlines()) == 1
    assert "GridResourceError" in err
    assert invoke("--max-generators", "156", "murasugi", "--connect",
                  UNCERTIFIED, "corpus:unknot3")[0] == 0


def test_murasugi_tau_lists_only_the_slices_it_visits():
    # The sum is a link, simplified from n = 8 to 7.  The certificates
    # answer its τ_top, so the command lists no slice.  Computed, its τ
    # stops at its lowest needed Maslov slice, which contributes: that
    # slice and the one above it hold 15 + 126 states.  The next needed
    # slice and the one above it hold 126 + 453, and the full 7-grid
    # 5 040, so a τ that went past its first slice, or listed its slices
    # together, would pass the budget of 300.
    code, out, err = invoke("--max-generators", "300", "murasugi",
                            "--connect", "corpus:trefoil5",
                            "corpus:hopf_plus4")
    assert code == 0 and not err
    assert out.count("pass") == 2
    total = simplify(connected_sum(load_corpus("trefoil5"),
                                   load_corpus("hopf_plus4")))
    assert total.n == 7
    assert scan_bottom(mirror(total), 300).tau_computed(300)


def test_murasugi_tau_stays_within_a_budget_below_n_factorial():
    # The sum, simplified from n = 11 to 10, has 10! > 10^6 states; the
    # scans list their bottom levels only, and the Legendrian fronts
    # answer all three τ flags.
    code, out, err = invoke("--max-generators", "1000000", "murasugi",
                            "--connect", "corpus:torus_2_5_7",
                            "corpus:trefoil5")
    assert code == 0 and not err
    assert out.count("pass") == 2


# Runs the 13-grid sum knot_5_2_7 # knot_5_2_7 in a child process that
# caps its own address space at 3 GB, so a τ that lists its slices again
# stops at the generator budget or the cap (exit 3) instead of swapping.
REACH_13 = """
import io, json, resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from gridhfk.cli import run
out, err = io.StringIO(), io.StringIO()
code = run(["--json", "murasugi", "--connect", "corpus:knot_5_2_7",
            "corpus:knot_5_2_7"], out=out, err=err)
print(json.dumps([code, err.getvalue(), out.getvalue()]))
"""


def test_murasugi_connect_knot_5_2_7_twice_on_a_13_grid_under_3_gb():
    # The sum is simplified from n = 13 only to 13.  Its τ_top computed
    # from slices stops at the 3 * 10^6 generator budget; the Legendrian
    # fronts answer all three τ flags instead.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HFK_CORPUS", None)
    done = subprocess.run([sys.executable, "-c", REACH_13], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, err, out = json.loads(done.stdout)
    assert code == 0 and not err
    data = json.loads(out)
    assert data["grid_sizes"]["sum"] == [13, 13]
    theorem2 = data["results"]["theorem2"]
    assert theorem2["details"] == {"summand1_tau_top_is_g": True,
                                   "summand2_tau_top_is_g": True,
                                   "sum_tau_top_is_g": True}
    assert theorem2["passed"] and data["results"]["theorem1"]["passed"]


def test_murasugi_connect_knot_5_2_7_trefoil5_on_a_10_grid():
    # The spliced 11-grid ran out of memory in τ; simplified to n = 10
    # the command finishes.
    code, out, err = invoke("--json", "murasugi", "--connect",
                            "corpus:knot_5_2_7", "corpus:trefoil5")
    assert code == 0 and not err
    data = json.loads(out)
    assert data["grid_sizes"] == {"summand1": [7, 7], "summand2": [5, 5],
                                  "sum": [11, 10]}
    theorem2 = data["results"]["theorem2"]
    assert theorem2["passed"] is True
    flags = theorem2["details"]
    assert flags["sum_tau_top_is_g"] == (flags["summand1_tau_top_is_g"]
                                         and flags["summand2_tau_top_is_g"])


def test_murasugi_case_sides_are_simplified():
    code, out, _ = invoke("--json", "murasugi", "corpus:trefoil_connected_sum")
    assert code == 0
    sizes = json.loads(out)["grid_sizes"]
    assert sorted(sizes) == ["sum", "summand1", "summand2"]
    assert all(work <= given for given, work in sizes.values())
    assert sizes["sum"][1] < sizes["sum"][0]


def test_murasugi_without_input_is_exit_2():
    code, _, err = invoke("murasugi")
    assert code == 2
    assert "case file or --connect" in err


def test_truncated_case_file_is_named(tmp_path):
    bad = tmp_path / "cut.json"
    bad.write_text('{"name": ')
    code, _, err = invoke("murasugi", str(bad))
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"GridInputError: {bad}: ")
    assert "line 1 column 10" in err


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


@pytest.mark.parametrize("key, value", [
    ("expect", [1]),
    ("expect", {"theorem1": 1}),
    ("name", ["x"]),
], ids=["expect-list", "expect-int", "name-list"])
def test_murasugi_case_field_of_the_wrong_type_is_exit_2(tmp_path, key, value):
    bad = tmp_path / "wrong_type.json"
    case = {
        "name": "x", "polygon_sides": 2,
        "summand1": {"grid": "corpus:unknot2.grid", "index2": 0},
        "summand2": {"grid": "corpus:unknot2.grid", "index2": 0},
        "sum": {"construct": "connected_sum", "index2": 0},
        "expect": {"theorem1": True, "theorem2": True},
    }
    case[key] = value
    bad.write_text(json.dumps(case))
    code, out, err = invoke("--json", "murasugi", str(bad))
    assert code == 2 and not out
    assert "GridInputError" in err and f"'{key}'" in err
    assert err.count("\n") == 1


def test_murasugi_case_with_connect_is_exit_2():
    # The case alone exits 1; a case must not be dropped for --connect.
    code, out, err = invoke("murasugi", "corpus:corrupt_wrong_sum", "--connect",
                            "corpus:trefoil5", "corpus:unknot3")
    assert code == 2 and not out
    assert "GridInputError" in err and "not both" in err


def test_memory_error_is_exit_3(monkeypatch):
    import gridhfk.homology

    def no_memory(*args, **kwargs):
        raise MemoryError()

    # Both commands count rectangles: compute in the block pairs of its
    # tail (knot_5_2_7's tail has a differential), murasugi in the block
    # pair of its first scanned level, before its computed τ would.
    monkeypatch.setattr(gridhfk.homology, "boundary_entries", no_memory)
    for argv in (["compute", "corpus:knot_5_2_7"],
                 ["murasugi", "--connect", UNCERTIFIED, "corpus:unknot3"]):
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


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case, grids", [
    ("hopf_plumbing_trefoil", {"summand1": "hopf_plus4",
                               "summand2": "hopf_plus4", "sum": "trefoil5"}),
    ("trefoil_connected_sum", {"summand1": "trefoil5",
                               "summand2": "trefoil5"}),
])
def test_murasugi_case_report_names_the_grid_files_it_read(case, grids):
    """A constructed connected sum has no file and no entry."""
    code, out, _ = invoke("--json", "murasugi", f"corpus:{case}")
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert list(inputs) == ["case", *grids]
    assert inputs["case"]["sha256"] == _sha256(corpus_case_path(case))
    for label, name in grids.items():
        assert inputs[label] == {"path": corpus_path(name),
                                 "sha256": _sha256(corpus_path(name))}


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


def test_ledger_reseed_computes_nothing_and_leaves_the_file(ledger_file,
                                                           monkeypatch):
    import gridhfk.ledger

    computed = []
    original = gridhfk.ledger.entry_from_grid

    def counted(name, *args, **kwargs):
        computed.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(gridhfk.ledger, "entry_from_grid", counted)
    code, out, _ = invoke("--json", "ledger", "--file", ledger_file, "seed")
    assert code == 0 and len(json.loads(out)["results"]["added"]) == 10
    assert len(computed) == 8
    before = Path(ledger_file).read_bytes()
    computed.clear()
    code, out, _ = invoke("--json", "ledger", "--file", ledger_file, "seed")
    assert code == 0 and json.loads(out)["results"]["added"] == []
    assert computed == []
    assert Path(ledger_file).read_bytes() == before


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


def test_ledger_add_from_grid_reports_the_grid_it_read(ledger_file):
    code, out, _ = invoke("--json", "ledger", "--file", ledger_file, "add",
                          "f8", "--grid", "corpus:figure_eight6")
    assert code == 0
    data = json.loads(out)
    want = hashlib.sha256(
        open(corpus_path("figure_eight6"), "rb").read()).hexdigest()
    assert data["inputs"]["grid"]["sha256"] == want
    assert data["grid_sizes"] == {"grid": [6, 6]}


def test_ledger_add_from_grid_respects_the_budget(ledger_file):
    code, _, err = invoke("--max-generators", "0", "ledger", "--file",
                          ledger_file, "add", "tre", "--grid",
                          "corpus:trefoil5")
    assert code == 3
    assert len(err.strip().splitlines()) == 1


def test_truncated_ledger_file_is_named(ledger_file):
    with open(ledger_file, "w") as fh:
        fh.write('{"entries": ')
    code, _, err = invoke("ledger", "--file", ledger_file, "show")
    assert code == 2
    assert err == (f"GridInputError: {ledger_file}: not valid JSON at line 1 "
                   f"column 13 (Expecting value)\n")


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


def test_ledger_add_poincare_that_is_not_json_names_the_option(ledger_file):
    code, out, err = invoke("ledger", "--file", ledger_file, "add", "x",
                            "--poincare", "{", "--b1", "1")
    assert code == 2 and not out
    assert err == ("GridInputError: --poincare: not valid JSON at line 1 "
                   "column 2 (Expecting property name enclosed in double "
                   "quotes)\n")
    assert not os.path.exists(ledger_file)


@pytest.mark.parametrize("given", [["--poincare", '{"0": 1}', "--b1", "1"],
                                   ["--poincare", '{"0": 1}'],
                                   ["--b1", "1"]],
                         ids=["both", "poincare", "b1"])
def test_ledger_add_refuses_grid_with_literature_values(ledger_file, given):
    code, out, err = invoke("ledger", "--file", ledger_file, "add", "x",
                            "--grid", "corpus:trefoil5", *given)
    assert code == 2 and not out
    assert err.startswith("GridInputError") and "not both" in err
    assert err.count("\n") == 1
    assert not os.path.exists(ledger_file)


@pytest.mark.parametrize("content, argv", [
    ("[]", ["show"]),
    ('{"entries": [1]}', ["show"]),
    ('{"entries": {"a": {"name": "a", "top_poincare": {"0": 1}, '
     '"b1_min": 0, "source": "literature"}}}', ["show"]),
    (None, ["add", "x", "--poincare", "[1]", "--b1", "1"]),
])
def test_ledger_input_of_the_wrong_shape_is_exit_2(ledger_file, content, argv):
    if content is not None:
        with open(ledger_file, "w", encoding="utf-8") as fh:
            fh.write(content)
    code, _, err = invoke("ledger", "--file", ledger_file, *argv)
    assert code == 2
    assert err.startswith("GridInputError") and err.count("\n") == 1


@pytest.mark.parametrize("poincare, field", [
    ('{"0": 1.5, "2": 1}', "'0'"),
    ('{"0": 1, "2": true}', "'2'"),
    ('{"1": 1, "01": 2}', "'01'"),
    ('{"1.0": 1}', "'1.0'"),
    ('{" 1": 1}', "' 1'"),
], ids=["float", "bool", "key-01", "key-1.0", "key-space"])
def test_ledger_add_takes_integer_coefficients_only(ledger_file, poincare,
                                                    field):
    code, out, err = invoke("ledger", "--file", ledger_file, "add", "x",
                            "--poincare", poincare, "--b1", "2")
    assert code == 2 and not out
    assert err.startswith("GridInputError: --poincare")
    assert field in err and err.count("\n") == 1
    assert not os.path.exists(ledger_file)


@pytest.mark.parametrize("entry, field", [
    ({"name": "a", "top_poincare": {"0": 1}, "b1_min": 2.9}, "'b1_min'"),
    ({"name": "a", "top_poincare": {"0": 1}, "b1_min": True}, "'b1_min'"),
    ({"name": 5, "top_poincare": {"0": 1}, "b1_min": 2}, "'name'"),
    ({"name": "a", "top_poincare": {"1": 1.0}, "b1_min": 2}, "'1'"),
    ({"name": "a", "top_poincare": {"0": 1}, "b1_min": 2,
      "source": "computed", "grid": 7}, "'grid'"),
], ids=["b1-float", "b1-bool", "name-int", "coefficient-float", "grid-int"])
def test_ledger_file_fields_of_the_wrong_type_are_exit_2(ledger_file, entry,
                                                          field):
    entry.setdefault("source", "literature")
    with open(ledger_file, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "entries": [entry]}, fh)
    code, out, err = invoke("ledger", "--file", ledger_file, "show")
    assert code == 2 and not out
    assert err.startswith("GridInputError") and field in err
    assert err.count("\n") == 1


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


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

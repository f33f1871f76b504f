"""The traced benchmark still installs on the package.

``perfbench/spans.py`` wraps gridhfk functions, methods and thread-pool
names at the places they are looked up.  A refactor that drops or
renames one of those names, or a parameter a span note reads, would
break only ``perfbench/run.py --trace 1``; these tests make it fail
here instead.  The benchmark module is loaded from its file and never
changed.
"""

import importlib.util
import inspect
import io
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import gridhfk
import gridhfk.cli  # noqa: F401  (spans.py patches gridhfk.cli)
from gridhfk.grids import load_corpus

from oracle import oracle_alex2, oracle_components

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Probe:
    """Stands in for any argument value or result a note reads."""

    is_empty = False

    def __len__(self):
        return 0

    def __getitem__(self, key):
        return Probe()

    def __sub__(self, other):
        return 0

    __rsub__ = __sub__


def check_note(note, fn):
    """The note reads only parameters that ``fn`` has."""
    params = {name: Probe() for name in inspect.signature(fn).parameters}
    note(params, Probe())


def test_every_traced_site_exists_and_its_note_binds(spans):
    for mod, attr, name, note in spans.FUNCTION_SITES:
        module = getattr(gridhfk, mod)
        assert attr in vars(module), f"{mod}.{attr} ({name}) is gone"
        if note:
            check_note(note, vars(module)[attr])
    for mod, cls_name, attr, name, note in spans.METHOD_SITES:
        cls = getattr(getattr(gridhfk, mod), cls_name)
        assert attr in vars(cls), f"{mod}.{cls_name}.{attr} ({name}) is gone"
        if note:
            check_note(note, vars(cls)[attr])
    for mod in spans.POOL_SITES:
        assert "ThreadPoolExecutor" in vars(getattr(gridhfk, mod)), mod


def test_tracer_installs_records_and_removes(spans):
    sites = ([(getattr(gridhfk, m), a) for m, a, _, _ in spans.FUNCTION_SITES]
             + [(getattr(getattr(gridhfk, m), c), a)
                for m, c, a, _, _ in spans.METHOD_SITES]
             + [(getattr(gridhfk, m), "ThreadPoolExecutor")
                for m in spans.POOL_SITES])
    before = [vars(owner)[attr] for owner, attr in sites]
    tracer = spans.Tracer()
    tracer.install(gridhfk)
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(sites, before))
        out = io.StringIO()
        # knot_5_2_7, a minimal grid: the tails of trefoil5 and of
        # trefoil6, which the CLI simplifies to a 5-grid, have no
        # differential, so their tables take no GF(2) rank.
        assert gridhfk.cli.run(["compute", "--hat", "corpus:knot_5_2_7"],
                               out=out, err=io.StringIO()) == 0
    finally:
        tracer.remove()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(sites, before))
    names = {s["name"] for s in tracer.spans}
    assert {"homology.homology_ranks", "homology.build_level_complex",
            "rectangles.boundary_entries", "gf2.matrix_rank"} <= names
    assert "generators.generators_in_level" not in names
    assert not any(s["counts"]["empty"] for s in tracer.spans
                   if s["name"] == "homology.build_level_complex")


def traced_run(spans, argv):
    """(name, parent name, counts) of every span of one traced command."""
    tracer = spans.Tracer()
    tracer.install(gridhfk)
    try:
        assert gridhfk.cli.run(argv, out=io.StringIO(),
                               err=io.StringIO()) == 0
    finally:
        tracer.remove()
    by_id = {s["id"]: s["name"] for s in tracer.spans}
    return [(s["name"], by_id.get(s["parent"]), s["counts"])
            for s in tracer.spans]


def test_traced_compute_grades_each_state_once(spans):
    # Only the tail, the levels up to -2(n - l), is enumerated and
    # graded, each of its states once by each grader; the 5! states are
    # never streamed, and no level above the tail is built.
    g = load_corpus("trefoil5")
    k = g.n - oracle_components(g.x_cols, g.o_cols)
    tail = Counter(a2 for a2 in (oracle_alex2(g.x_cols, g.o_cols, p)
                                 for p in permutations(range(g.n)))
                   if a2 <= -2 * k)
    assert sum(tail.values()) == 6
    for argv in (["compute", "corpus:trefoil5"],
                 ["compute", "--hat", "corpus:trefoil5"]):
        records = traced_run(spans, argv)
        for batch in ("gradings.alex2_batch", "gradings.maslov2_batch"):
            assert sum(counts["rows"] for name, _, counts in records
                       if name == batch) == sum(tail.values()), (argv, batch)
        assert sorted(counts["rows"] for name, _, counts in records
                      if name == "gradings.maslov2_batch") == sorted(
                          tail.values()), argv
        assert not any(name == "generators.enumerate_all"
                       for name, _, _ in records), argv


def test_traced_bottom_window_enumerates_each_level_once(spans):
    records = traced_run(spans, ["compute", "--window", "bottom",
                                 "corpus:figure_eight6"])
    levels = [parent for name, parent, _ in records
              if name == "generators.generators_in_level"]
    assert levels
    assert all(parent == "homology.build_level_complex" for parent in levels)
    assert len(levels) == sum(1 for name, _, _ in records
                              if name == "homology.build_level_complex")


def test_traced_murasugi_scans_each_link_once(spans):
    # One scan per link, of its mirror: it declares the summands'
    # indices, gives Theorem 1 the bottom groups and τ its tail.  Each
    # link's tail is one level after simplification, and τ stops at its
    # first slice, so every link takes one calculator, two Maslov
    # gradings (the level, the slice pair) and two boundaries.
    tracer = spans.Tracer()
    tracer.install(gridhfk)
    try:
        assert gridhfk.cli.run(["murasugi", "--connect", "corpus:trefoil5",
                                "corpus:hopf_plus4"],
                               out=io.StringIO(), err=io.StringIO()) == 0
    finally:
        tracer.remove()
    names = Counter(s["name"] for s in tracer.spans)
    assert {"murasugi.verify_theorem1", "murasugi.verify_theorem2",
            "invariants.tau_top_is_g"} <= set(names)
    assert names["gradings.calculator_init"] == 3
    assert names["generators.generators_up_to"] == 0
    assert names["rectangles.boundary_entries"] == 6
    assert names["gradings.maslov2_batch"] == 6
    assert "invariants.genus2" not in names


def test_traced_tau_images_only_the_slices_it_visits(spans):
    # τ stops at the first Maslov slice that survives: one image for each
    # summand and one for the sum (an 8-grid after simplification), whose
    # lowest slice contributes.
    records = traced_run(spans, ["murasugi", "--connect", "corpus:trefoil5",
                                 "corpus:trefoil6"])
    assert sum(1 for name, _, _ in records
               if name == "gf2.image_in_prefix") == 3

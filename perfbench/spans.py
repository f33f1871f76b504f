"""In-memory span tracing of gridhfk, installed from outside the package.

The tracer replaces the public functions of each module at the places
they are looked up (the importing module's globals, or the class for
methods), records one span per call (id, name, start, end, parent span,
thread) plus a few counts read off the arguments and the result, and
puts every original back when it is removed.  Thread pools in
``murasugi`` and ``homology`` are swapped for a subclass that hands the
submitting span to the worker, so work done in a pool thread has the
span that scheduled it as parent.

``layer_metrics`` turns a span list into the per-layer figures named in
BENCHMARK.json.  A span's self time is its duration minus the part of
its interval covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


def _bound(fn):
    """Argument binder for one function: (args, kwargs) -> {name: value}."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _rows_of_result(a, res):
    return {"rows": len(res)}


def _rows_of_perms(a, res):
    return {"rows": len(a["perms"])}


def _boundary(a, res):
    return {"mode": a["mode"], "sources": len(a["sources"]),
            "entries": len(res[0])}


def _level_complex(a, res):
    return {"empty": bool(res.is_empty)}


def _rank(a, res):
    return {"columns": a["n_cols"], "pivots": res, "width": a["n_rows"]}


def _kernel(a, res):
    return {"columns": a["n_cols"], "pivots": a["n_cols"] - len(res),
            "width": a["n_rows"]}


def _image(a, res):
    return {"columns": a["n_cols"], "width": a["n_rows"]}


def _intersection(a, res):
    return {"width": a["width_bits"]}


# (module of the reference, attribute, span name, note) for every
# function reference the CLI paths go through.  Calls between functions
# of one module go through that module's globals, so those are listed
# under the module itself.
FUNCTION_SITES = [
    ("cli", "load_grid", "grids.load_grid", None),
    ("cli", "count_components", "grids.count_components", None),
    ("cli", "enumerate_all", "generators.enumerate_all", _rows_of_result),
    ("cli", "generators_in_level", "generators.generators_in_level",
     _rows_of_result),
    ("cli", "homology_ranks", "homology.homology_ranks", None),
    ("cli", "bottom_group", "invariants.bottom_group", None),
    ("cli", "genus2", "invariants.genus2", None),
    ("cli", "hat_ranks", "invariants.hat_ranks", None),
    ("cli", "top_group", "invariants.top_group", None),
    ("cli", "load_ledger", "ledger.load_ledger", None),
    ("cli", "save_ledger", "ledger.save_ledger", None),
    ("cli", "seed_entries", "ledger.seed_entries", None),
    ("cli", "entry_from_grid", "ledger.entry_from_grid", None),
    ("cli", "p_image", "ledger.p_image", None),
    ("cli", "load_case", "murasugi.load_case", None),
    ("cli", "make_connected_sum_case", "murasugi.make_connected_sum_case",
     None),
    ("cli", "verify_theorem1", "murasugi.verify_theorem1", None),
    ("cli", "verify_theorem2", "murasugi.verify_theorem2", None),
    ("cli", "cable_top_group_predict", "murasugi.cable_top_group_predict",
     None),
    ("murasugi", "connected_sum", "grids.connected_sum", None),
    ("murasugi", "count_components", "grids.count_components", None),
    ("murasugi", "load_grid", "grids.load_grid", None),
    ("murasugi", "bottom_group", "invariants.bottom_group", None),
    ("murasugi", "tau_top_is_g", "invariants.tau_top_is_g", None),
    ("invariants", "count_components", "grids.count_components", None),
    ("invariants", "mirror", "grids.mirror", None),
    ("invariants", "build_level_complex", "homology.build_level_complex",
     _level_complex),
    ("invariants", "level_homology_ranks", "homology.level_homology_ranks",
     None),
    ("invariants", "homology_ranks", "homology.homology_ranks", None),
    ("invariants", "deflate_to_hat", "homology.deflate_to_hat", None),
    ("invariants", "induced_map_rank", "homology.induced_map_rank", None),
    ("invariants", "enumerate_all", "generators.enumerate_all",
     _rows_of_result),
    ("invariants", "bottom_group", "invariants.bottom_group", None),
    ("invariants", "top_group", "invariants.top_group", None),
    ("invariants", "genus2", "invariants.genus2", None),
    ("invariants", "tau_bot_is_minus_g", "invariants.tau_bot_is_minus_g",
     None),
    ("invariants", "tau_top_is_g", "invariants.tau_top_is_g", None),
    ("homology", "generators_in_level", "generators.generators_in_level",
     _rows_of_result),
    ("homology", "generators_up_to", "generators.generators_up_to",
     _rows_of_result),
    ("homology", "enumerate_all", "generators.enumerate_all",
     _rows_of_result),
    ("homology", "boundary_entries", "rectangles.boundary_entries",
     _boundary),
    ("homology", "build_level_complex", "homology.build_level_complex",
     _level_complex),
    ("homology", "level_homology_ranks", "homology.level_homology_ranks",
     None),
    ("homology", "build_two_step", "homology.build_two_step", None),
    ("gf2", "matrix_rank", "gf2.matrix_rank", _rank),
    ("gf2", "kernel_basis", "gf2.kernel_basis", _kernel),
    ("gf2", "image_in_prefix", "gf2.image_in_prefix", _image),
    ("gf2", "span_intersection_dim", "gf2.span_intersection_dim",
     _intersection),
    ("gradings", "count_components", "grids.count_components", None),
    ("ledger", "entry_from_grid", "ledger.entry_from_grid", None),
    ("grids", "load_grid", "grids.load_grid", None),
    ("grids", "parse_grid", "grids.parse_grid", None),
]

# (module, class, method, span name, note): methods are looked up on the
# class, so one replacement covers every caller.
METHOD_SITES = [
    ("gradings", "GradingCalculator", "__init__", "gradings.calculator_init",
     None),
    ("gradings", "GradingCalculator", "alex2_batch", "gradings.alex2_batch",
     _rows_of_perms),
    ("gradings", "GradingCalculator", "maslov2_batch",
     "gradings.maslov2_batch", _rows_of_perms),
    ("rectangles", "RectangleCounter", "__init__", "rectangles.counter_init",
     None),
]

POOL_SITES = ["murasugi", "homology"]


class Tracer:
    """Span recorder; ``install`` patches gridhfk, ``remove`` restores it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of this name; returns its result."""
        return self._call(name, fn, None, args, kwargs)

    def _call(self, name, fn, note, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = note(args, kwargs, result) if (note and result is not None) else None
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "thread": threading.get_ident(),
                               "counts": counts})

    def wrap(self, name, fn, note=None):
        bind = _bound(fn) if note else None

        def read(args, kwargs, result):
            return note(bind(args, kwargs), result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, read if note else None, args, kwargs)
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.stack = [parent] if parent else []
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []
                return super().submit(run, *args, **kwargs)
        return TracedPool

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Patch every site listed above in the imported ``package``."""
        modules = {name: getattr(package, name) for name in
                   {s[0] for s in FUNCTION_SITES + METHOD_SITES} | set(POOL_SITES)}
        for mod, attr, name, note in FUNCTION_SITES:
            owner = modules[mod]
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), note))
        for mod, cls_name, attr, name, note in METHOD_SITES:
            cls = getattr(modules[mod], cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], note))
        pool = self._pool_class()
        for mod in POOL_SITES:
            self._patch(modules[mod], "ThreadPoolExecutor", pool)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: duration minus the time its children cover}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def layer_metrics(spans, rounds):
    """Per-layer figures per round from the spans of ``rounds`` rounds."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for n in names for s in named[n])

    def count(*names):
        return sum(len(named[n]) for n in names)

    def self_total(pred):
        return sum(own[s["id"]] for s in spans if pred(s))

    def summed(name, key, pred=lambda c: True):
        return sum(s["counts"][key] for s in named[name]
                   if s["counts"] and pred(s["counts"]))

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def child_time(parents):
        ids = {s["id"] for s in parents}
        return sum(dur(s) for s in spans if s["parent"] in ids)

    def share(num, den):
        return num / den if den else 0.0

    theorems = named["murasugi.verify_theorem1"] + named["murasugi.verify_theorem2"]
    level_rows = summed("generators.generators_in_level", "rows")
    enum_rows = summed("generators.enumerate_all", "rows")
    level_s = total("generators.generators_in_level")
    enum_s = total("generators.enumerate_all")
    lcs = count("homology.build_level_complex")
    empty = summed("homology.build_level_complex", "empty")
    gf2_calls = ("gf2.matrix_rank", "gf2.kernel_basis", "gf2.image_in_prefix")
    columns = sum(summed(n, "columns") for n in gf2_calls)
    pivot_columns = (summed("gf2.matrix_rank", "columns")
                     + summed("gf2.kernel_basis", "columns"))
    pivots = (summed("gf2.matrix_rank", "pivots")
              + summed("gf2.kernel_basis", "pivots"))
    widths = [s["counts"]["width"] for n in gf2_calls + ("gf2.span_intersection_dim",)
              for s in named[n] if s["counts"]]

    per_round = {
        "cli.report_pass_s": sum(
            dur(s) for n in ("generators.enumerate_all", "gradings.alex2_batch")
            for s in named[n] if parent_name(s) == "cli.run"),
        "cli.self_s": self_total(lambda s: s["name"] == "cli.run"),
        "murasugi.theorem1_s": total("murasugi.verify_theorem1"),
        "murasugi.theorem2_s": total("murasugi.verify_theorem2"),
        "invariants.bottom_group_calls": count("invariants.bottom_group"),
        "invariants.genus2_calls": count("invariants.genus2"),
        "invariants.levels_scanned": sum(
            1 for s in named["homology.build_level_complex"]
            if parent_name(s) == "invariants.bottom_group"),
        "invariants.tau_s": total("invariants.tau_top_is_g"),
        "homology.level_complexes": lcs,
        "homology.level_complexes_empty": empty,
        "homology.level_complex_self_s": self_total(
            lambda s: s["name"] == "homology.build_level_complex"),
        "homology.level_ranks_self_s": self_total(
            lambda s: s["name"] == "homology.level_homology_ranks"),
        "homology.induced_map_self_s": self_total(
            lambda s: s["name"] == "homology.induced_map_rank"),
        "homology.induced_map_slices": count("gf2.image_in_prefix"),
        "homology.deflate_s": total("homology.deflate_to_hat"),
        "generators.level_s": level_s,
        "generators.level_calls": count("generators.generators_in_level"),
        "generators.level_rows": level_rows,
        "generators.enumerate_all_s": enum_s,
        "generators.enumerate_all_rows": enum_rows,
        "gradings.calculator_builds": count("gradings.calculator_init"),
        "gradings.batch_s": total("gradings.alex2_batch", "gradings.maslov2_batch"),
        "gradings.batch_rows": (summed("gradings.alex2_batch", "rows")
                                + summed("gradings.maslov2_batch", "rows")),
        "rectangles.counter_builds": count("rectangles.counter_init"),
        "rectangles.boundary_level_s": sum(
            dur(s) for s in named["rectangles.boundary_entries"]
            if s["counts"] and s["counts"]["mode"] == "level"),
        "rectangles.boundary_filtered_s": sum(
            dur(s) for s in named["rectangles.boundary_entries"]
            if s["counts"] and s["counts"]["mode"] == "filtered"),
        "rectangles.boundary_sources": summed("rectangles.boundary_entries", "sources"),
        "rectangles.boundary_entries": summed("rectangles.boundary_entries", "entries"),
        "gf2.rank_s": total("gf2.matrix_rank"),
        "gf2.kernel_s": total("gf2.kernel_basis"),
        "gf2.image_s": total("gf2.image_in_prefix"),
        "gf2.intersection_s": total("gf2.span_intersection_dim"),
        "gf2.columns": columns,
        "gf2.rank_sum": summed("gf2.matrix_rank", "pivots"),
        "ledger.seed_s": total("ledger.seed_entries"),
        "ledger.entries_computed": count("ledger.entry_from_grid"),
        "grids.self_s": self_total(lambda s: s["name"].startswith("grids.")),
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    homology_runs = named["homology.homology_ranks"]
    metrics.update({
        "murasugi.pool_overlap": share(child_time(theorems),
                                       sum(dur(s) for s in theorems)),
        "homology.level_nonempty_share": share(lcs - empty, lcs),
        "homology.pool_overlap": share(child_time(homology_runs),
                                       sum(dur(s) for s in homology_runs)),
        "generators.rows_per_s": share(level_rows + enum_rows, level_s + enum_s),
        "gf2.pivot_share": share(pivots, pivot_columns),
        "gf2.width_bits_max": max(widths, default=0),
    })
    return metrics

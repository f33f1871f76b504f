"""Answer checks made apart from gridhfk.

Expected values come from the brute-force reference in tests/oracle.py,
run on the small summand grids, combined through the laws the paper and
the classical theory give, and from published invariants of the small
knots.  Nothing here calls into the package under test: grid files are
read with a parser of this module, and polynomials are plain dicts
{exponent: coefficient}.

Every check takes one finished command (exit code, parsed JSON report,
stderr text) and returns a list of problems; an empty list means the
answer is right.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "gridhfk" / "corpus"


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "gridhfk_bench_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# Published invariants of the corpus knots.  Doubled genus: 2g.  Top hat
# group: (doubled Alexander grading, {doubled Maslov grading: rank}); the
# right trefoil has HFK-hat(T, 1) in Maslov grading 0, the left trefoil
# in Maslov grading 2.  tau_top = g holds for the trefoil and for the
# granny knot (tau = g = 2) and fails for the figure-eight (tau = 0,
# g = 1).
PUBLISHED_GENUS2 = {"trefoil5": 2, "trefoil6": 2, "trefoil_left5": 2,
                    "figure_eight6": 2, "knot_5_2_7": 2, "torus_2_5_7": 4}
PUBLISHED_TOP = {"trefoil5": (2, {0: 1}), "trefoil_left5": (2, {4: 1})}
PUBLISHED_TAU_TOP_IS_G = {"trefoil5": True, "trefoil6": True,
                          "figure_eight6": False,
                          "trefoil5#trefoil5": True,
                          "trefoil5#trefoil6": True,
                          "figure_eight6#unknot3": False}


# --------------------------------------------------------------------------
# grid files and moves


def read_grid_text(text):
    """(x_cols, o_cols) from the three-line grid file format."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    n = int(lines[0])
    x = tuple(int(t) for t in lines[1].removeprefix("X:").split())
    o = tuple(int(t) for t in lines[2].removeprefix("O:").split())
    if len(x) != n or len(o) != n:
        raise ValueError(f"grid of size {n} has {len(x)} X and {len(o)} O columns")
    return x, o


@lru_cache(maxsize=None)
def corpus_grid(name):
    return read_grid_text((CORPUS / f"{name}.grid").read_text())


def torus_translate(grid, rows, cols):
    """Translate a grid on the torus: row r -> r + rows, column c -> c + cols.

    A translation is an isomorphism of the grid complex, so every
    bigraded group is unchanged.
    """
    x, o = grid
    n = len(x)
    nx, no = [0] * n, [0] * n
    for r in range(n):
        nx[(r + rows) % n] = (x[r] + cols) % n
        no[(r + rows) % n] = (o[r] + cols) % n
    return tuple(nx), tuple(no)


def format_grid_text(grid):
    x, o = grid
    return (f"{len(x)}\nX: {' '.join(map(str, x))}\n"
            f"O: {' '.join(map(str, o))}\n")


def mirror(grid):
    x, o = grid
    n = len(x)
    return tuple(n - 1 - c for c in x), tuple(n - 1 - c for c in o)


# --------------------------------------------------------------------------
# expected values from the oracle


@lru_cache(maxsize=None)
def hat_table(name):
    return dict(oracle.oracle_hat_ranks(*corpus_grid(name)))


@lru_cache(maxsize=None)
def alexander(name):
    return dict(oracle.oracle_alexander(*corpus_grid(name)))


@lru_cache(maxsize=None)
def components(name):
    return oracle.oracle_components(*corpus_grid(name))


@lru_cache(maxsize=None)
def bottom_group(name):
    """(hat alex2, {maslov2: rank}) of the bottom group."""
    alex2, ranks = oracle.oracle_bottom_group(*corpus_grid(name))
    return alex2, dict(ranks)


@lru_cache(maxsize=None)
def tau_top_is_g(name):
    """Whether tau_top = g: the bottom window of the mirror includes into
    the full filtered complex with a nonzero map on homology."""
    x, o = mirror(corpus_grid(name))
    n, ell = len(x), oracle.oracle_components(x, o)
    bottom_alex2, _ = oracle.oracle_bottom_group(x, o)
    cutoff = bottom_alex2 - 2 * (n - ell)
    return oracle.oracle_inclusion_rank(x, o, cutoff) > 0


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def kunneth(t1, t2):
    """Bigraded tensor product of two rank tables."""
    out = {}
    for (m1, a1), r1 in t1.items():
        for (m2, a2), r2 in t2.items():
            key = (m1 + m2, a1 + a2)
            out[key] = out.get(key, 0) + r1 * r2
    return out


def _poly_json(poly):
    return {int(e): int(c) for e, c in poly.items()}


# --------------------------------------------------------------------------
# checks


def check_hat_table(summands, code, report, stderr=""):
    """compute --hat on a connected sum of two knots."""
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    table = {(m2, a2): r for m2, a2, r in report["results"]["ranks"]}
    problems = []
    expected = kunneth(hat_table(summands[0]), hat_table(summands[1]))
    if table != expected:
        problems.append(f"hat table {sorted(table.items())} differs from the "
                        f"Kunneth product {sorted(expected.items())}")
    for (m2, a2), r in table.items():
        if table.get((m2 - 2 * a2, -a2)) != r:
            problems.append(f"rank {r} at {(m2, a2)} has no symmetric partner "
                            f"at {(m2 - 2 * a2, -a2)}")
            break
    euler = {}
    for (m2, a2), r in table.items():
        euler[a2 // 2] = euler.get(a2 // 2, 0) + (r if m2 % 4 == 0 else -r)
    euler = {e: c for e, c in euler.items() if c}
    delta = poly_mul(alexander(summands[0]), alexander(summands[1]))
    if euler != delta:
        problems.append(f"Euler characteristic {euler} is not the product "
                        f"of Alexander polynomials {delta}")
    return problems


def check_murasugi_sum(summands, code, report, stderr=""):
    """murasugi --connect A B: both theorems against the oracle."""
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    res = report["results"]
    t1, t2 = res["theorem1"], res["theorem2"]
    problems = []
    if not (t1["passed"] and t2["passed"]):
        problems.append("a theorem check did not pass")
    shifted = []
    alex = []
    for name in summands:
        alex2, ranks = bottom_group(name)
        shift = 2 * (components(name) - 1)
        shifted.append({m2 + shift: r for m2, r in ranks.items()})
        alex.append(alex2)
    product = poly_mul(*shifted)
    if _poly_json(t1["details"]["sum_shifted"]) != product:
        problems.append(f"sum bottom group {t1['details']['sum_shifted']} is "
                        f"not the product of the summands' {product}")
    if t1["details"]["bottom_alex2"] != [alex[0], alex[1], alex[0] + alex[1]]:
        problems.append(f"bottom Alexander levels {t1['details']['bottom_alex2']}"
                        f" differ from {alex} and their sum")
    flags = [tau_top_is_g(name) for name in summands]
    reported = [t2["details"]["summand1_tau_top_is_g"],
                t2["details"]["summand2_tau_top_is_g"],
                t2["details"]["sum_tau_top_is_g"]]
    expected = flags + [flags[0] and flags[1]]
    if reported != expected:
        problems.append(f"tau flags {reported}, expected {expected}")
    labels = list(summands) + ["#".join(summands)]
    for label, flag in zip(labels, reported):
        if PUBLISHED_TAU_TOP_IS_G.get(label, flag) != flag:
            problems.append(f"tau_top = g is {flag} for {label}, "
                            f"published {not flag}")
    return problems


def check_case(expect, code, report, stderr=""):
    """murasugi <case file>: the file's own expect block."""
    if "error" in expect:
        if code != 2 or expect["error"] not in stderr:
            return [f"exit {code}, expected 2 with {expect['error']}"]
        return []
    want = 0 if all(expect.values()) else 1
    if code != want or report is None:
        return [f"exit {code}, expected {want}: {stderr.strip()[-200:]}"]
    res = report["results"]
    problems = []
    for key in ("theorem1", "theorem2"):
        if key in expect and res[key]["passed"] != expect[key]:
            problems.append(f"{key} passed={res[key]['passed']}, "
                            f"expected {expect[key]}")
    return problems


def check_cable(knot, code, report, stderr=""):
    """cable --compare: the prediction is the published top group."""
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    res = report["results"]
    alex2, poly = PUBLISHED_TOP[knot]
    problems = []
    if (res["predicted_alex2"], _poly_json(res["predicted_poincare"])) != (alex2, poly):
        problems.append(f"predicted top group ({res['predicted_alex2']}, "
                        f"{res['predicted_poincare']}), published ({alex2}, {poly})")
    cmp = res["comparison"]
    if (cmp["alex2"], _poly_json(cmp["poincare"]), cmp["match"]) != (alex2, poly, True):
        problems.append(f"direct top group {cmp}, published ({alex2}, {poly})")
    return problems


def check_bottom(knot, code, report, stderr=""):
    """compute --window bottom: the published genus."""
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    res = report["results"]
    g2 = PUBLISHED_GENUS2[knot]
    if (res["genus2"], res["alex2_bottom"]) != (g2, -g2):
        return [f"doubled genus {res['genus2']}, published {g2}"]
    return []


def check_ledger_seed(names, code, report, stderr=""):
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    missing = set(names) - set(report["results"]["added"])
    return [f"seed did not add {sorted(missing)}"] if missing else []


def check_plumbing_identity(_, code, report, stderr=""):
    """hopf_plus + hopf_plus - trefoil: the trefoil is the plumbing of two
    positive Hopf bands, so the ledger image is the identity."""
    if code != 0 or report is None:
        return [f"exit {code}, expected 0: {stderr.strip()[-200:]}"]
    if report["results"]["is_identity"] is not True:
        return [f"plumbing image {report['results']['image']} is not 1"]
    return []

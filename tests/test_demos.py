"""Every demo script runs to the end, the corpus tool rebuilds the
shipped grids, and the answer comparison finds no difference between
this tree and itself.

Each ``demos/*.py`` runs in its own interpreter with the package
sources on ``PYTHONPATH``; the demos assert their own claims, so exit 0
means they all held.  ``tools/make_corpus.py`` likewise checks the
invariants that identify each grid's link before it writes the grid.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_make_corpus_rebuilds_the_shipped_grids_byte_for_byte(tmp_path):
    # Written to tmp_path, never over the shipped corpus.
    done = _run(ROOT / "tools" / "make_corpus.py", tmp_path, str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    shipped = {p.name: p.read_bytes()
               for p in (ROOT / "src" / "gridhfk" / "corpus").glob("*.grid")}
    assert len(shipped) == 12
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == shipped


def test_compare_answers_finds_no_difference_against_its_own_tree(tmp_path):
    done = _run(ROOT / "tools" / "compare_answers.py", tmp_path, str(ROOT))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(" commands, 0 differences\n")


def test_compare_answers_names_the_first_difference():
    spec = importlib.util.spec_from_file_location(
        "compare_answers", ROOT / "tools" / "compare_answers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    answer = {"argv": ["compute", "trefoil5"], "code": 0, "stderr": "",
              "results": {"ranks": [[0, 2, 1]]}, "generator_counts": {"2": 5},
              "grid_sizes": {"grid": [5, 5]}}
    assert tool.first_difference([answer], [dict(answer)]) is None
    changed = dict(answer, generator_counts={"2": 6})
    assert tool.first_difference([answer, answer], [answer, changed]).startswith(
        "compute trefoil5: generator_counts differs")

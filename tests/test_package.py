"""The package's import surface: every module imports alone, and the
root names nothing but ``__version__``.

Nothing imports the root for its names, so no eager import fixes the
order in which the modules load; an import cycle between two of them
would show here, in a fresh interpreter, before anywhere else.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "gridhfk").glob("*.py")
                 if p.stem != "__init__")


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    done = _python(f"import gridhfk.{module}")
    assert done.returncode == 0, done.stderr


def test_the_root_holds_only_the_version():
    assert len(MODULES) == 12
    done = _python("import gridhfk; print(sorted(n for n in vars(gridhfk) "
                   "if not n.startswith('__')), gridhfk.__version__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "0.1.0"]

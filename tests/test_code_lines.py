"""``tools/code_lines.py`` counts code lines only: docstrings, comments
and blank lines are left out."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""
# a comment

x = 1
y = """not a docstring"""  # a trailing comment
'''


def test_two_code_lines_among_docstring_comment_and_blank():
    assert _tool().code_lines(FIXTURE) == 2


def test_function_and_class_docstrings_are_left_out():
    source = 'class A:\n    """Doc."""\n\n    def f(self):\n        """Doc\n        more."""\n        return 1\n'
    assert _tool().code_lines(source) == 3


def test_the_package_total_is_printed(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("z = 2\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2  a.py", "     1  b.py", "     3  total"]

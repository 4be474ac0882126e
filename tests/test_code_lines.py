"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(a, b):
    """One docstring line."""
    return math.hypot(
        a,
        b,
    )


TEXT = """a string that is
not a docstring"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    tool = load_tool()
    assert tool.docstring_lines(SOURCE) == {1, 2, 10}
    # import, def, the four lines of the call, the two of TEXT
    assert tool.code_lines(SOURCE) == 8


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py", "     1  b.py", "     9  total"]

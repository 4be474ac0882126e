"""Count the code lines of a Python package: lines that hold code, not
blank lines, comment lines or docstrings.

A line counts when a token other than a comment or a docstring lies on
it; a string token spanning several lines counts each of them.  The
docstrings are found with ``ast`` (the leading string of a module, class
or function) and the tokens with ``tokenize``.  Prints one line per
module and a total.

Usage, from the repository root::

    python3 tools/code_lines.py [PACKAGE_DIR]   # default: src/hopca
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings of ``source`` occupy."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "hopca"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Code lines per module of ``src/shapecorr``, ``tests`` and ``scripts``.

A code line is a source line that holds a token other than a comment, a
line break, an indent or a dedent, outside a docstring (a string statement
that opens a module, class or function body). ``__init__.py`` files are
left out. One line per module, then one total per directory and a grand
total.

Usage: python3 scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/shapecorr", "tests", "scripts")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the Python source ``text``."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main():
    grand = 0
    for d in DIRS:
        total = 0
        for path in sorted((ROOT / d).glob("*.py")):
            if path.name == "__init__.py":
                continue
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path.relative_to(ROOT)}")
        print(f"{total:6d}  {d}/ total")
        grand += total
    print(f"{grand:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of the germclass package, per module.

A code line is a line of a Python source that holds code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count.  A line inside a statement
that spans several lines counts, the lines of a multi-line string literal
that is not a docstring included.

Usage:
    python tools/code_lines.py [DIR]

DIR defaults to the package sources, src/germclass.
Prints one line per module, "<count>  <name>", then the total.  The
script uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_dir(root: Path) -> dict:
    """Code lines of every .py file under `root`, keyed by path relative to it."""
    return {str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "germclass"
    counts = count_dir(root)
    for name, count in counts.items():
        print("%5d  %s" % (count, name))
    print("%5d  total" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

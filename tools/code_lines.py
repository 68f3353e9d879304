"""Count the code lines of each module under a source directory.

Usage::

    python tools/code_lines.py SRC_DIR

A code line is a physical line that holds a token other than a comment: blank
lines, comment lines and the lines of a docstring (the leading string of a
module, class or function, found with :mod:`ast`) do not count, and a token
that spans lines, such as a bracketed expression's string, counts each line it
spans. The output is one line per ``.py`` file below SRC_DIR, ``count path``
with the path relative to SRC_DIR, in path order, then ``count total``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of one module's source ``text``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(src_dir: str) -> int:
    root = Path(src_dir)
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(count, path.relative_to(root).as_posix())
    print(total, "total")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))

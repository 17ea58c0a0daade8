"""Count the code lines of the ``normalvol`` package.

A code line is a non-blank line that holds some token other than a comment
and lies outside every module, class and function docstring.  Each line of
a multi-line expression counts.  The script prints one total per module of
``src/normalvol`` and then their sum.

Usage: ``python tools/code_lines.py [package directory]``
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a module and its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source (module docstring)."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    blank = {i for i, line in enumerate(source.splitlines(), 1) if not line.strip()}
    return len(lines - blank - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "normalvol"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the lines, code lines and comment lines of the modules of src/raysym.

    python3 perf/loc.py

A code line is non-blank, is not a comment line and lies outside every
module, class and function docstring.  A comment line is one whose first
non-blank character is ``#``.  Prints one tab-separated line per module,
then the total: module, lines, code lines, comment lines.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(lines, code lines, comment lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    comments = sum(line.lstrip().startswith("#") for line in lines)
    code = sum(
        1 for n, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and n not in docs
    )
    return len(lines), code, comments


def main() -> None:
    total = [0, 0, 0]
    for path in sorted((ROOT / "src" / "raysym").glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        total = [t + c for t, c in zip(total, counts)]
        print(path.name, *counts, sep="\t")
    print("total", *total, sep="\t")


if __name__ == "__main__":
    main()

"""Count the lines of the package source: code, docstring and comment-only
lines for each module of src/skewbrace, and the totals.

A docstring line is a line of the first string statement of a module, class
or function.  A comment-only line holds nothing but a comment.  A code line
is any other line that is not blank.  Uses the standard library only.

Usage: python tools/src_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path


def count(source: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment-only) lines of one module."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = {i for i, line in enumerate(lines, 1)
               if i not in docstring and line.strip().startswith("#")}
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - docstring
    code = len(lines) - len(docstring) - len(comment) - len(blank)
    return len(lines), code, len(docstring), len(comment)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "skewbrace"
    totals = [0, 0, 0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}{'doc':>7}{'comment':>9}")
    for path in sorted(root.glob("*.py")):
        row = count(path.read_text())
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path.name:<16}" + "".join(f"{v:>{w}}" for v, w in zip(row, (7, 7, 7, 9))))
    print(f"{'total':<16}" + "".join(f"{v:>{w}}" for v, w in zip(totals, (7, 7, 7, 9))))


if __name__ == "__main__":
    main(sys.argv[1:])

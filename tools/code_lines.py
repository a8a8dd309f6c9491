"""Print the code lines of the kj package, per module and in total.

A code line holds at least one token of code: blank lines, comment lines
and the lines of module, class and function docstrings are not counted.
Given two package directories, it prints each module's count in both as
``before → after``, with ``-`` for a module that one of them lacks.
Standard library only.

    python3 tools/code_lines.py [package directory, default src/kj]
    python3 tools/code_lines.py BEFORE AFTER
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers taken by the docstrings of ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def package_lines(root: Path) -> dict[str, int]:
    """The code lines of each module under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): code_lines(p.read_text(encoding="utf-8"))
            for p in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: code_lines.py [PACKAGE | BEFORE AFTER]", file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "kj"]
    tables = [package_lines(root) for root in roots]
    names = sorted(set().union(*tables), key=Path)
    width = max(map(len, names), default=5)
    for t in tables:
        t["total"] = sum(t.values())
    for name in [*names, "total"]:
        cells = (f"{t[name]:,}" if name in t else "-" for t in tables)
        print(f"{name:<{width}}  " + " → ".join(f"{c:>6}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the code lines of the kj package, per module and in total.

A code line holds at least one token of code: blank lines, comment lines
and the lines of module, class and function docstrings are not counted.
Standard library only.

    python3 tools/code_lines.py [package directory, default src/kj]
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


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "kj"
    counts = {p.relative_to(root).as_posix(): code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(root.rglob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

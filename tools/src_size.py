"""Report the size of the package source: lines, code-only lines, LP call sites.

Usage: python tools/src_size.py [SRC_DIR]   (default: src/ next to tools/)

For each module under SRC_DIR it prints the physical line count and the
code-only count, which leaves out blank lines, comment-only lines and the
lines of module, class and function docstrings. The last line gives the
totals and the number of ``solve_lp(...)`` call sites. Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _solve_lp_calls(tree: ast.AST) -> int:
    def name(func: ast.expr) -> str:
        if isinstance(func, ast.Attribute):
            return func.attr
        return func.id if isinstance(func, ast.Name) else ""

    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and name(node.func) == "solve_lp")


def measure(path: Path) -> Tuple[int, int, int]:
    """(lines, code-only lines, solve_lp call sites) of one Python file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(tree)
    return len(text.splitlines()), len(code), _solve_lp_calls(tree)


def main(argv: list) -> int:
    default = Path(__file__).resolve().parent.parent / "src"
    root = Path(argv[1]) if len(argv) > 1 else default
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    totals = [0, 0, 0]
    print(f"{'module':<32} {'lines':>6} {'code':>6} {'solve_lp':>8}")
    for path in files:
        counts = measure(path)
        totals = [t + c for t, c in zip(totals, counts)]
        name = str(path.relative_to(root))
        print(f"{name:<32} {counts[0]:>6} {counts[1]:>6} {counts[2]:>8}")
    print(f"{'total':<32} {totals[0]:>6} {totals[1]:>6} {totals[2]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

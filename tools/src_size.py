"""Report the size of the package source: lines, code-only lines, LP call sites.

Usage: python tools/src_size.py [--defs] [SRC_DIR]   (default: src/ next to tools/)

For each module under SRC_DIR it prints the physical line count, the
code-only count, which leaves out blank lines, comment-only lines and the
lines of module, class and function docstrings, the number of
``solve_lp(...)`` call sites and the number of settable values: every
parameter of a ``def`` or ``lambda`` other than ``self``/``cls`` (``*args``
and ``**kwargs`` count one each), plus every init field of a dataclass.
The last line gives the totals. With ``--defs`` it prints instead one
line per ``def``, ``lambda`` and dataclass: its settable values, its
qualified name and its ``file:line``, most settable values first. Stdlib
only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set, Tuple

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


def _name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _solve_lp_calls(tree: ast.AST) -> int:
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _name(node.func) == "solve_lp")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _name(func) == "dataclass":
            return True
    return False


def _init_field(stmt: ast.stmt) -> bool:
    """An annotated class-body field unless it is ``field(init=False)``."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def _defs(node: ast.AST, prefix: str = "") -> Iterator[Tuple[str, int, int]]:
    """(qualified name, line, settable values) of each def, lambda and dataclass."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name += getattr(child, "name", "<lambda>")
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            yield name, child.lineno, sum(p.arg not in ("self", "cls") for p in params)
            name += "."
        elif isinstance(child, ast.ClassDef):
            name += child.name
            if _is_dataclass(child):
                yield name, child.lineno, sum(_init_field(stmt) for stmt in child.body)
            name += "."
        yield from _defs(child, name)


def _settable_values(tree: ast.AST) -> int:
    return sum(count for _, _, count in _defs(tree))


def measure(path: Path) -> Tuple[int, int, int, int]:
    """(lines, code-only lines, solve_lp call sites, settable values) of one file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(tree)
    return len(text.splitlines()), len(code), _solve_lp_calls(tree), _settable_values(tree)


def _row(name: str, counts) -> str:
    lines, code, sites, settable = counts
    return f"{name:<32} {lines:>6} {code:>6} {sites:>8} {settable:>8}"


def _print_defs(root: Path, files: List[Path]) -> None:
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(root))
        found.extend((-count, where, line, name) for name, line, count in _defs(tree))
    # most settable values first, then in file and line order
    for count, where, line, name in sorted(found):
        print(f"{-count:>8}  {name:<48} {where}:{line}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="Report the size of the source.")
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--defs", action="store_true",
                        help="each def, lambda and dataclass by settable values")
    args = parser.parse_args(argv[1:])
    root = args.src
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    if args.defs:
        _print_defs(root, files)
        return 0
    totals = [0, 0, 0, 0]
    print(f"{'module':<32} {'lines':>6} {'code':>6} {'solve_lp':>8} {'settable':>8}")
    for path in files:
        counts = measure(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(_row(str(path.relative_to(root)), counts))
    print(_row("total", totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

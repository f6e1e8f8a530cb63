"""Print the total and code line counts of each module under src/myotorque.

    python tools/src_lines.py [ROOT]

ROOT is the repository root (default: this file's parent's parent). A
code line is one that holds a token outside docstrings and comments: a
blank line, a comment line and every line of a module, class or function
docstring are not code lines; every line of any other multi-line string
literal is.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.start[0] in skip:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    totals = [0, 0]
    print(f"{'module':<20}{'total':>8}{'code':>8}")
    for path in sorted((root / "src" / "myotorque").glob("*.py")):
        total, code = count_lines(path.read_text())
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<20}{total:>8,}{code:>8,}")
    print(f"{'src/':<20}{totals[0]:>8,}{totals[1]:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

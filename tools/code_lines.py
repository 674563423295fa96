"""Count lines and code lines of Python source files.

Usage:

    python tools/code_lines.py [PATH ...]

With no PATH it counts ``src/fracschrod/*.py`` of this tree.  It prints one
``lines  code  path`` line per file (a path inside this tree relative to
its root) and a ``total`` line.  Code lines exclude docstrings (of the
module, each class and each function), comments and blank lines; a
statement or expression that spans several physical lines counts each of
them, as does a string literal that is not a docstring.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The physical lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="Python files to count (default: src/fracschrod/*.py)")
    paths = parser.parse_args(argv).paths or sorted((ROOT / "src" / "fracschrod").glob("*.py"))
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d}  {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

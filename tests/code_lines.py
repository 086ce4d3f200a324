"""Count the code lines of Python files: lines that are not blank, not a
``#`` comment and not inside a module, class or function docstring.

Run from the repo root with one or more files or directories::

    python tests/code_lines.py src/revalloc
    python tests/code_lines.py src/revalloc/dataset.py

It prints each file's count, then the total.  A directory stands for the
``*.py`` files under it, in name order.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` are code: not blank, and touched by a token
    other than a comment (a ``#`` line inside a string literal is code)."""
    touched = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            touched.update(range(token.start[0], token.end[0] + 1))
    touched -= docstring_lines(ast.parse(source))
    return sum(1 for lineno, line in enumerate(source.splitlines(), start=1)
               if lineno in touched and line.strip())


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    total = 0
    for path in python_files(parser.parse_args().paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")

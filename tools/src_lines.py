"""Count the lines of the package's Python sources.

Prints the total lines and the code lines of every .py file under a
directory (default: src/).  A code line holds a token other than a comment
and is not part of a docstring: the string that opens a module, class or
function body.  Blank lines, comment-only lines and docstring lines are
therefore not code.

    python tools/src_lines.py [DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    docs = docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        total += t
        code += c
    print(f"{root}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Code lines and `wc -l` lines of each package module.

    python tools/code_lines.py

prints, for each module of src/ikedalift named in MODULES, its code lines
and its lines as `wc -l` counts them, then the totals of the six modules a
CLI run imports (all but selftest).  A code line is a physical line that
holds a token other than a comment: blank lines, comment lines and every
line of a docstring (a string constant that is the first statement of a
module, class or function) are not code lines.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ikedalift"
MODULES = ("__init__", "cli", "exactnum", "ikeda", "kernels", "modforms", "selftest")
CLI_PATH = MODULES[:6]
# tokens that hold no code: layout, comments and the stream's ends
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    code_total = wc_total = 0
    for name in MODULES:
        source = (SRC / f"{name}.py").read_text()
        code, wc = code_lines(source), source.count("\n")
        print(f"{name:10} {code:5} {wc:5}")
        if name in CLI_PATH:
            code_total += code
            wc_total += wc
    print(f"{'total':10} {code_total:5} {wc_total:5}")


if __name__ == "__main__":
    main()

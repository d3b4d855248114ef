"""Exactness lint: the modules a CLI run executes compute on ints and exact
rationals alone, so no source construct that yields or reads an inexact
number may appear in them.

Each module is parsed with ast and refused if it holds a float or complex
literal, true division (`/` or `/=`), a call to float, round or complex,
`**` with a negative literal exponent, `import math` or a `from math
import` of any name but comb, gcd and isqrt, or a call of a method named
like one of Decimal's inexact functions (sqrt, ln, log10, exp).  selftest,
which only the selftest subcommand imports, is exempt by name.
"""

import ast
from pathlib import Path

import pytest

import ikedalift

PACKAGE = Path(ikedalift.__file__).parent
EXEMPT = {"selftest"}
CLI_PATH = ("__init__", "cli", "exactnum", "ikeda", "modforms", "kernels")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in EXEMPT)

EXACT_MATH = {"comb", "gcd", "isqrt"}
INEXACT_BUILTINS = {"float", "round", "complex"}
INEXACT_DECIMAL = {"sqrt", "ln", "log10", "exp"}


def _is_negative_literal(node) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
    )


def inexact_constructs(source: str) -> list[str]:
    """`line: what` for every construct of source that the lint refuses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _is_negative_literal(node.right):
                what = "negative literal exponent"
        elif isinstance(node, ast.Import):
            if any(a.name == "math" or a.name.startswith("math.") for a in node.names):
                what = "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = {a.name for a in node.names} - EXACT_MATH
            if names:
                what = f"from math import {', '.join(sorted(names))}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in INEXACT_BUILTINS:
                what = f"call to {func.id}"
            elif isinstance(func, ast.Attribute) and func.attr in INEXACT_DECIMAL:
                what = f"call to .{func.attr}"
        if what is not None:
            found.append(f"{node.lineno}: {what}")
    return found


def test_every_cli_path_module_is_linted():
    assert set(CLI_PATH) <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_is_exact(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert inexact_constructs(source) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "x = a / b",
        "x /= 2",
        "x = float(a)",
        "x = round(a)",
        "x = complex(a, b)",
        "x = a ** -1",
        "import math",
        "import math as m",
        "from math import sqrt",
        "from math import gcd, log",
        "x = d.sqrt()",
        "x = ctx.ln(d)",
        "x = d.log10()",
        "x = Decimal(2).exp()",
    ],
)
def test_lint_refuses(snippet):
    assert len(inexact_constructs(snippet)) == 1, snippet


def test_lint_accepts_exact_constructs():
    source = (
        "from math import comb, gcd, isqrt\n"
        "x = a // b + a % b + a ** 2 + a ** e + (-a) ** 3\n"
        "x //= 2\n"
        "y = int('5') * Fraction(1, 3)\n"
        "z = f'{a}/{b}'\n"
    )
    assert inexact_constructs(source) == []

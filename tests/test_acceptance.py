"""Acceptance gate: every invariant check of ikedalift.selftest, once each.

Each entry of selftest.CHECKS is one test case, named after its function,
the same check `python -m ikedalift selftest` runs, at the same scale.  All
tolerances are exact (integer equality or quadratic-ring sign tests);
nothing here is approximate.  `pytest tests/test_acceptance.py -v` prints
one line per check, and `-k NAME` runs one check.  No other test names a
check: a guard scans tests/ for one.
"""

import ast
from decimal import getcontext, localcontext
from pathlib import Path

import pytest

from ikedalift import selftest


@pytest.mark.parametrize(
    "check", [fn for _, fn in selftest.CHECKS], ids=[fn.__name__ for _, fn in selftest.CHECKS]
)
def test_check(check):
    # no check may move the caller's decimal context: the series engine
    # multiplies through a context of its own, never the thread's
    with localcontext() as ctx:
        ctx.prec = 17
        check()
        assert getcontext().prec == 17


def test_every_check_is_listed_once():
    # a check_* function left out of CHECKS would run nowhere
    defined = {fn for name, fn in vars(selftest).items() if name.startswith("check_")}
    listed = [fn for _, fn in selftest.CHECKS]
    assert len(listed) == len(set(listed))
    assert set(listed) == defined
    labels = [label for label, _ in selftest.CHECKS]
    assert len(labels) == len(set(labels))


def test_no_test_names_a_check():
    # each check runs once, as its case above: a test that needs a check's
    # work calls the helper the check runs (satake_identity for one n,
    # route_identities for one (n, k))
    checks = {name for name in vars(selftest) if name.startswith("check_")}
    named = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in checks:
                named.append(f"{path.name}:{node.lineno} {name}")
    assert named == []


def test_no_construction_outlives_its_check():
    # a helper left behind when its check goes would be dead code: every
    # top-level function of selftest is reached by name from CHECKS or run,
    # directly or through other helpers, or read by tools/ci_checks.py
    tree = ast.parse(Path(selftest.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)} & set(functions)

    ci_checks = Path(__file__).resolve().parent.parent / "tools" / "ci_checks.py"
    read = {
        node.attr
        for node in ast.walk(ast.parse(ci_checks.read_text()))
        if isinstance(node, ast.Attribute)
    }
    reached, todo = set(), {fn.__name__ for _, fn in selftest.CHECKS} | {"run"}
    todo |= read & set(functions)
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= names(functions[name]) - reached
    assert sorted(set(functions) - reached) == []

"""Each per-prime input rule has one home: p is prime (exactnum.require_prime)
and a(p) lies in Deligne's range (modforms.require_deligne).  Every caller
raises the rule's one class with its one message, and an ast scan of the
package keeps it so.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import ikedalift
from ikedalift.exactnum import QuadExt, is_prime, require_prime
from ikedalift.ikeda import IkedaParams, verify_prime
from ikedalift.modforms import eigenform, hecke_eigenvalue_prime

PACKAGE = Path(ikedalift.__file__).parent


def test_every_caller_refuses_a_composite_with_one_message():
    assert require_prime(691) == 691
    calls = (
        lambda: verify_prime(IkedaParams(2, 10), 6, 0),
        lambda: hecke_eigenvalue_prime(eigenform(12, 10), 6),
        lambda: QuadExt(1, 1, 6),
        lambda: require_prime(6),
    )
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "6 is not prime"


def test_every_caller_refuses_a_non_int_prime_with_one_message():
    # a float or a Fraction equal to a prime is no prime: is_prime refuses it
    for p in (5.0, Fraction(5)):
        calls = (
            lambda: is_prime(p),
            lambda: verify_prime(IkedaParams(2, 10), p, 0),
            lambda: hecke_eigenvalue_prime(eigenform(12, 10), p),
            lambda: QuadExt(1, 1, p),
            lambda: require_prime(p),
        )
        for call in calls:
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == f"expected int, got {type(p).__name__}"


def nodes_by_function(tree):
    """(name of the innermost enclosing def, or None; node) for every node."""

    def walk(node, fn):
        yield fn, node
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else fn
            yield from walk(child, inner)

    return walk(tree, None)


def scan():
    """module -> (function, node) pairs of every module of the package."""
    return {
        path.stem: list(nodes_by_function(ast.parse(path.read_text())))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _says_not_prime(node) -> bool:
    return any(
        isinstance(c, ast.Constant) and isinstance(c.value, str) and "is not prime" in c.value
        for c in ast.walk(node)
    )


def test_one_primality_guard():
    raises = [
        (module, fn)
        for module, nodes in scan().items()
        for fn, node in nodes
        if isinstance(node, ast.Raise) and node.exc is not None and _says_not_prime(node.exc)
    ]
    assert raises == [("exactnum", "require_prime")]


def test_one_deligne_check():
    constructed = [
        (module, fn)
        for module, nodes in scan().items()
        for fn, node in nodes
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        == "DeligneBoundError"
    ]
    assert constructed == [("modforms", "require_deligne")]


def test_one_class_exits_1():
    handlers = [
        node
        for fn, node in scan()["cli"]
        if fn == "main"
        and isinstance(node, ast.ExceptHandler)
        and any(
            isinstance(r, ast.Return) and isinstance(r.value, ast.Constant) and r.value.value == 1
            for r in ast.walk(node)
        )
    ]
    assert len(handlers) == 1
    assert isinstance(handlers[0].type, ast.Name)
    assert handlers[0].type.id == "EigenformValidationError"

"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latsurj"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements; library checks must raise instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_certifier_calls_no_factoring_primality_or_smith_form():
    # the certifier decides by elimination modulo gcds of minors, and its
    # verifier by minors and one product; neither may call these, by name
    # or through a module attribute
    tree = ast.parse((SRC / "certifier.py").read_text())
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    forbidden = {"factorize", "prime_divisors", "cokernel", "bareiss", "is_probable_prime", "rank_mod_p"}
    assert not called & forbidden
    assert not [name for name in called if name and name.startswith("smith_")]

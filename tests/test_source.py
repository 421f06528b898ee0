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


def _called_names(module, function=None):
    # names called in a module, or in one of its top-level functions, by
    # name or through a module attribute
    tree = ast.parse((SRC / module).read_text())
    if function is not None:
        tree = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def test_certifier_calls_no_factoring_primality_or_smith_form():
    # the certifier decides by elimination modulo gcds of minors, and its
    # verifier by minors and one product; neither may call these
    called = _called_names("certifier.py")
    forbidden = {"factorize", "prime_divisors", "cokernel", "bareiss", "is_probable_prime", "rank_mod_p"}
    assert not called & forbidden
    assert not [name for name in called if name and name.startswith("smith_")]


def test_exposure_calls_no_smith_form():
    # exposure splits det(m0) by gcds and never factors it; a Smith form
    # would stand in for the factoring, at a cost with no bound
    called = _called_names("exposure.py")
    assert "cokernel" not in called
    assert not [name for name in called if name and name.startswith("smith_")]


def test_exposure_and_alpha_min_call_no_factoring():
    # both split their moduli by gcds (modp.parts); factoring is only for
    # field orders, and a Smith form would factor by another name
    for module in ("exposure.py", "ensembles.py"):
        called = _called_names(module)
        assert not called & {"factorize", "prime_divisors", "cokernel"}, module
        assert not [name for name in called if name and name.startswith("smith_")], module


def test_decider_takes_no_minors_one_at_a_time():
    # is_surjective reads every minor it needs off one adjugate solve and
    # its swaps; only the verifier computes minors of listed column sets
    called = _called_names("certifier.py", "is_surjective")
    assert "adjugate_rows" in called
    assert not called & {"crt_solve", "_minors", "det"}


def _is_modular_inverse(node):
    # pow(x, -1, m): a built-in pow with exponent -1 and a modulus
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.UnaryOp)
        and isinstance(node.args[1].op, ast.USub)
        and getattr(node.args[1].operand, "value", None) == 1
    )


def test_modular_inverses_only_in_the_elimination_kernels():
    # every elimination modulo N goes through echelon or det_solve, and
    # the CRT lift inverts its moduli; any other pow(x, -1, m) would be a
    # second elimination loop
    inverting = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_modular_inverse(node) for node in ast.walk(function)):
                    inverting.add(f"{path.stem}.{function.name}")
    assert inverting == {"modp.echelon", "modp.det_solve", "exact_linalg._lift"}
    imported = set()
    for node in ast.walk(ast.parse((SRC / "modp.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if name.split(".")[-1] == "primes"], imported

"""Every function, class and method that `src/nielsenkit` defines is used by
the program itself: by `src/`, `scripts/` or `perfbench/`.  A helper that only
tests call belongs in the tests.

A method (a def in a class body) counts as used only when an attribute or a
string names it: a plain name of the same spelling is some other binding."""

import ast
from pathlib import Path

import nielsenkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nielsenkit"


def _definitions() -> dict[tuple[str, bool], str]:
    """(name, is_method) of every definition, with its first location."""
    out: dict[tuple[str, bool], str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = (node.name, id(node) in methods and not isinstance(node, ast.ClassDef))
                out.setdefault(key, f"{path.name}:{node.lineno}")
    return out


def _references() -> tuple[set[str], set[str]]:
    """Names read as plain names, and names read as attributes or strings.
    The perfbench hook tables name their targets in strings."""
    plain: set[str] = set()
    qualified: set[str] = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    plain.add(node.id)
                elif isinstance(node, ast.Attribute):
                    qualified.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    qualified.add(node.value)
    return plain, qualified


def test_every_definition_is_referenced():
    plain, qualified = _references()
    exempt = set(nielsenkit.__all__)
    unused = sorted(
        f"{name} ({where})" for (name, is_method), where in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exempt
        and name not in qualified and (is_method or name not in plain))
    assert unused == []

"""Every function, class and method that `src/nielsenkit` defines is used by
the program itself: by `src/`, `scripts/` or `perfbench/`.  A helper that only
tests call belongs in the tests."""

import ast
from pathlib import Path

import nielsenkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nielsenkit"


def _definitions() -> dict[str, str]:
    out: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.setdefault(node.name, f"{path.name}:{node.lineno}")
    return out


def _references() -> set[str]:
    # The perfbench hook tables name their targets in strings.
    names: set[str] = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_is_referenced():
    used = _references()
    exempt = set(nielsenkit.__all__)
    unused = sorted(
        f"{name} ({where})" for name, where in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exempt and name not in used)
    assert unused == []

"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

import beamblock

MODULES = sorted(p for p in Path(beamblock.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import():
    source = ("import json\nimport os.path\nfrom math import pi, tau\n"
              "print(os.path.sep, tau)\n")
    assert _unused_imports(source) == ["line 1: json", "line 3: pi"]

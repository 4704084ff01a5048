"""The demos import only names that exist; they are parsed, never run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def ordibench_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each `from ordibench... import name` in a file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ordibench"
            for alias in node.names]


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = ordibench_imports(demo)
    assert imports, f"{demo.name} imports nothing from ordibench"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo.name} imports names that do not exist: {missing}"

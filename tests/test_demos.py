"""The demos import only names that exist, and each one runs standalone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_standalone(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"
    assert done.stdout.strip(), f"{demo.name} printed nothing"

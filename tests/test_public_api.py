"""The public surface: every listed name exists, and the demos use only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import proxfw

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["proxfw"] + [f"proxfw.{m.name}" for m in pkgutil.iter_modules(proxfw.__path__)]


def listed(module_name):
    return getattr(importlib.import_module(module_name), "__all__", None)


@pytest.mark.parametrize("module_name", [m for m in MODULES if listed(m) is not None])
def test_every_listed_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists names it lacks: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demos_import_only_listed_names(path):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "proxfw"
        for alias in node.names
    ]
    assert imports, f"{path.name} imports nothing from proxfw"
    unlisted = [f"{module}.{name}" for module, name in imports if name not in (listed(module) or ())]
    assert not unlisted, f"{path.name} imports names no __all__ lists: {unlisted}"

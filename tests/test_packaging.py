"""Packaging checks: every third-party package ``src/repro`` imports at
module level is declared in ``setup.py``'s ``install_requires``, so a clean
``pip install`` can ``import repro``."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _install_requires() -> set:
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    requirements = ast.literal_eval(keyword.value)
                    return {
                        re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
                        for r in requirements
                    }
    raise AssertionError("setup.py has no setup(install_requires=...) call")


def _module_level_imports() -> dict:
    """Top-level package name -> files importing it at module level, for
    every absolute import outside the standard library and ``repro``."""
    found: dict = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_third_party_imports_are_declared():
    imports = _module_level_imports()
    assert "numpy" in imports  # the scan sees the package's imports at all
    undeclared = {
        name: files for name, files in imports.items()
        if name.lower() not in _install_requires()
    }
    assert not undeclared, f"imported but not in install_requires: {undeclared}"

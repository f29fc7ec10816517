import ast
import importlib
from pathlib import Path

import ellrank

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_all_exports_resolve():
    # every name the package exports is bound, so `from ellrank import *`
    # and ellrank.<name> work after an export is removed
    assert [name for name in ellrank.__all__ if not hasattr(ellrank, name)] == []
    assert len(set(ellrank.__all__)) == len(ellrank.__all__)


def test_demo_imports_resolve():
    # no test runs the demos, so a removed name would break them silently
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = [(demo.name, node.module, alias.name)
               for demo in demos
               for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ellrank")
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []

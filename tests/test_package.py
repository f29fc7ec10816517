import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ellrank

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_all_exports_resolve():
    # every name the package exports is bound, so `from ellrank import *`
    # and ellrank.<name> work after an export is removed
    assert [name for name in ellrank.__all__ if not hasattr(ellrank, name)] == []
    assert len(set(ellrank.__all__)) == len(ellrank.__all__)


# exported names that only the benchmark's tracer binds by name; they go
# with the tracer's recorder rewrite (ROADMAP item 1)
_TRACER_PINNED = {"cyclotomic", "integrate_invariant"}


def _referenced(path: Path) -> set[str]:
    """The names a module reads, imports or takes as attributes, each
    top-level definition's own name left out of its body's references."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
        out |= refs - {getattr(stmt, "name", None)}
    return out


def test_every_export_has_a_caller():
    # an exported name is read somewhere in the package or by a demo; one
    # that only tests read belongs in tests/ as an oracle
    pkg = Path(ellrank.__file__).parent
    files = [p for p in pkg.glob("*.py") if p.name != "__init__.py"] + sorted(DEMOS.glob("*.py"))
    used = set().union(*map(_referenced, files))
    assert set(ellrank.__all__) - used == _TRACER_PINNED


def test_demo_imports_resolve():
    # a removed name fails here by name, before test_demos_run runs the demo
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = [(demo.name, node.module, alias.name)
               for demo in demos
               for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ellrank")
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def _resolve(node, names):
    """The ellrank object that a call's function expression names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        return None if base is None else getattr(base, node.attr, None)
    return None


def test_demo_keywords_are_parameters():
    # every keyword a demo passes to an ellrank callable is one of its
    # parameters, so a removed parameter fails here rather than in a demo
    bad = []
    for demo in sorted(DEMOS.glob("*.py")):
        tree = ast.parse(demo.read_text())
        names = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                     alias.name, None)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ellrank")
                 for alias in node.names}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and callable(fn := _resolve(node.func, names))):
                continue
            params = inspect.signature(fn).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            bad += [(demo.name, node.lineno, kw.arg) for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    assert bad == []


def test_demos_run():
    # every demo runs to exit 0 against the source tree (about 1 s together
    # on a 2-core Xeon)
    src = str(DEMOS.parent / "src")
    paths = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    failed = []
    for demo in sorted(DEMOS.glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              text=True, timeout=300)
        if proc.returncode != 0:
            failed.append((demo.name, proc.stderr[-2000:]))
    assert failed == []

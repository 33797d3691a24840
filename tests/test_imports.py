"""No package module imports a name it never uses, and no private helper is
left unread.  No linter is part of the test toolchain, so these AST scans are
the unused-import and dead-helper checks."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonlinbandit"
# __init__.py imports names only to export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom math import pi as tau, e\nsys.exit(tau)\n"
    assert _unused_imports(source) == ["e", "os"]


def test_package_has_modules_to_scan():
    assert {"analysis.py", "harness.py", "kernel.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level ``_name`` functions and classes of ``sources`` (module
    name to source), as ``module.name``, that no source reads as a name or
    an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in defined if name.split(".")[1] not in read)


def test_scan_finds_an_unread_private_helper():
    sources = {"a": "def _called(): pass\ndef _dead(): pass\nclass _Dead: pass\n"
                    "def _by_attribute(): pass\n_dead = None\n",
               "b": "from . import a\na._by_attribute(a._called())\n"}
    assert _unread_private_definitions(sources) == ["a._Dead", "a._dead"]


def test_package_reads_every_private_helper():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_definitions(sources) == []

"""No package module imports a name it never uses, no private helper is left
unread, and no private function keeps a ``None`` default that every call
passes.  No linter is part of the test toolchain, so these AST scans are the
unused-import, dead-helper and dead-default checks."""
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


def _callee(func) -> str | None:
    """The name a call reaches its function by: ``f(...)`` or ``mod.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passes(call: ast.Call, index: int, name: str) -> bool:
    """Whether ``call`` surely passes the parameter at positional ``index``
    called ``name``: by keyword, or by a positional argument with no
    ``*args`` up to it."""
    if any(keyword.arg == name for keyword in call.keywords):
        return True
    head = call.args[:index + 1]
    return 0 <= index < len(head) and not any(isinstance(arg, ast.Starred) for arg in head)


def _always_passed_none_defaults(sources: dict[str, str]) -> list[str]:
    """The ``None``-default parameters of the module-level ``_name`` functions
    of ``sources`` (module name to source), as ``module.function(parameter)``,
    that every call in the sources passes, by position or by keyword.  A
    function read other than as a callee, or never called, is skipped,
    since its calls cannot all be seen."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    functions = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")):
                continue
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaults = list(zip(positional[len(positional) - len(args.defaults):],
                                args.defaults))
            defaults += [(arg.arg, default) for arg, default
                         in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            nones = [(name, positional.index(name) if name in positional else -1)
                     for name, default in defaults
                     if isinstance(default, ast.Constant) and default.value is None]
            if nones:
                functions[node.name] = (module, nones)
    calls = {name: [] for name in functions}
    escaped = set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node.func) in calls:
                calls[_callee(node.func)].append(node)
                callees.add(id(node.func))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load) and _callee(node) in calls
                    and id(node) not in callees):
                escaped.add(_callee(node))
    return sorted(f"{module}.{function}({name})"
                  for function, (module, nones) in functions.items()
                  if calls[function] and function not in escaped
                  for name, index in nones
                  if all(_passes(call, index, name) for call in calls[function]))


def test_scan_finds_a_none_default_every_call_passes():
    sources = {"a": "def _f(x, rows=None, scratch=None, *, out=None): pass\n"
                    "def _g(x, cache=None): pass\n"
                    "def _h(x, seen=None): pass\n"
                    "def _unused(x, y=None): pass\n"
                    "def _star(x, y=None): pass\n"
                    "hook = _h\n",
               "b": "from . import a\n"
                    "a._f(1, [], scratch=2, out=3)\n"
                    "a._f(1, [], None, out=None)\n"
                    "a._g(1, 2)\n"
                    "a._g(1)\n"
                    "a._h(1, 2)\n"
                    "a._star(*[1, 2])\n"}
    assert _always_passed_none_defaults(sources) == [
        "a._f(out)", "a._f(rows)", "a._f(scratch)"]


def test_package_passes_no_none_default_at_every_call():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _always_passed_none_defaults(sources) == []

"""The package's export list, no import without a use, no import of
another module's private name, and what importing the CLI loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ucbench

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [n for n in ucbench.__all__ if not hasattr(ucbench, n)] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. ``from __future__``
    imports are directives, not names; a name listed in ``__all__``
    counts as read."""
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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    src = "import os\nimport a.b\nfrom x import y as z\nos.sep\n"
    assert unused_imports(src) == ["a (line 2)", "z (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from m import f\n__all__ = ['f']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    """Package ``__init__.py`` files re-export what they import, so they
    are exempt."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) \
            + sorted((ROOT / "tests").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def private_imports(source: str) -> list[str]:
    """Names a module imports from another module although their leading
    underscore marks them private to it; dunder names are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return sorted(found)


def test_private_imports_are_found():
    src = ("from .formulations import BASES, _window\n"
           "def f():\n    from .solver import _command as c\n")
    assert private_imports(src) == ["_command (line 3)", "_window (line 1)"]
    assert private_imports("from __future__ import annotations\n") == []
    assert private_imports("from . import __version__\n") == []


def test_no_module_imports_another_modules_private_name():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = private_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def private_definitions(source: str) -> dict[str, int]:
    """The private functions, classes and constants a module defines at
    its top level, with their lines; dunder names are not private."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.endswith("__"))
    return found


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The private top-level names of the modules in ``sources`` (path:
    text) that no module reads."""
    read = {node.id for text in sources.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path}: {name} (line {line})"
                  for path, text in sources.items()
                  for name, line in private_definitions(text).items()
                  if name not in read)


def test_unread_privates_are_found():
    src = ("_LIMIT = 1\n_SIZE: int = 2\n__all__ = []\n"
           "def _helper():\n    return _LIMIT\n"
           "def _dead():\n    pass\nclass _Box:\n    _field = 3\n"
           "def public():\n    return _helper()\n")
    assert unread_privates({"m.py": src}) == [
        "m.py: _Box (line 8)", "m.py: _SIZE (line 2)",
        "m.py: _dead (line 6)"]
    assert unread_privates({"a.py": "_X = 1\n", "b.py": "print(_X)\n"}) \
        == []


def test_no_private_helper_goes_unread():
    """A private top-level name that nothing in ``src`` reads is a
    leftover of deleted code."""
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert unread_privates({str(p.relative_to(ROOT)): p.read_text(
        encoding="utf-8") for p in paths}) == []


def test_cli_import_loads_no_process_xml_or_scipy_module():
    """Every command, and the benchmark's setup, starts with ``import
    ucbench.cli``. Beyond what numpy loads, it loads no process or XML
    module, and no scipy: a backend that needs scipy imports it only when
    selected. Nor does it load any top-level package outside the standard
    library but numpy and ucbench, whose import time every command would
    pay."""
    script = (
        "import sys\n"
        "start = set(sys.modules)\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import ucbench.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m in\n"
        "             ('subprocess', 'shlex', 'xml.etree.ElementTree')\n"
        "             or m.split('.')[0] == 'scipy'))\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - start}\n"
        "             - sys.stdlib_module_names))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ucbench.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.splitlines() == ["[]", "['numpy', 'ucbench']"]

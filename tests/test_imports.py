"""Every module-level import in the package is used by the module, every
private function, method and class is used somewhere in it, every public
name has a reader, and no module takes a private name from a sibling."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "origami_rings"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no name in the module reads;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.argv, gcd)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: lcm"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    found = {
        p.name: unused for p in modules if (unused := unused_imports(p.read_text()))
    }
    assert found == {}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private (leading underscore, not dunder) functions, methods and
    classes defined in the modules `sources` (name -> source) whose name no
    name or attribute in any of them reads."""
    defined, used = {}, set()
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where}: {name}" for name, where in defined.items() if name not in used]


def test_unreferenced_private_names_are_found():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
                "class _Dead:\n    def __init__(self):\n        pass\n\n"
                "    def _method(self):\n        return _used()\n",
        "b.py": "from a import x\nx._method()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:4: _dead", "a.py:7: _Dead"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


ROOT = PACKAGE.parents[1]


def unread_exports(init_source: str, sources: dict[str, str], texts: list[str]) -> list[str]:
    """Names in the `__all__` of `init_source` that no name or attribute in
    the modules `sources` (name -> source) reads and that no text in
    `texts` has as a word."""
    exported = next(
        ast.literal_eval(node.value)
        for node in ast.parse(init_source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
    )
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for text in texts:
        read.update(re.findall(r"\w+", text))
    return [name for name in exported if name not in read]


def test_unread_exports_are_found():
    init = '__all__ = ["used", "mentioned", "dead"]\n'
    sources = {"a.py": "def dead():\n    return used(1)\n"}
    assert unread_exports(init, sources, ["call `mentioned(x)`"]) == ["dead"]


def test_every_export_has_a_reader():
    # a public name is read by the package, or by the README, the demos or
    # perfbench, which stand for the package's users
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    texts = [(ROOT / "README.md").read_text()]
    for pattern in ("demos/*.py", "perfbench/*.py"):
        texts += [p.read_text() for p in sorted(ROOT.glob(pattern))]
    assert len(texts) > 5
    init = (PACKAGE / "__init__.py").read_text()
    assert unread_exports(init, sources, texts) == []


def private_sibling_imports(sources: dict[str, str]) -> list[str]:
    """`from .module import _name` in the modules `sources` (name ->
    source): a private name taken from a sibling module.  A private module
    (`from . import _polys`, `from ._polys import zdiv`) is not one."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_") and node.module:
                        found.append(f"{module}:{node.lineno}: {node.module}.{alias.name}")
    return found


def test_private_sibling_imports_are_found():
    sources = {
        "a.py": "from . import _polys\nfrom ._polys import zdiv\nfrom .b import _hidden, shown\n",
        "b.py": "from __future__ import annotations\nfrom os import _exit\n",
    }
    assert private_sibling_imports(sources) == ["a.py:3: b._hidden"]


def test_no_private_sibling_imports():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert private_sibling_imports(sources) == []

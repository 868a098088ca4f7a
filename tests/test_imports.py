"""Every module-level import in the package is used by the module, and
every private function, method and class is used somewhere in it."""

import ast
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

"""Static checks on the package source, by parsing it with ast.

- No module imports a name it never uses (``__init__.py``, which re-exports,
  is exempt).  A name used only inside a string annotation counts as used.
- Only rings.py names the ring-kind constants KIND_*: everything else asks a
  ring's kernel, so no module dispatches on the kind.
- Every public method or property of a class is named somewhere in the
  package source or in README.md: no public wrapper that nothing calls.

Each module is parsed and walked once.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "congwidth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(tree: ast.AST) -> tuple[list[tuple[str, int]], set[str], set[str], list[tuple[str, str, int]]]:
    """(imported names with their lines, names used, every identifier,
    public methods as (class, name, line))."""
    imports, used, idents, methods = [], set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
            idents.add(node.id)
        elif isinstance(node, ast.Attribute):
            idents.add(node.attr)
        elif isinstance(node, ast.Import):
            imports += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports += [(a.asname or a.name, node.lineno) for a in node.names]
            idents.update(a.name for a in node.names)
        elif isinstance(node, ast.ClassDef):
            methods += [(node.name, f.name, f.lineno) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names(ast.parse(annotation.value, mode="eval"))[1]
    return imports, used, idents, methods


@lru_cache(maxsize=None)
def _scan(path: Path):
    return _names(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    imports, used = _scan(path)[:2]
    unused = [f"{name} (line {line})" for name, line in imports if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rings.py"], ids=lambda p: p.name)
def test_ring_kinds_stay_in_rings(path):
    kinds = sorted(n for n in _scan(path)[2] if n.startswith("KIND_"))
    assert not kinds, f"{path.name} names ring kinds {kinds}; only rings.py may"


def test_public_methods_are_named():
    named = set().union(*(_scan(p)[2] for p in SRC.glob("*.py")))
    named |= set(re.findall(r"\w+", (SRC.parent.parent / "README.md").read_text()))
    unnamed = [f"{p.name}:{line} {cls}.{name}" for p in MODULES for cls, name, line in _scan(p)[3] if name not in named]
    assert not unnamed, f"public methods named nowhere in src/ or README.md: {', '.join(unnamed)}"

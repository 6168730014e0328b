"""Static checks on the package source, by parsing it with ast.

- No module imports a name it never uses (``__init__.py``, which re-exports,
  is exempt).  A name used only inside a string annotation counts as used.
- Only rings.py names the ring-kind constants KIND_*: everything else asks a
  ring's kernel, so no module dispatches on the kind.

Each module is parsed and walked once.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "congwidth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(tree: ast.AST) -> tuple[list[tuple[str, int]], set[str], set[str]]:
    """(imported names with their lines, names used, every identifier)."""
    imports, used, idents = [], set(), set()
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
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names(ast.parse(annotation.value, mode="eval"))[1]
    return imports, used, idents


@lru_cache(maxsize=None)
def _scan(path: Path):
    return _names(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    imports, used, _ = _scan(path)
    unused = [f"{name} (line {line})" for name, line in imports if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rings.py"], ids=lambda p: p.name)
def test_ring_kinds_stay_in_rings(path):
    kinds = sorted(n for n in _scan(path)[2] if n.startswith("KIND_"))
    assert not kinds, f"{path.name} names ring kinds {kinds}; only rings.py may"

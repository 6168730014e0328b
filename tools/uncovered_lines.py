"""Lines of src/congwidth that no test runs.

Runs the test suite in this process under sys.settrace (and
threading.settrace, for threads), both installed before congwidth is
imported, so the lines that run at import count too.  Then, for each module
of src/congwidth, prints every executable line that no test ran, as
"path:line: source".  Executable lines are those named by co_lines() of the
module's code object and every code object nested in it; blank lines and
docstrings are left out.  Exits with pytest's status.

Usage, from the repository root (arguments go to pytest):

    python tools/uncovered_lines.py
    python tools/uncovered_lines.py tests/test_census.py

Only the standard library and pytest are used.  Tracing makes the suite
several times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted((SRC / "congwidth").glob("*.py"))


def executable_lines(path: Path) -> set[int]:
    """Lines with bytecode, over the module and every nested code object,
    less blank lines and docstrings."""
    text = path.read_text()
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    source = text.splitlines()
    return {line for line in lines if source[line - 1].strip()}


def main(argv: list[str]) -> int:
    if "congwidth" in sys.modules:
        raise RuntimeError("congwidth was imported before tracing started")
    wanted = {str(p) for p in MODULES}
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in MODULES:
        missed = sorted(executable_lines(path) - hits[str(path)])
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} executable lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Static checks on the package source, by parsing it with ast.

- No module imports a name it never uses (``__init__.py``, which re-exports,
  is exempt).  A name used only inside a string annotation counts as used.
  REEXPORTS lists the exceptions, with reasons.
- certificate.py, the trust path, imports nothing from the searches
  (reduction.py), the finite engine (census.py, norms.py),
  factorization.py or the CLI.
- Only rings.py names the ring-kind constants KIND_*: everything else asks a
  ring's kernel, so no module dispatches on the kind.
- Every public method or property of a class, and every public top-level
  function or class, is named somewhere in the package source besides its
  definition, in perfbench/ or in README.md: no public wrapper that nothing
  calls.  An ``__init__`` export alone is not a use.
- Only the trace builder's methods construct a QOperation or a TraceStep,
  by its class or through ``_unchecked``, so every recorded step passes its
  checks; the builder lives in certificate.py.
- Every defaulted parameter of a public function, public method or
  ``__init__``, and every defaulted public field of a dataclass that its
  ``__init__`` takes, is passed, by keyword or by position, by some call in
  the package source or in perfbench/: no setting that no caller sets.  A
  call to a class counts as a call to its ``__init__``, and so does
  ``_unchecked(cls, **fields)``; a function's call to itself does not
  count.  KNOBS_WITHOUT_CALLER lists the exceptions, with reasons.

Each file is parsed once.  Besides the static checks, importing the
certificate core or the searches loads no numpy, and the trust path stays
under a committed ceiling of executable lines.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "congwidth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = SRC.parent.parent / "perfbench"

# (function, parameter) -> why the default stays settable although no call sets it
KNOBS_WITHOUT_CALLER = {
    ("unimodular_square_shift", "bound"): "the cap that ends the shift search with SearchExhausted; tests lower it",
    ("sl2_unit_reduction", "pair_budget"): "the number of products the pair search may scan",
    ("shrink_ideal", "seed"): "seeds the violation sampler, as axiom_harness's seed does; tests set it",
}


# (module, name) -> why the module imports a name it never uses
REEXPORTS = {
    ("reduction.py", "replay_trace"): "perfbench/jobs.py and traced.py import it from congwidth.reduction",
    ("reduction.py", "serialize_trace"): "perfbench/jobs.py and traced.py import it from congwidth.reduction",
}

TRACE_RECORDS = ("QOperation", "TraceStep")

# the modules that certificate.py may not import from
OFF_THE_TRUST_PATH = {"reduction", "census", "norms", "factorization", "cli"}

# executable lines of certificate.py, counted by tools/uncovered_lines.py's rule
TRUST_PATH_CEILING = 311


def _names(tree: ast.AST):
    """(imported names with their lines, names used, every identifier,
    public methods as (class, name, line), trace-record constructions as
    (name, line), class spans as (class, first line, last line))."""
    imports, used, idents, methods, records, spans = [], set(), set(), [], [], []
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
            spans.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "_unchecked" and node.args:  # built without its __init__: _unchecked(cls, **fields)
                name = getattr(node.args[0], "id", None)
            if name in TRACE_RECORDS:
                records.append((name, node.lineno))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names(ast.parse(annotation.value, mode="eval"))[1]
    return imports, used, idents, methods, records, spans


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@lru_cache(maxsize=None)
def _scan(path: Path):
    """_names of the module, then its public top-level functions and classes
    as (name, line)."""
    tree = _tree(path)
    tops = [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    return *_names(tree), tops


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    imports, used = _scan(path)[:2]
    unused = [f"{name} (line {line})" for name, line in imports
              if name not in used and (path.name, name) not in REEXPORTS]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
    stale = [name for module, name in REEXPORTS if module == path.name and name not in dict(imports)]
    assert not stale, f"exceptions that name no import of {path.name}: {stale}"


def test_certificate_imports_no_search():
    modules = set()
    for node in ast.walk(_tree(SRC / "certificate.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            modules.update(name.rpartition(".")[2] for name in names)
    assert not modules & OFF_THE_TRUST_PATH, f"certificate.py imports from {sorted(modules & OFF_THE_TRUST_PATH)}"


@pytest.mark.parametrize("module", ["congwidth.certificate", "congwidth.reduction"])
def test_import_loads_no_numpy(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False", f"import {module} loads numpy"


def test_trust_path_stays_under_its_ceiling():
    spec = importlib.util.spec_from_file_location("uncovered_lines", SRC.parent.parent / "tools" / "uncovered_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = len(tool.executable_lines(SRC / "certificate.py"))
    assert lines <= TRUST_PATH_CEILING, f"certificate.py has {lines} executable lines, over {TRUST_PATH_CEILING}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rings.py"], ids=lambda p: p.name)
def test_ring_kinds_stay_in_rings(path):
    kinds = sorted(n for n in _scan(path)[2] if n.startswith("KIND_"))
    assert not kinds, f"{path.name} names ring kinds {kinds}; only rings.py may"


def test_public_methods_are_named():
    named = set().union(*(_scan(p)[2] for p in [*MODULES, *PERFBENCH.glob("*.py")]))
    named |= set(re.findall(r"\w+", (SRC.parent.parent / "README.md").read_text()))
    unnamed = [f"{p.name}:{line} {cls}.{name}" for p in MODULES for cls, name, line in _scan(p)[3] if name not in named]
    # a definition is not a use: identifiers come from names, attributes and imports
    unnamed += [f"{p.name}:{line} {name}" for p in MODULES for name, line in _scan(p)[6] if name not in named]
    assert not unnamed, f"public names named nowhere else in src/, perfbench/ or README.md: {', '.join(unnamed)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_builder_records_steps(path):
    records, spans = _scan(path)[4:6]
    assert records or path.name != "certificate.py", "the builder's own constructions went unseen"
    inside = [(first, last) for cls, first, last in spans if cls == "_Builder"]
    outside = [f"{name} (line {line})" for name, line in records
               if not any(first <= line <= last for first, last in inside)]
    assert not outside, f"{path.name} builds trace records outside _Builder: {', '.join(outside)}"


def _dataclass_fields(cls: ast.ClassDef):
    """(class name, field name, positional index or None, line) for every
    defaulted public field that the dataclass's __init__ takes; [] if cls is
    no dataclass."""
    if not any("dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
               for d in cls.decorator_list):
        return []
    out, position = [], 0
    for f in cls.body:
        if not isinstance(f, ast.AnnAssign) or not isinstance(f.target, ast.Name) or "ClassVar" in ast.unparse(f.annotation):
            continue
        call = f.value if getattr(getattr(f.value, "func", None), "id", None) == "field" else None
        opts = {kw.arg: getattr(kw.value, "value", None) for kw in call.keywords} if call else {}
        if opts.get("init") is False:
            continue
        defaulted = f.value is not None and (call is None or {"default", "default_factory"} & opts.keys())
        if defaulted and not f.target.id.startswith("_"):
            out.append((cls.name, f.target.id, None if opts.get("kw_only") else position, f.lineno))
        position += not opts.get("kw_only")
    return out


def _defaulted_params(tree: ast.AST):
    """(function name, parameter name, positional index or None, line) for
    every defaulted parameter of a public function, public method or
    __init__, and every _dataclass_fields entry; a class's __init__ is keyed
    by the class name, and positional indices skip a method's self."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) and node is not tree:
            continue
        if isinstance(node, ast.ClassDef):
            out += _dataclass_fields(node)
        for f in node.body:
            if not isinstance(f, ast.FunctionDef) or (f.name.startswith("_") and f.name != "__init__"):
                continue
            key = node.name if f.name == "__init__" else f.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            skip = 0 if node is tree or static else 1
            positional = f.args.posonlyargs + f.args.args
            for k, (arg, _) in enumerate(zip(reversed(positional), reversed(f.args.defaults))):
                out.append((key, arg.arg, len(positional) - 1 - k - skip, f.lineno))
            out += [(key, a.arg, None, f.lineno)
                    for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return out


def _passed(paths):
    """(callee name, parameter name or positional index) -> the (file, name
    of the enclosing function) of every call passing that argument; a
    starred argument is passed as "*"."""
    passed = {}

    def visit(path, node, own):
        if isinstance(node, ast.FunctionDef):
            own = node.name
        elif isinstance(node, ast.Call) and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)):
            args = node.args
            if name == "_unchecked" and args:  # _unchecked(cls, **fields) builds cls from the fields it names
                name, args = getattr(args[0], "id", None), args[1:]
            args = ["*" if isinstance(a, ast.Starred) else k for k, a in enumerate(args)]
            for arg in args + [kw.arg or "*" for kw in node.keywords]:
                passed.setdefault((name, arg), set()).add((path, own))
        for child in ast.iter_child_nodes(node):
            visit(path, child, own)

    for path in paths:
        visit(path, _tree(path), None)
    return passed


def test_every_default_has_a_caller():
    passed = _passed([*SRC.glob("*.py"), *PERFBENCH.glob("*.py")])
    params = [(p, *d) for p in MODULES for d in _defaulted_params(_tree(p))]
    stale = KNOBS_WITHOUT_CALLER.keys() - {(fn, arg) for _, fn, arg, _, _ in params}
    assert not stale, f"exceptions that name no defaulted parameter: {sorted(stale)}"
    unset = [f"{p.name}:{line} {fn}({arg}=)" for p, fn, arg, pos, line in params
             if (fn, arg) not in KNOBS_WITHOUT_CALLER
             and not any(where != (p, fn) for key in ((fn, arg), (fn, pos), (fn, "*")) for where in passed.get(key, ()))]
    assert not unset, f"defaulted parameters that no call in src/ or perfbench/ passes: {', '.join(unset)}"

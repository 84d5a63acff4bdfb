"""The public surface of `harmonic` is what the CLI, the suite and tests use.

Read from the sources with `ast` only, so nothing here imports the package
or the benchmark.  Three rules:

* every public top-level function of `src/harmonic` is reached by a
  name-based walk whose roots are `cli.py` and `suite.py` (every function
  and module-level statement), every class body, and the other modules'
  module-level statements apart from imports and `__all__`.  The walk
  follows every name a reached function's body calls or references;
  `__init__.py` re-exports do not count;
* every defaulted parameter of a public function, or of a public method or
  classmethod of a public class, is passed, by keyword or by position, at
  some call site in `src/`, `tests/`, `tools/` or `perfbench/`.  A method
  counts the calls of its name as an attribute, `self` and `cls` not among
  the positions.  A `**mapping` at a call site passes nothing by name;
* every name `__init__.py` binds is a submodule, `__version__`, or a name
  that `tests/`, `tools/` or `perfbench/` read from the package: as
  `harmonic.<name>` (also through an attribute called `harmonic`) or by
  `from harmonic import <name>`.
"""

import ast
import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "harmonic"
ROOT_MODULES = ("cli.py", "suite.py")
CALLER_DIRS = ("src", "tests", "tools", "perfbench")
READER_DIRS = ("tests", "tools", "perfbench")


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _names(node):
    """Every name a subtree references: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _functions(modules):
    """{name: [FunctionDef, ...]} of every top-level function."""
    out = {}
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.setdefault(stmt.name, []).append(stmt)
    return out


def _public(functions):
    return {name: defs for name, defs in functions.items()
            if not name.startswith("_")}


def _unreached(modules):
    functions = _functions(modules)
    seen = set()
    todo = []
    for fname, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) or fname in ROOT_MODULES:
                todo.extend(_names(stmt))
            elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Import, ast.ImportFrom)) \
                    and not _is_all(stmt):
                todo.extend(_names(stmt))
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in functions.get(name, ()):
            todo.extend(_names(fn))
    return sorted(set(_public(functions)) - seen)


def _defaulted(fn):
    """Names of fn's parameters that have defaults."""
    a = fn.args
    positional = a.posonlyargs + a.args
    return ([p.arg for p in positional[len(positional) - len(a.defaults):]]
            + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _call_sites():
    """(called name, number of positional args or None, keyword names)."""
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            alias = {a.asname: a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.asname}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = alias.get(node.func.id, node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                yield (name, None if starred else len(node.args),
                       {k.arg for k in node.keywords if k.arg is not None})


def _methods(modules):
    """{name: [FunctionDef, ...]} of the methods of every public class,
    without `self` or `cls` (static methods keep all their parameters)."""
    out = {}
    for tree in modules.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in stmt.decorator_list):
                    stmt = copy.deepcopy(stmt)
                    del (stmt.args.posonlyargs or stmt.args.args)[0]
                out.setdefault(stmt.name, []).append(stmt)
    return out


def _never_passed(modules):
    public = _public(_functions(modules))
    for name, defs in _public(_methods(modules)).items():
        public.setdefault(name, []).extend(defs)
    calls = {}
    for name, n_pos, keywords in _call_sites():
        if name in public:
            calls.setdefault(name, []).append((n_pos, keywords))
    out = []
    for name, defs in sorted(public.items()):
        for fn in defs:
            params = [p.arg for p in fn.args.posonlyargs + fn.args.args]
            for p in _defaulted(fn):
                # a positional parameter is also passed by position, or by
                # a *sequence of unknown length
                at = params.index(p) if p in params else None
                if not any(p in keys or (at is not None
                                         and (n is None or n > at))
                           for n, keys in calls.get(name, ())):
                    out.append(f"{name}({p})")
    return out


def test_every_public_function_is_reached_from_the_cli_or_the_suite():
    assert _unreached(_modules()) == []


def test_every_public_keyword_argument_is_passed_somewhere():
    assert _never_passed(_modules()) == []


def _package_bindings():
    """Every top-level name `__init__.py` binds."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            out.update(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return out


def _package_reads():
    """Names the readers take from the package itself."""
    out = set()
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    base = node.value
                    if (isinstance(base, ast.Name) and base.id == "harmonic"
                            or isinstance(base, ast.Attribute)
                            and base.attr == "harmonic"):
                        out.add(node.attr)
                elif (isinstance(node, ast.ImportFrom) and node.level == 0
                      and node.module == "harmonic"):
                    out.update(a.name for a in node.names)
    return out


def test_the_package_binds_only_submodules_and_names_read_from_it():
    submodules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    unread = (_package_bindings() - submodules - {"__version__"}
              - _package_reads())
    assert sorted(unread) == []

"""Module exports: every name in a module's ``__all__`` exists there, is
listed once, and earns a route; no module imports a name it never uses;
every defaulted parameter is set by some call outside the unit tests.

A route is a chain of references that reaches the name from a root. The
roots are the names referenced in ``cli.py``, in ``tests/test_acceptance.py``
and in ``perfbench/`` (which names what it wraps in strings such as
``"RunHistory.save_npz"``), plus the ``ALLOW`` names. From a reached name the
walk follows the references in every module-level definition of that name in
``src/vmlab``, so a reference from code that nothing reaches does not count.
A public method of a class is walked only once both the class and the method
name are reached; dunder and private methods ride with their class. Unit
tests do not count either: a name that only its own tests call is dead
code."""

import ast
import importlib
import math
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import pytest

import vmlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmlab.__path__))
SRC = Path(vmlab.__file__).resolve().parent
ROOT = SRC.parents[1]

_ORACLE = "snapshot reader, used by the round-trip tests as their oracle"
ALLOW = {
    "load_field": _ORACLE,
    "load_ensemble": _ORACLE,
    "load_csv": _ORACLE,
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _refs(node: ast.AST, strings: bool = False) -> set:
    """Identifiers that ``node`` refers to by name or attribute, and with
    ``strings`` the parts of string constants that are dotted identifiers."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and _DOTTED.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def _defines(stmt: ast.stmt) -> set:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _public_methods(cls: ast.ClassDef) -> list:
    return [f for f in cls.body if isinstance(f, ast.FunctionDef)
            and not f.name.startswith("_")]


def _definitions() -> list:
    """(names that must all be reached, references the definition makes)
    for every module-level definition in ``src/vmlab``, with each public
    method of a class split off as a definition of its own."""
    out = []
    for path in SRC.glob("*.py"):
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.ClassDef):
                methods = _public_methods(stmt)
                out += [({stmt.name, f.name}, _refs(f)) for f in methods]
                body = [n for n in stmt.body if n not in methods]
                out.append(({stmt.name}, set().union(
                    *map(_refs, body + stmt.decorator_list + stmt.bases))))
            else:
                out += [({name}, _refs(stmt)) for name in _defines(stmt)]
    return out


def _roots() -> set:
    refs = _refs(_parse(SRC / "cli.py"))
    refs |= _refs(_parse(ROOT / "tests" / "test_acceptance.py"))
    for path in (ROOT / "perfbench").glob("*.py"):
        refs |= _refs(_parse(path), strings=True)
    return refs


def _routed(roots: set) -> set:
    """The names reached from ``roots`` through module-level definitions
    and the public methods of reached classes."""
    defs, reached = _definitions(), set(roots)
    grown = True
    while grown:
        grown = False
        for needs, refs in defs:
            if needs <= reached and not refs <= reached:
                reached |= refs
                grown = True
    return reached


def _methods() -> set:
    """(class, method) for each public method in ``src/vmlab``."""
    return {(c.name, f.name)
            for path in SRC.glob("*.py") for c in _parse(path).body
            if isinstance(c, ast.ClassDef) for f in _public_methods(c)}


def _exports() -> dict:
    """Exported name -> the module that exports it."""
    out = {}
    for m in MODULES:
        mod = importlib.import_module(f"vmlab.{m}")
        out.update(dict.fromkeys(getattr(mod, "__all__", []), m))
    return out


def test_modules_found():
    assert {"maxwell", "pic", "retarded"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    mod = importlib.import_module(f"vmlab.{name}")
    names = getattr(mod, "__all__", [])
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(mod, n)] == []


def test_every_export_is_routed():
    routed = _routed(_roots() | set(ALLOW))
    unrouted = {f"{m}.{n}" for n, m in _exports().items()
                if n not in routed}
    assert sorted(unrouted) == []


def test_every_public_method_of_a_routed_class_is_routed():
    routed = _routed(_roots() | set(ALLOW))
    unrouted = {f"{cls}.{method}" for cls, method in _methods()
                if cls in routed and method not in routed}
    assert sorted(unrouted) == []


def test_allow_list_is_not_stale():
    # an exception that is now routed, or names no export and no public
    # method, must go
    routed, exports = _routed(_roots()), _exports()
    methods = {method for _, method in _methods()}
    stale = {n for n in ALLOW
             if n in routed or (n not in exports and n not in methods)}
    assert sorted(stale) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_import(name):
    tree = _parse(SRC / f"{name}.py")
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = stmt.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(f"{b} (line {ln})" for b, ln in imported.items()
                  if b not in used) == []


def _call_sites() -> tuple:
    """Called name -> (most positional arguments, keyword names) over every
    call in ``src/vmlab``, ``perfbench`` and ``tests/test_acceptance.py``,
    the code the routing roots come from; a value only unit tests pass is
    no caller's. A ``*args`` or ``**kwargs`` pass-through names no
    parameter."""
    npos, keywords = defaultdict(int), defaultdict(set)
    paths = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
             *(ROOT / "perfbench").glob("*.py")]
    for path in paths:
        for n in ast.walk(_parse(path)):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            pos = 0
            for arg in n.args:
                if isinstance(arg, ast.Starred):
                    break
                pos += 1
            npos[name] = max(npos[name], pos)
            keywords[name] |= {k.arg for k in n.keywords if k.arg}
    return npos, keywords


def test_every_default_is_set_by_a_call():
    # a parameter that no call sets is a constant, and belongs in the body
    npos, keywords = _call_sites()
    unset = []
    for path in SRC.glob("*.py"):
        tree = _parse(path)
        methods = {id(f) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            a = f.args
            params = [p.arg for p in a.posonlyargs + a.args]
            if id(f) in methods and params[:1] in (["self"], ["cls"]):
                params = params[1:]           # bound by the attribute call
            # (position, name) of each defaulted parameter; keyword-only
            # parameters have no position
            defaulted = list(enumerate(params))[len(params) - len(a.defaults):]
            defaulted += [(math.inf, p.arg) for p, d
                          in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            unset += [f"{path.stem}.{f.name}({arg})" for i, arg in defaulted
                      if arg not in keywords[f.name] and npos[f.name] <= i]
    assert sorted(unset) == []

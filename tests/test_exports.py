"""Module exports: every name in a module's ``__all__`` exists there, is
listed once, and earns a route; no module imports a name it never uses;
every defaulted parameter is set by some call outside the unit tests, and
none is set by every such call.

A route is a chain of references that reaches the name from a root. The
roots are the names referenced in ``cli.py``, in ``tests/test_acceptance.py``
and in ``perfbench/`` (which names what it wraps in strings such as
``"RunHistory.save_npz"``), plus the ``ALLOW`` names. From a reached name the
walk follows the references in every module-level definition of that name in
``src/vmlab``, so a reference from code that nothing reaches does not count.
A public method of a class is walked only once the class is reached and
the method name is reached as an attribute: a load ``x.name``, or a part
after a dot in a perfbench string. A local variable or parameter that
shares the method's name does not reach it. Dunder and private methods ride
with their class. A
method name that two classes define is not matched by name alone: a
reference ``x.name`` reaches ``C.name`` only where the referring definition
also names C (``C.name``, an annotation, a call of C), calls a function
whose return annotation names C, or is a method of C. Unit tests do not
count either: a name that only its own tests call is dead code."""

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
}
# an ALLOW name is a root both as a name and as a method reference
_ALLOW_REFS = set(ALLOW) | {"." + n for n in ALLOW}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _refs(node: ast.AST, strings: bool = False) -> set:
    """Identifiers that ``node`` refers to by name or attribute, and with
    ``strings`` the parts of string constants that are dotted identifiers.
    An attribute load ``x.name``, and a string part after a dot, also give
    ``.name``, the only reference that reaches a method."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
            if isinstance(n.ctx, ast.Load):
                out.add("." + n.attr)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and _DOTTED.fullmatch(n.value)):
            head, *rest = n.value.split(".")
            out.update([head, *rest], ("." + part for part in rest))
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


def _shared() -> dict:
    """Public method name -> the classes that define it, for each name that
    more than one class in ``src/vmlab`` defines."""
    owners = defaultdict(set)
    for cls, method in _methods():
        owners[method].add(cls)
    return {m: cs for m, cs in owners.items() if len(cs) > 1}


def _returns() -> dict:
    """Function name -> the names in its return annotations in ``src/vmlab``
    (a string annotation is parsed)."""
    out = defaultdict(set)
    for path in SRC.glob("*.py"):
        for f in ast.walk(_parse(path)):
            if isinstance(f, ast.FunctionDef) and f.returns is not None:
                ann = f.returns
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    ann = ast.parse(ann.value, mode="eval")
                out[f.name] |= _refs(ann)
    return out


class _Resolver:
    """The (class, method) pairs, for the method names two classes define,
    that a definition's references resolve to (see the module docstring)."""

    def __init__(self):
        self.shared, self.returns = _shared(), _returns()

    def pairs(self, nodes: list, owner: str, strings: bool = False) -> set:
        refs = set().union(*(_refs(n, strings) for n in nodes))
        names = refs | {owner}
        for f in refs & self.returns.keys():
            names |= self.returns[f]
        attrs = {r[1:] for r in refs if r.startswith(".")}
        return {(c, m) for m in attrs & self.shared.keys()
                for c in self.shared[m] & names}


def _units(path: Path) -> list:
    """(names that must all be reached, nodes, owning class or "") for each
    module-level definition in ``path``, with each public method of a class
    split off as a definition of its own, which needs its class and the
    attribute reference ``.method``."""
    out = []
    for stmt in _parse(path).body:
        if isinstance(stmt, ast.ClassDef):
            methods = _public_methods(stmt)
            out += [({stmt.name, "." + f.name}, [f], stmt.name)
                    for f in methods]
            rest = [n for n in stmt.body if n not in methods]
            out.append(({stmt.name}, rest + stmt.decorator_list + stmt.bases,
                        stmt.name))
        else:
            out += [({name}, [stmt], "") for name in _defines(stmt)]
    return out


def _definitions() -> list:
    """(names that must all be reached, (class, method) pairs that must all
    be reached, references the definition makes, pairs it resolves) for
    every definition of ``_units`` in ``src/vmlab``; a method whose name
    another class also defines needs its own pair."""
    res, out = _Resolver(), []
    for path in SRC.glob("*.py"):
        for needs, nodes, owner in _units(path):
            own = {(owner, m[1:]) for m in needs
                   if owner in res.shared.get(m[1:], ())}
            out.append((needs, own, set().union(*map(_refs, nodes)),
                        res.pairs(nodes, owner)))
    return out


def _root_files() -> list:
    """(path, whether dotted strings count) of the files the roots come
    from."""
    return ([(SRC / "cli.py", False),
             (ROOT / "tests" / "test_acceptance.py", False)]
            + [(p, True) for p in (ROOT / "perfbench").glob("*.py")])


def _roots() -> tuple:
    """The root names, and the shared-method pairs the root files'
    definitions resolve."""
    res, refs, pairs = _Resolver(), set(), set()
    for path, strings in _root_files():
        refs |= _refs(_parse(path), strings=strings)
        for _, nodes, owner in _units(path):
            pairs |= res.pairs(nodes, owner, strings)
    return refs, pairs


def _routed(roots: set, pairs: set) -> tuple:
    """The names and shared-method pairs reached from ``roots`` and
    ``pairs`` through module-level definitions and the public methods of
    reached classes."""
    defs, reached, reached_pairs = _definitions(), set(roots), set(pairs)
    grown = True
    while grown:
        grown = False
        for needs, own, refs, found in defs:
            if (needs <= reached and own <= reached_pairs
                    and not (refs <= reached and found <= reached_pairs)):
                reached |= refs
                reached_pairs |= found
                grown = True
    return reached, reached_pairs


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
    roots, pairs = _roots()
    routed, _ = _routed(roots | _ALLOW_REFS, pairs)
    unrouted = {f"{m}.{n}" for n, m in _exports().items()
                if n not in routed}
    assert sorted(unrouted) == []


def test_every_public_method_of_a_routed_class_is_routed():
    # a name that two classes define must be reached as this class's method
    roots, pairs = _roots()
    routed, pairs = _routed(roots | _ALLOW_REFS, pairs)
    shared = _shared()
    unrouted = {f"{cls}.{method}" for cls, method in _methods()
                if cls in routed and ("." + method not in routed or (
                    method in shared and (cls, method) not in pairs))}
    assert sorted(unrouted) == []


def test_allow_list_is_not_stale():
    # an exception that is now routed (a method as an attribute), or names
    # no export and no public method, must go
    routed, exports = _routed(*_roots())[0], _exports()
    methods = {method for _, method in _methods()}
    stale = {n for n in ALLOW
             if (n if n in exports else "." + n) in routed
             or (n not in exports and n not in methods)}
    assert sorted(stale) == []


def test_only_maxwell_transforms():
    # the Fourier conventions (wavenumbers, k^2, the Nyquist rule) live in
    # maxwell; a module that calls np.fft itself grows a second copy
    found = [f"{path.stem} (line {n.lineno})"
             for path in sorted(SRC.glob("*.py")) if path.stem != "maxwell"
             for n in ast.walk(_parse(path))
             if (isinstance(n, ast.Attribute) and n.attr == "fft")
             or (isinstance(n, (ast.Import, ast.ImportFrom))
                 and "fft" in ast.unparse(n))]
    assert found == []


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


def _call_sites() -> dict:
    """Called name -> one (positional arguments, keyword names, pass-through)
    triple per call in ``src/vmlab``, ``perfbench`` and
    ``tests/test_acceptance.py``, the code the routing roots come from; a
    value only unit tests pass is no caller's. Positional arguments are
    counted up to the first ``*args``; a call with ``*args`` or ``**kwargs``
    is a pass-through, which may set any parameter but names none."""
    calls = defaultdict(list)
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
            through = pos < len(n.args) or any(k.arg is None
                                               for k in n.keywords)
            calls[name].append((pos, {k.arg for k in n.keywords if k.arg},
                                through))
    return calls


def _defaults() -> list:
    """(qualified parameter, whether each call of its function's name names
    it, whether each call names it or passes through) of every defaulted
    parameter of a function in ``src/vmlab``."""
    calls = _call_sites()
    out = []
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
            for i, arg in defaulted:
                names = [pos > i or arg in kws for pos, kws, _ in calls[f.name]]
                out.append((f"{path.stem}.{f.name}({arg})", names,
                            [s or t for s, (_, _, t)
                             in zip(names, calls[f.name])]))
    return out


def test_every_default_is_set_by_a_call():
    # a parameter that no call sets is a constant, and belongs in the body
    assert sorted(p for p, names, _ in _defaults() if not any(names)) == []


def test_no_default_is_set_by_every_call():
    # a default that every call overrides is never used: the parameter is
    # required (a pass-through call counts as setting it)
    assert sorted(p for p, _, sets in _defaults()
                  if sets and all(sets)) == []

"""No dead private helpers in the package.

A module-level private name (one leading underscore, not a dunder) must be
read somewhere in src/polarkit outside the top-level statement that defines
it; an import alone does not count.  A module-level private function must
read every parameter it declares, and each of its defaults must be passed
by some call in src/polarkit and left out by another.  Checked with ast
alone, so no linter is needed.
"""

import ast
from pathlib import Path

import polarkit

SRC = Path(polarkit.__file__).parent


def _bound_names(stmt):
    """The names a top-level function, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read_names(stmt):
    """Every name and attribute a statement reads."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _stmts():
    return [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def test_every_private_name_has_a_reader():
    stmts = _stmts()
    reads = [_read_names(stmt) for _, stmt in stmts]
    dead = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert dead == []


def test_every_private_function_reads_its_parameters():
    unread = []
    for module, stmt in _stmts():
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name.startswith("_") and not stmt.name.startswith("__")):
            args = stmt.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = set().union(*map(_read_names, stmt.body))
            unread += [f"{module}:{stmt.name}({p})" for p in params if p not in read]
    assert unread == []


def _defaults(args):
    """(name, position) of each parameter with a default; position is None
    for a keyword-only one."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passes(call, name, position):
    """Whether a call passes the parameter, by keyword, ** or position."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or position is not None and (len(call.args) > position
                                         or any(isinstance(a, ast.Starred) for a in call.args)))


def test_every_private_default_is_passed_and_left_out():
    # A default that every call in the package passes is not needed, and one
    # that none passes serves only the tests.
    stmts = _stmts()
    calls = [node for _, stmt in stmts for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    uneven = []
    for module, stmt in stmts:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name.startswith("_") and not stmt.name.startswith("__")):
            mine = [c for c in calls
                    if getattr(c.func, "id", None) == stmt.name or getattr(c.func, "attr", None) == stmt.name]
            uneven += [f"{module}:{stmt.name}({name})" for name, i in _defaults(stmt.args)
                       if {_passes(c, name, i) for c in mine} != {True, False}]
    assert uneven == []

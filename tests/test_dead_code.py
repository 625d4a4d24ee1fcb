"""No dead private helpers in the package.

A module-level private name (one leading underscore, not a dunder) must be
read somewhere in src/polarkit outside the top-level statement that defines
it; an import alone does not count.  A module-level private function must
read every parameter it declares.  Checked with ast alone, so no linter is
needed.
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

"""No dead private helpers in the package.

A module-level private name (one leading underscore, not a dunder) must be
read somewhere in src/polarkit outside the top-level statement that defines
it; an import alone does not count.  Checked with ast alone, so no linter is
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


def test_every_private_name_has_a_reader():
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_read_names(stmt) for _, stmt in stmts]
    dead = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert dead == []

"""Every public top-level function, class and UPPER_CASE constant in
switchlab has a reader in switchlab itself.  A definition that no module
calls, subclasses, reads, imports or re-exports is surface kept alive only
by its tests: wire it into the code that needs it, or delete it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "switchlab"


def _reads(node) -> Counter:
    """Names read under an AST node: loaded names, loaded attributes and
    imported names (so a ``from .x import f`` in ``__init__`` counts)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _assigned(stmt) -> list[ast.Name]:
    """The names a module-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        return [t for target in stmt.targets for t in ast.walk(target)
                if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target]
    return []


def test_every_public_definition_is_read_in_src():
    total, definitions = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            reads = _reads(stmt)
            total.update(reads)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                names = [t.id for t in _assigned(stmt) if t.id.isupper()]
            definitions += [(f"{path.stem}.{name}", name, reads)
                            for name in names if not name.startswith("_")]
    assert definitions
    # a read inside the definition itself (recursion, a classmethod naming
    # its class) does not count
    unread = [qual for qual, name, own in definitions if total[name] == own[name]]
    assert unread == []

"""Every module-level private function, class and constant of the package is
used somewhere in the package, and every public import of the package is
exported, so a refactor cannot leave one orphaned or dangling."""

import ast
from pathlib import Path

import udgraph

SRC = Path(__file__).resolve().parent.parent / "src" / "udgraph"


def _private_definitions(tree):
    """(name, node) for each module-level _name defined in tree; dunder
    names are module protocol, not helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _orphans(trees: dict) -> list:
    """'module: name' for each private definition in trees that no Name or
    Attribute node outside the definition itself refers to."""
    refs: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
    out = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if not refs.get(name, set()) - {id(n) for n in ast.walk(definition)}:
                out.append(f"{module}: {name}")
    return out


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _orphans(trees) == []


def test_an_orphaned_helper_is_reported():
    # _f's only reference is its own recursive call; _C is used from another
    # module, by name in one and by attribute in the other
    m = "_USED = 1\n_ORPHAN = 2\n\ndef _f():\n    return _USED + _f()\n\nclass _C:\n    pass\n"
    n = "import m\nfrom m import _C\n\nx = (_C, m._C)\n"
    trees = {"m.py": ast.parse(m), "n.py": ast.parse(n)}
    assert _orphans(trees) == ["m.py: _ORPHAN", "m.py: _f"]


def test_exports_match_the_package_imports():
    # every exported name exists, and every public name __init__ imports is
    # exported, so a deletion cannot leave an entry of __all__ dangling
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in udgraph.__all__ if not hasattr(udgraph, name)] == []
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(udgraph.__all__)

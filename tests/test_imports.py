"""Every module-level import and private module-level name in the package is
used by the module itself."""

import ast
from pathlib import Path

import pytest

import mixrec

PACKAGE = Path(mixrec.__file__).resolve().parent


def unused_imports(source):
    """Names bound by module-level imports that nothing in the module reads;
    ``__future__`` imports and names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nimport sys\n" \
             "from .a import b as c, d\n__all__ = ['d']\nprint(sys.argv)\n"
    assert unused_imports(source) == [(2, "json"), (3, "os"), (5, "c")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source):
    """Private module-level functions, classes and assigned names that nothing
    in the module reads; dunder names are not private."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unread_private_name():
    source = "_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\n" \
             "class _K:\n    pass\ndef g():\n    _B = 4\n    return _f\n_unused: int = 5\n"
    assert unread_private_names(source) == [(2, "_B"), (6, "_K"), (11, "_unused")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_module_level_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []

"""Every module-level import in the package is used by the module itself."""

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
